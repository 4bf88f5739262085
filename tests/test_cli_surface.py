"""The CLI surface, pinned: every parser's argument signatures and its
``--help`` text at 80 columns, compared with goldens in
``tests/cli_surface/``.

A signature is what argparse acts on (option strings, dest, type,
default, choices, required, nargs, metavar, action class), so a
refactor of how the parsers are declared must leave it byte-identical.
The help goldens pin what users read.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "cli_surface"


def _parsers(parser, name):
    """Yield (name, parser) for ``parser`` and every nested subparser."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from _parsers(sub, f"{name} {sub_name}")


def _signature(action):
    choices = action.choices
    if isinstance(choices, dict):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "type": getattr(action.type, "__name__", action.type),
        "default": action.default,
        "choices": choices,
        "required": action.required,
        "nargs": action.nargs,
        "metavar": action.metavar,
        "action": type(action).__name__,
    }


def surface():
    """(signatures, help texts) of every parser, keyed by command path.

    Signatures are keyed by option string (or dest for positionals), so
    the order flags are declared in is not part of them; the help text
    shows the order.
    """
    signatures, helps = {}, {}
    for name, parser in _parsers(build_parser(), "bisramgen"):
        signatures[name] = {
            (" ".join(a.option_strings) or a.dest): _signature(a)
            for a in parser._actions
        }
        helps[name] = parser.format_help()
    return signatures, helps


def _help_file(name):
    return GOLDEN / "help" / (name.replace(" ", "-") + ".txt")


@pytest.fixture
def cli_surface(monkeypatch):
    # argparse wraps help, and each subparser's prog, to $COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    return surface()


def test_parser_signatures_match_golden(cli_surface):
    signatures, _ = cli_surface
    golden = json.loads((GOLDEN / "signatures.json").read_text())
    assert sorted(signatures) == sorted(golden)
    for name in golden:
        assert json.loads(json.dumps(signatures[name])) == golden[name], name


def test_help_text_matches_golden(cli_surface):
    _, helps = cli_surface
    assert sorted(p.name for p in (GOLDEN / "help").iterdir()) == sorted(
        _help_file(name).name for name in helps)
    for name, text in helps.items():
        assert text == _help_file(name).read_text(), name


def test_every_subcommand_is_pinned(cli_surface):
    signatures, _ = cli_surface
    commands = {name.split(" ")[1] for name in signatures if " " in name}
    assert commands == {
        "compile", "serve", "chaos", "selftest", "yield", "reliability",
        "cost", "coverage", "verify", "diagnose", "repair-plan",
        "spare-mix", "campaign", "tech", "optimize",
    }
    assert {"bisramgen tech list", "bisramgen tech show",
            "bisramgen tech validate"} <= set(signatures)


def test_help_and_import_load_no_compiler():
    """``python -m repro --help``, every command's ``--help`` and
    ``import repro.cli`` load no numpy, scipy or compiler; the package
    exports still resolve."""
    argvs = [name.split()[1:] + ["--help"]
             for name, _ in _parsers(build_parser(), "bisramgen")]
    code = (
        "import contextlib, io, runpy, sys\n"
        "import repro.cli\n"
        f"for argv in {argvs!r}:\n"
        "    sys.argv = ['repro', *argv]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            runpy.run_module('repro', run_name='__main__')\n"
        "        except SystemExit as exit:\n"
        "            assert exit.code == 0, argv\n"
        "heavy = {'numpy', 'scipy', 'repro.core.compiler'}\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        "import repro\n"
        "from repro import RamConfig, compile_ram\n"
        "assert compile_ram is repro.core.compiler.compile_ram\n"
        "assert all(getattr(repro, n) is not None for n in repro.__all__)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_device_models_and_strict_compile_load_no_numpy(tmp_path):
    """``repro.memsim``, ``repro.bist`` and a strict compile never need
    numpy, scipy or the SPICE engine; the lazy ``repro.circuit``
    exports still resolve."""
    code = (
        "import sys\n"
        "import repro.memsim, repro.bist\n"
        "from repro.core.config import RamConfig\n"
        "from repro.service import ArtifactStore, compile_cached\n"
        "config = RamConfig(words=64, bpw=8, bpc=4, strap_every=8)\n"
        f"store = ArtifactStore({str(tmp_path)!r})\n"
        "compile_cached(config, store=store, signoff='strict')\n"
        "numeric = {m for m in sys.modules\n"
        "           if m.split('.')[0] in ('numpy', 'scipy')\n"
        "           or m.startswith('repro.spice')}\n"
        "assert not numeric, sorted(numeric)[:5]\n"
        "import repro.circuit\n"
        "assert all(getattr(repro.circuit, n) is not None\n"
        "           for n in repro.circuit.__all__)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
