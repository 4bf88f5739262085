"""The sweep-based net extractor equals the pairwise reference.

:mod:`tests.connectivity_reference` keeps the all-pairs abutment scan
and a breadth-first component search.
:func:`repro.pnr.connectivity.extract` must agree with it exactly on
assembled macros: the same abutments in the same order, the same feed-
through link count, the same components (singletons included) in the
same order, and therefore the same LVS findings and stats.  Drawn
parent-level shapes are covered by seeded random routing stubs under
both settings of the deck's ``touch.corner`` rule.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.config import RamConfig
from repro.core.floorplan import build_floorplan
from repro.geometry import Rect
from repro.pnr import abutting_ports, extract
from repro.tech import get_process
from repro.tech.rules import DesignRules
from repro.verify import lvs
from tests import connectivity_reference as ref
from tests.test_verify_lvs import SEEDS, random_config

CONFIGS = [random_config(seed) for seed in SEEDS] + [
    RamConfig(words=64, bpw=8, bpc=4, spares=4, strap_every=8),
    RamConfig(words=64, bpw=8, bpc=4, spares=4, strap_every=8, ports=2),
    RamConfig(words=256, bpw=16, bpc=4, spares=4, process="mos08"),
]


def _id(config):
    return (f"{config.words}x{config.bpw}b{config.bpc}-{config.process}"
            f"-s{config.strap_every}-p{config.ports}")


def _deck(name, corner_touch):
    process = get_process(name)
    if not corner_touch:
        rules = dict(process.rules.rules, **{"touch.corner": 0})
        process = replace(process, rules=DesignRules.absolute(
            process.rules.lambda_cu, rules))
    return process


def _assert_agree(top, config, process, monkeypatch):
    got = extract(top, process)
    want = ref.extract(top, process)
    assert got.abutments == want.abutments
    assert abutting_ports(top) == want.abutments
    assert got.links == want.links
    assert got.components == want.components

    findings, stats = lvs.check_connectivity(top, config, process)
    monkeypatch.setattr(lvs, "extract", ref.extract)
    assert (findings, stats) == lvs.check_connectivity(top, config, process)
    monkeypatch.undo()
    return findings


@pytest.mark.parametrize("config", CONFIGS, ids=_id)
def test_assembled_macro_agrees(config, monkeypatch):
    top = build_floorplan(config).top
    findings = _assert_agree(top, config, get_process(config.process),
                             monkeypatch)
    assert findings == []


@pytest.mark.parametrize("corner_touch", [True, False])
@pytest.mark.parametrize("seed", [1, 5, 6])
def test_drawn_stubs_agree(seed, corner_touch, monkeypatch):
    """Random metal stubs on a coarse grid around the array's top
    bit-line landings: they overlap, edge-abut, corner-meet and miss
    the landings and each other, so the shorts depend on the deck's
    corner rule and every one must match the reference."""
    config = RamConfig(words=32, bpw=4, bpc=2, spares=4, process="cda07")
    process = _deck(config.process, corner_touch)
    top = build_floorplan(config).top
    array = next(i for i in top.instances() if i.name == "array")
    landings = [p for p in array.ports()
                if p.name.startswith(("bl_t_", "blb_t_"))]
    xs = sorted({x + d for p in landings for x in (p.rect.x1, p.rect.x2)
                 for d in (-20, 0, 20)})
    ys = [landings[0].rect.y1 + 20 * k for k in range(-2, 3)]
    rng = random.Random(seed)
    for _ in range(24):
        i = rng.randrange(len(xs) - 1)
        j = min(len(xs) - 1, i + rng.randint(1, 3))
        a = rng.randrange(len(ys) - 1)
        b = rng.randint(a + 1, len(ys) - 1)
        top.add_shape(landings[0].layer, Rect(xs[i], ys[a], xs[j], ys[b]))
    findings = _assert_agree(top, config, process, monkeypatch)
    assert any(f.kind == "short" for f in findings)


def test_networkx_not_imported():
    """Net extraction needs no graph library: importing the compiler,
    place-and-route and signoff loads no networkx."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import repro.core.compiler, repro.pnr, repro.verify.signoff\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
