"""Technology-backend registry: discovery, validation, fingerprints.

These pin the registry-era identity contract: a deck is *data*, its
content fingerprint folds into every cache key, and a byte-identical
copy of a deck is the same deck no matter where the registry found it.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import RamConfig
from repro.core.errors import ConfigError, DescriptorError, ReproError
from repro.core.errors import UnknownProcessError
from repro.tech import get_process
from repro.techreg import (
    TechRegistry,
    check_descriptor,
    default_registry,
    load_descriptor,
    validate_descriptor,
)
from repro.techreg.descriptor import DESCRIPTOR_SUFFIXES

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGED = SRC / "repro" / "techreg" / "decks"
PACKAGED_NAMES = {"cda05", "cda07", "mos06", "mos08", "scn4m", "pfin7"}


@pytest.fixture
def fresh_registry(monkeypatch):
    """A fresh default registry per test; entry points off for hermeticity."""
    import repro.techreg.registry as regmod

    registry = TechRegistry(use_entry_points=False)
    monkeypatch.setattr(regmod, "_DEFAULT", registry)
    return registry


def _config(**overrides):
    params = dict(words=64, bpw=8, bpc=4, spares=4, strap_every=8)
    params.update(overrides)
    return RamConfig(**params)


def _packaged(name):
    """The parsed packaged descriptor of deck ``name``."""
    return json.loads((PACKAGED / f"{name}.json").read_text())


def _write_deck(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


class TestValidator:
    def _bad_deck(self, tmp_path):
        return _write_deck(tmp_path / "bad.json", {
            "tech": {"name": "2bad", "deck_type": "lambda",
                     "feature_um": -0.5, "metal_layers": 2, "vdd": 3.3},
            "rules": {"width.metal9": 3, "touch.corner_connects": 7},
        })

    def test_per_field_errors(self, tmp_path):
        desc = load_descriptor(self._bad_deck(tmp_path))
        problems = validate_descriptor(desc)
        fields = {p.field for p in problems}
        assert "tech.name" in fields
        assert "tech.feature_um" in fields
        assert "tech.metal_layers" in fields
        assert "rules.width.metal9" in fields
        assert "rules.touch.corner_connects" in fields
        assert "nmos" in fields and "pmos" in fields

    def test_check_descriptor_raises_with_fields(self, tmp_path):
        desc = load_descriptor(self._bad_deck(tmp_path))
        with pytest.raises(DescriptorError) as exc:
            check_descriptor(desc)
        assert exc.value.field_errors
        assert isinstance(exc.value, ReproError)

    def test_absolute_deck_missing_rule_named(self, tmp_path):
        deck = _packaged("pfin7")
        del deck["rules"]["width.poly"]
        path = _write_deck(tmp_path / "gap.json", deck)
        problems = validate_descriptor(load_descriptor(path))
        assert any("width.poly" in p.message for p in problems)

    def test_packaged_decks_validate_clean(self):
        decks = sorted(p for p in PACKAGED.iterdir()
                       if p.suffix in DESCRIPTOR_SUFFIXES)
        names = []
        for deck in decks:
            desc = load_descriptor(deck)
            assert validate_descriptor(desc) == [], deck.name
            names.append(desc.name)
        assert sorted(names) == sorted(PACKAGED_NAMES)

    def test_malformed_file_raises_descriptor_error(self, tmp_path):
        path = tmp_path / "junk.toml"
        path.write_text("this is [not toml")
        with pytest.raises(DescriptorError):
            load_descriptor(path)


class TestRegistry:
    def test_builtins_and_packaged_discovered(self, fresh_registry):
        names = fresh_registry.names()
        for name in ("cda05", "cda07", "mos06", "mos08",
                     "scn4m", "pfin7"):
            assert name in names

    def test_unknown_process_taxonomy(self, fresh_registry):
        with pytest.raises(UnknownProcessError) as exc:
            get_process("nope")
        assert isinstance(exc.value, ConfigError)
        assert isinstance(exc.value, KeyError)  # era compatibility
        assert "nope" in str(exc.value)
        assert "cda07" in str(exc.value)

    def test_search_dir_shadows_packaged(self, fresh_registry, tmp_path):
        shutil.copy(PACKAGED / "scn4m.json", tmp_path / "scn4m.json")
        fresh_registry.add_search_dir(tmp_path)
        row = {r["name"]: r for r in fresh_registry.entries()}["scn4m"]
        assert row["origin"] == "dir"
        assert str(tmp_path) in row["path"]

    def test_env_var_directory(self, fresh_registry, tmp_path,
                               monkeypatch):
        deck = _packaged("scn4m")
        deck["tech"]["name"] = "envdeck"
        _write_deck(tmp_path / "envdeck.json", deck)
        monkeypatch.setenv("REPRO_TECH_DIR", str(tmp_path))
        fresh_registry.rescan()
        assert get_process("envdeck").name == "envdeck"

    def test_scan_errors_are_not_fatal(self, fresh_registry, tmp_path):
        (tmp_path / "broken.toml").write_text("nope = [")
        fresh_registry.add_search_dir(tmp_path)
        assert "scn4m" in fresh_registry.names()
        assert fresh_registry.scan_errors

    def test_renamed_deck_stops_answering_to_its_old_name(
            self, fresh_registry, tmp_path):
        deck = _packaged("scn4m")
        deck["tech"]["name"] = "mydeck"
        path = _write_deck(tmp_path / "mydeck.json", deck)
        fresh_registry.add_search_dir(tmp_path)
        assert get_process("mydeck").name == "mydeck"
        deck["tech"]["name"] = "other"
        _write_deck(path, deck)
        with pytest.raises(UnknownProcessError):
            get_process("mydeck")
        assert "mydeck" not in fresh_registry.names()
        assert get_process("other").name == "other"

    def test_deleted_shadow_falls_back_to_packaged(self, fresh_registry,
                                                   tmp_path):
        shadow = tmp_path / "scn4m.json"
        shutil.copy(PACKAGED / "scn4m.json", shadow)
        fresh_registry.add_search_dir(tmp_path)
        get_process("scn4m")
        assert fresh_registry.descriptor("scn4m").source == str(shadow)
        shadow.unlink()
        assert get_process("scn4m").fingerprint() == \
            TestFingerprintIdentity.GOLDEN_FINGERPRINTS["scn4m"]
        assert fresh_registry.descriptor("scn4m").source == \
            str(PACKAGED / "scn4m.json")

    def test_toml_decks_without_tomllib_are_scan_warnings(self, tmp_path):
        """Python < 3.11 has no tomllib: a user's TOML deck drops out of
        the scan with a warning, and every packaged deck still loads."""
        (tmp_path / "tomldeck.toml").write_text(
            '[tech]\nname = "tomldeck"\ndeck_type = "lambda"\n'
            'feature_um = 0.4\nmetal_layers = 3\nvdd = 3.3\n'
            '[nmos]\nnode_um = 0.4\n[pmos]\nnode_um = 0.4\n'
            '[wire]\nr_ohm_sq = 0.06\nc_af_um = 80.0\n')
        blocked = "import sys; sys.modules['tomllib'] = None; "
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_TECH_DIR=str(tmp_path))
        golden = TestFingerprintIdentity.GOLDEN_FINGERPRINTS
        lookup = subprocess.run(
            [sys.executable, "-c", blocked +
             "from repro.tech import get_process; "
             f"names = {sorted(golden)!r}; "
             "print(*(get_process(n).fingerprint() for n in names))"],
            capture_output=True, text=True, env=env)
        assert lookup.returncode == 0, lookup.stderr
        assert lookup.stdout.split() == [golden[n] for n in sorted(golden)]
        listing = subprocess.run(
            [sys.executable, "-c", blocked +
             "from repro.cli import main; sys.exit(main(['tech', 'list']))"],
            capture_output=True, text=True, env=env)
        assert listing.returncode == 0, listing.stderr
        for name in PACKAGED_NAMES:
            assert name in listing.stdout
        assert "tomldeck" not in listing.stdout
        warning = [line for line in listing.stderr.splitlines()
                   if line.startswith("warning:")
                   and "tomldeck.toml" in line]
        assert warning and "Python 3.11" in warning[0], listing.stderr


class TestFingerprintIdentity:
    """The digest-stability corpus: what must and must not move keys."""

    GOLDEN_FINGERPRINTS = {
        "cda05": "181116bb20d4db39",
        "cda07": "b0ecee842b7dd852",
        "mos06": "4119a90e8af0cc75",
        "mos08": "c46e8ccd36529c68",
        "scn4m": "90c60e8261daff76",
        "pfin7": "b6f5c2c0e8d6ccf8",
    }

    def test_golden_deck_fingerprints(self, fresh_registry):
        for name, expected in self.GOLDEN_FINGERPRINTS.items():
            assert get_process(name).fingerprint() == expected, name

    def test_byte_identical_copy_is_digest_equal(self, fresh_registry,
                                                 tmp_path):
        baseline = _config(process="scn4m").digest()
        fp = get_process("scn4m").fingerprint()
        shutil.copy(PACKAGED / "scn4m.json", tmp_path / "scn4m.json")
        fresh_registry.add_search_dir(tmp_path)
        assert get_process("scn4m").fingerprint() == fp
        assert _config(process="scn4m").digest() == baseline

    def test_rule_edit_changes_digest_and_bundle_key(
            self, fresh_registry, tmp_path):
        from repro.service.bundle import bundle_key

        config = _config(process="scn4m")
        baseline_digest = config.digest()
        baseline_key = bundle_key(config)
        deck = _packaged("scn4m")
        assert deck["rules"]["width.metal4"] == 6
        deck["rules"]["width.metal4"] = 8
        _write_deck(tmp_path / "scn4m.json", deck)
        fresh_registry.add_search_dir(tmp_path)
        assert get_process("scn4m").fingerprint() != \
            self.GOLDEN_FINGERPRINTS["scn4m"]
        assert config.digest() != baseline_digest
        assert bundle_key(config) != baseline_key

    def test_provenance_edit_keeps_digest(self, fresh_registry,
                                          tmp_path):
        """Comments/metadata are not identity: only rules and device
        parameters fingerprint."""
        deck = _packaged("scn4m")
        deck["metadata"]["notes"].append("trailing note, not a rule")
        deck["metadata"]["provenance"] = "edited provenance"
        _write_deck(tmp_path / "scn4m.json", deck)
        fresh_registry.add_search_dir(tmp_path)
        assert get_process("scn4m").fingerprint() == \
            self.GOLDEN_FINGERPRINTS["scn4m"]

    def test_ports_are_digest_relevant(self, fresh_registry):
        assert _config(ports=1).digest() != _config(ports=2).digest()


class TestTechmatrixDriver:
    def test_spec_embeds_deck_fingerprints(self, fresh_registry):
        from repro.runtime.drivers import techmatrix_campaign

        spec = techmatrix_campaign(
            64, 8, 4, 4, processes=["cda07", "pfin7"], ports=(1, 2))
        assert spec.n_shards == 4
        fps = spec.params["deck_fingerprints"]
        assert fps["cda07"] == \
            TestFingerprintIdentity.GOLDEN_FINGERPRINTS["cda07"]
        assert fps["pfin7"] == \
            TestFingerprintIdentity.GOLDEN_FINGERPRINTS["pfin7"]

    def test_spec_rejects_bad_grids(self, fresh_registry):
        from repro.runtime.drivers import techmatrix_campaign

        with pytest.raises(ConfigError):
            techmatrix_campaign(64, 8, 4, 4, processes=[])
        with pytest.raises(ConfigError):
            techmatrix_campaign(64, 8, 4, 4, ports=(1, 3))

    def test_shard_grid_and_determinism(self, fresh_registry):
        from repro.runtime.drivers import (
            techmatrix_campaign,
            techmatrix_reduce,
            techmatrix_shard,
        )
        import numpy as np

        from repro.runtime.runner import ShardSpec

        def _shard(index, n_shards):
            return ShardSpec(index=index, n_shards=n_shards,
                             seed_seq=np.random.SeedSequence(0))

        spec = techmatrix_campaign(
            16, 4, 4, 4, processes=["cda07"], ports=(1, 2),
            strap_every=0)
        results = [
            techmatrix_shard(spec.params, _shard(i, spec.n_shards))
            for i in range(spec.n_shards)
        ]
        assert [(r["process"], r["ports"]) for r in results] == \
            [("cda07", 1), ("cda07", 2)]
        assert all(r["clean"] for r in results)
        rerun = techmatrix_shard(spec.params, _shard(1, 2))
        assert rerun["cif_sha256"] == results[1]["cif_sha256"]
        merged = techmatrix_reduce(results)
        assert merged["points"] == 2 and merged["clean_points"] == 2
        assert merged["cif_sha256"]["cda07/p2"] == \
            results[1]["cif_sha256"]


class TestCliSurface:
    def test_tech_list_and_validate(self, fresh_registry, capsys,
                                    tmp_path):
        from repro.cli import main

        assert main(["tech", "list"]) == 0
        out = capsys.readouterr().out
        assert "scn4m" in out and "pfin7" in out and "builtin" not in out
        origins = {row["name"]: row["origin"]
                   for row in fresh_registry.entries()}
        assert {origins[name] for name in PACKAGED_NAMES} == {"packaged"}
        bad = _write_deck(tmp_path / "bad.json", {
            "tech": {"name": "x", "deck_type": "lambda", "feature_um": 0.5,
                     "metal_layers": 3, "vdd": 5.0},
        })
        assert main(["tech", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "nmos" in err and "wire.r_ohm_sq" in err

    def test_tech_show_and_tech_dir(self, fresh_registry, capsys,
                                    tmp_path):
        from repro.cli import main

        deck = _packaged("scn4m")
        deck["tech"]["name"] = "clideck"
        _write_deck(tmp_path / "clideck.json", deck)
        assert main(["tech", "--tech-dir", str(tmp_path),
                     "show", "clideck"]) == 0
        out = capsys.readouterr().out
        assert "clideck" in out and "width.metal4" in out

    def test_unknown_process_exits_2_with_hint(self, fresh_registry,
                                               capsys):
        from repro.cli import main

        code = main(["compile", "--words", "64", "--bpw", "8",
                     "--bpc", "4", "--process", "missing"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing" in err and "available" in err
