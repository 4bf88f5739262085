"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


CFG = ["--words", "64", "--bpw", "8", "--bpc", "4", "--strap-every", "8"]


class TestCompile:
    def test_basic(self, capsys):
        code, out = run(capsys, "compile", *CFG)
        assert code == 0
        assert "read access time" in out
        assert "overhead" in out

    def test_ascii(self, capsys):
        code, out = run(capsys, "compile", *CFG, "--ascii")
        assert code == 0
        assert "array" in out

    def test_artifacts(self, capsys, tmp_path):
        svg = tmp_path / "m.svg"
        cif = tmp_path / "m.cif"
        code, out = run(
            capsys, "compile", *CFG,
            "--svg", str(svg), "--cif", str(cif),
            "--control-dir", str(tmp_path / "ctl"),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert "DS " in cif.read_text()
        assert (tmp_path / "ctl" / "trpla_and.plane").exists()

    def test_invalid_config_reports_error(self, capsys):
        code = main(["compile", "--words", "63", "--bpw", "8",
                     "--bpc", "4"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCompileCache:
    """``compile --cache-dir``: the content-addressed artifact store
    must serve byte-identical artifacts to an uncached build."""

    def _artifacts(self, capsys, tmp_path, label, *extra):
        cif = tmp_path / f"{label}.cif"
        ctl = tmp_path / f"{label}-ctl"
        code, out = run(capsys, "compile", *CFG,
                        "--cif", str(cif), "--control-dir", str(ctl),
                        *extra)
        assert code == 0
        return out, {
            "cif": cif.read_bytes(),
            "and": (ctl / "trpla_and.plane").read_bytes(),
            "or": (ctl / "trpla_or.plane").read_bytes(),
        }

    def test_cached_and_uncached_are_byte_identical(self, capsys,
                                                    tmp_path):
        cache = str(tmp_path / "cache")
        plain_out, plain = self._artifacts(capsys, tmp_path, "plain")
        miss_out, miss = self._artifacts(capsys, tmp_path, "miss",
                                         "--cache-dir", cache)
        hit_out, hit = self._artifacts(capsys, tmp_path, "hit",
                                       "--cache-dir", cache)
        assert "cache MISS" in miss_out
        assert "cache HIT" in hit_out
        assert "cache HIT" not in plain_out
        assert "cache MISS" not in plain_out
        assert plain == miss == hit

    def test_cache_hit_prints_same_datasheet(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code, first = run(capsys, "compile", *CFG,
                          "--cache-dir", cache)
        code, second = run(capsys, "compile", *CFG,
                           "--cache-dir", cache)
        assert code == 0
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("cache ")]
        assert strip(first) == strip(second)
        assert "read access time" in second

    def test_no_cache_skips_the_store(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run(capsys, "compile", *CFG, "--cache-dir", cache)
        code, out = run(capsys, "compile", *CFG,
                        "--cache-dir", cache, "--no-cache")
        assert code == 0
        assert "cache HIT" not in out

    def test_render_flags_keep_the_store_warm(self, capsys, tmp_path):
        """--ascii takes the direct build path but still publishes, so
        the next cached run hits."""
        cache = str(tmp_path / "cache")
        code, out = run(capsys, "compile", *CFG,
                        "--cache-dir", cache, "--ascii")
        assert code == 0
        assert "array" in out
        code, out = run(capsys, "compile", *CFG, "--cache-dir", cache)
        assert code == 0
        assert "cache HIT" in out

    def test_different_geometry_misses(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run(capsys, "compile", *CFG, "--cache-dir", cache)
        code, out = run(capsys, "compile", "--words", "64", "--bpw",
                        "8", "--bpc", "4", "--strap-every", "8",
                        "--spares", "8", "--cache-dir", cache)
        assert code == 0
        assert "cache MISS" in out


class TestSelftest:
    def test_clean(self, capsys):
        code, out = run(capsys, "selftest", *CFG)
        assert code == 0
        assert "REPAIRED" in out

    def test_with_defects(self, capsys):
        code, out = run(capsys, "selftest", *CFG,
                        "--defects", "2", "--seed", "4")
        assert "injected 2 defects" in out

    def test_hopeless_defects_fail(self, capsys):
        code, out = run(capsys, "selftest", *CFG,
                        "--defects", "60", "--seed", "1",
                        "--max-cycles", "2")
        assert code == 1
        assert "UNSUCCESSFUL" in out


class TestSupervisedSelftest:
    def test_retries_repair_path(self, capsys):
        code, out = run(capsys, "selftest", *CFG,
                        "--defects", "2", "--seed", "4",
                        "--retries", "3")
        assert code == 0
        assert "REPAIRED" in out
        assert "spare(s)" in out
        assert "2-of-5 confirmation" in out

    def test_custom_confirm_spec(self, capsys):
        code, out = run(capsys, "selftest", *CFG,
                        "--defects", "2", "--seed", "4",
                        "--retries", "2", "--confirm", "3/7")
        assert code == 0
        assert "3-of-7 confirmation" in out

    def test_bad_confirm_spec_is_config_error(self, capsys):
        code = main(["selftest", *CFG, "--retries", "2",
                     "--confirm", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "N/M" in err

    def test_inverted_confirm_spec_rejected(self, capsys):
        code = main(["selftest", *CFG, "--retries", "2",
                     "--confirm", "6/3"])
        assert code == 2

    def test_hopeless_damage_degrades(self, capsys):
        code, out = run(capsys, "selftest", *CFG,
                        "--defects", "60", "--seed", "1",
                        "--retries", "2")
        assert code == 1
        assert "DEGRADED" in out


class TestAnalyses:
    def test_yield(self, capsys):
        code, out = run(capsys, "yield", *CFG, "--defects", "0,5")
        assert code == 0
        assert "0 spares" in out and "1.0000" in out

    def test_reliability(self, capsys):
        code, out = run(capsys, "reliability", *CFG, "--years", "1,5")
        assert code == 0
        assert "lambda" in out

    def test_cost_all(self, capsys):
        code, out = run(capsys, "cost")
        assert code == 0
        assert "TI SuperSPARC" in out

    def test_cost_single(self, capsys):
        code, out = run(capsys, "cost", "--processor", "MIPS R4400")
        assert code == 0
        assert "MIPS R4400" in out
        assert "Intel486DX2" not in out

    def test_coverage_known_march(self, capsys):
        code, out = run(capsys, "coverage", "--march", "MATS+",
                        "--samples", "4")
        assert code == 0
        assert "data_retention" in out

    def test_coverage_custom_notation(self, capsys):
        code, out = run(
            capsys, "coverage", "--march", "m(w0); u(r0,w1); d(r1)",
            "--samples", "4",
        )
        assert code == 0

    def test_coverage_bad_notation(self, capsys):
        code = main(["coverage", "--march", "zz(!!)"])
        assert code == 2

    def test_optimize(self, capsys):
        code, out = run(
            capsys, "optimize", "--words", "1024", "--bpw", "16",
            "--bpc", "4", "--defects", "3",
        )
        assert code == 0
        assert "recommended" in out


class TestDiagnose:
    def test_repairable_damage(self, capsys):
        code, out = run(capsys, "diagnose", *CFG,
                        "--defects", "2", "--seed", "3")
        assert "diagnosis:" in out
        assert code in (0, 1)

    def test_clean_device(self, capsys):
        code, out = run(capsys, "diagnose", *CFG, "--defects", "0")
        assert code == 0
        assert "0 comparator hits" in out


class TestVerify:
    def test_signoff_clean(self, capsys):
        code, out = run(capsys, "verify", *CFG)
        assert code == 0
        assert "CLEAN" in out
        assert out.count("PASS") == 4

    def test_signoff_json(self, capsys):
        import json

        code, out = run(capsys, "verify", *CFG, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["clean"] is True
        assert {r["checker"] for r in report["results"]} == {
            "drc", "lvs", "control"}

    def test_cif_clean_and_corrupt(self, capsys, tmp_path):
        cif = tmp_path / "m.cif"
        code, _ = run(capsys, "compile", *CFG, "--cif", str(cif))
        assert code == 0
        code, out = run(capsys, "verify", *CFG, "--cif", str(cif))
        assert code == 0
        assert "CLEAN" in out

        # Stretch one box: the readback must fail DRC with exit 3.
        lines = cif.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("B "):
                _, w, h, cx, cy = line.rstrip(";").split()
                lines[i] = f"B {int(w) * 6} {h} {cx} {cy};"
                break
        cif.write_text("\n".join(lines))
        code, out = run(capsys, "verify", *CFG, "--cif", str(cif))
        assert code == 3
        assert "FAIL" in out


class TestCampaign:
    def test_montecarlo_campaign(self, capsys):
        code, out = run(
            capsys, "campaign", "--driver", "montecarlo",
            "--words", "256", "--bpw", "4", "--bpc", "4",
            "--spares", "4", "--defects", "3", "--trials", "4000",
            "--shards", "4", "--workers", "2", "--seed", "7",
        )
        assert code == 0
        assert "4/4 shard(s) completed" in out
        assert "aggregates:" in out
        assert "wilson_low" in out

    def test_checkpoint_and_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "mc.jsonl"
        argv = [
            "campaign", "--driver", "montecarlo",
            "--words", "256", "--bpw", "4", "--bpc", "4",
            "--spares", "4", "--defects", "3", "--trials", "2000",
            "--shards", "4", "--seed", "7",
            "--checkpoint", str(checkpoint),
        ]
        code, first = run(capsys, *argv)
        assert code == 0
        code, second = run(capsys, *argv, "--resume")
        assert code == 0
        assert "4 resumed from checkpoint" in second
        agg = [l for l in first.splitlines() if "aggregates:" in l]
        assert agg == [l for l in second.splitlines()
                       if "aggregates:" in l]

    def test_sizing_campaign(self, capsys):
        code, out = run(
            capsys, "campaign", "--driver", "sizing",
            "--widths", "0.9", "--shards", "1",
        )
        assert code == 0
        assert "ratio_min" in out

    def test_signoff_campaign(self, capsys):
        code, out = run(
            capsys, "campaign", "--driver", "signoff",
            "--words", "32", "--bpw", "4", "--bpc", "2",
            "--spares", "4", "--processes", "cda07",
        )
        assert code == 0
        assert "1/1 shard(s) completed" in out
        assert '"clean_nodes": 1' in out


class TestErrorExits:
    """Anticipated failures exit 2 with one ``error: ...`` line."""

    def _error(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback
        return err

    def test_verify_missing_cif(self, capsys, tmp_path):
        err = self._error(capsys, "verify", *CFG,
                          "--cif", str(tmp_path / "missing.cif"))
        assert "missing.cif" in err

    def test_verify_missing_control_dir(self, capsys, tmp_path):
        err = self._error(capsys, "verify", *CFG,
                          "--control-dir", str(tmp_path / "missing"))
        assert "trpla_and.plane" in err

    def test_campaign_unwritable_checkpoint(self, capsys, tmp_path):
        self._error(capsys, "campaign", "--trials", "100",
                    "--shards", "2", "--checkpoint",
                    str(tmp_path / "missing" / "x.jsonl"))

    def test_cost_unknown_processor(self, capsys):
        err = self._error(capsys, "cost", "--processor", "bogus")
        assert "'bogus'" in err and "TI SuperSPARC" in err

    @pytest.mark.parametrize("command",
                             ["selftest", "diagnose", "repair-plan"])
    def test_unknown_deck(self, capsys, command):
        err = self._error(capsys, command, *CFG, "--process", "bogus")
        assert "unknown process 'bogus'" in err

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_serve_port_out_of_range(self, capsys, port):
        err = self._error(capsys, "serve", "--port", port)
        assert "0..65535" in err


class TestSimulationCommandsCompileNothing:
    """selftest, diagnose and repair-plan simulate the configuration
    alone: no layout is generated on their path."""

    @pytest.fixture(autouse=True)
    def no_compile(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a simulation command compiled a layout")

        monkeypatch.setattr("repro.core.compiler.compile_ram", refuse)
        monkeypatch.setattr("repro.core.compiler.BISRAMGen.build", refuse)

    @pytest.mark.parametrize("argv", [
        ["selftest", *CFG, "--defects", "2", "--seed", "4"],
        ["selftest", *CFG, "--defects", "2", "--seed", "4",
         "--retries", "3"],
        ["diagnose", *CFG, "--defects", "2", "--seed", "3"],
        ["repair-plan", *CFG, "--spare-cols", "2", "--defects", "4",
         "--seed", "1", "--column-weight", "0.2"],
    ])
    def test_runs_without_compiling(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code in (0, 1)
        assert "injected" in out

