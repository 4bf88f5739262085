"""Smoke tests of the performance harness itself.

    python3 -m pytest benchmarks/perf/test_perf_harness.py

The smoke run compiles one small macro cold, so the module takes about
a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import compare
import run
from probe import NOMINAL_S, Probe
from tracer import Tracer
from workloads import PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text())


def _spec() -> dict:
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_emits_every_metric_with_a_unit(smoke):
    spec = _spec()
    assert set(smoke["workloads"]) == set(WORKLOADS)
    for name, rec in smoke["workloads"].items():
        assert rec["failed"] == 0, rec["errors"]
        assert rec["end_to_end"]["error_rate"]["median"] == 0
        for m in spec["end_to_end"]:
            got = rec["end_to_end"][m["name"]]
            assert got["unit"] == m["unit"] and got["n"] == 1
            assert got["median"] > 0, (name, m["name"])
        for m in spec["per_layer"]:
            assert rec["per_layer"][m["name"]]["unit"] == m["unit"]
    warm = smoke["workloads"]["compile_warm"]["end_to_end"]
    assert warm["scaled_latency_p95_s"]["median"] > 0


def test_trace_files_parse_as_chrome_trace_events(smoke):
    for name in WORKLOADS:
        doc = json.loads((run.OUT / f"trace_{name}.json").read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "op" for e in events)
        for event in events:
            assert event["ph"] in ("X", "C", "M") and "pid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
            if event["ph"] == "C":
                assert set(event["args"]) == {"calls", "total_ms"}
    selftest = json.loads((run.OUT / "trace_selftest.json").read_text())
    assert any(e["ph"] == "C" and e["name"] == "bist.trpla_eval"
               for e in selftest["traceEvents"])


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_the_parent_total():
    ns = types.SimpleNamespace()
    ns.inner = lambda: _spin(0.002)

    def outer():
        _spin(0.001)
        ns.inner()
        ns.inner()

    ns.outer = outer
    original = ns.outer
    tracer = Tracer()
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner", hot=True)
    ns.inner()  # outside the traced operation: not counted
    tracer.call("op", lambda: ns.outer())
    tracer.close()
    stats = tracer.stats
    assert ns.outer is original
    assert stats["inner"].calls == 2
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s)
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(stats["op"].total_s, rel=1e-9)
    assert stats["op"].total_s >= 0.005


def test_probe_scales_by_the_probes_around_an_operation():
    probe = Probe()
    probe.start()
    _spin(0.3)
    probe.stop()
    assert probe.durations and probe.spent_s == sum(probe.durations)
    probe.starts = [0.0, 1.0, 5.0]
    probe.durations = [NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S]
    # Only the probe at 1.0 is within the window: the host ran at half
    # speed, so 2 s of wall time is 1 s at nominal speed.
    assert probe.scaled(0.9, 1.1, 2.0) == pytest.approx(1.0)
    assert probe.scaled(-0.1, 1.1, 2.0) == pytest.approx(1.5)
    # No probe in the window: the nearest one (at 5.0) counts.
    assert probe.scaled(3.0, 3.1, 1.0) == pytest.approx(1.0)


def test_metric_names_and_benchmark_spec_agree():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better)
            for name, (unit, better, _) in PER_LAYER.items()}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.EXTRA_END_TO_END) + ["error_rate"]
    assert all(NAME.fullmatch(name) for name in names)


def test_compare_verdicts_and_pairing_rule():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    slower = [x * 1.5 for x in steady]
    faster = [x * 0.8 for x in steady]
    noisy = [1.0, 2.0, 0.5, 1.5, 1.0, 2.5, 0.7, 1.0, 1.8, 0.6]
    bound = 0.1
    assert compare.verdict("latency_p50_s", steady, steady, "lower",
                           bound) == "within bound"
    assert compare.verdict("latency_p50_s", steady, slower, "lower",
                           bound) == "regressed"
    assert compare.verdict("latency_p50_s", steady, noisy, "lower",
                           bound) == "unresolved"
    assert compare.verdict("error_rate", [0.0], [0.1], "lower",
                           0.0) == "regressed"
    alternating = [float(i) for i in range(10)]
    b_first = [t - 0.5 if i % 2 else t + 0.5
               for i, t in enumerate(alternating)]
    assert compare.gain(steady, faster, "lower", alternating,
                        b_first).startswith("gain")
    assert compare.gain(steady, faster, "lower", alternating,
                        [t + 0.5 for t in alternating]).startswith("no claim")
    a_first_then_b_first = [t + 0.5 if i < 5 else t - 0.5
                            for i, t in enumerate(alternating)]
    assert compare.gain(steady, faster, "lower", alternating,
                        a_first_then_b_first).startswith("no claim")
    assert compare.gain(steady[:9], faster[:9], "lower", None,
                        None).startswith("no claim")
