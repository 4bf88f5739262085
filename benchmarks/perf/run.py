"""BISRAMGEN performance benchmark: end-to-end and per-layer metrics.

One measurement of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/perf/run.py --workload selftest --seed 3 \\
        --seconds 16 --trace 0

logs progress on stderr and prints, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The suite: ``SUITE_REPS`` measurements of every workload, interleaved
round-robin so that host noise spreads evenly, measurement ``i`` on
seed ``--seed + i``, then one traced measurement per workload::

    python3 benchmarks/perf/run.py --seed 1 --out results.json

prints every metric by name with its unit and sample count and writes
them as JSON for ``compare.py``.  ``--smoke`` shrinks every workload to
one small measurement.  Both forms exit non-zero when an output check
fails.

All load comes from one child process at a time, single-threaded; the
parent only waits.  Everything the runs write stays under ``out/``
next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import PER_LAYER, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD = HERE / "workloads.py"
CHILD_TIMEOUT_S = 170

#: End-to-end metrics every workload reports, the ``--trace 0`` line:
#: name -> (unit, better).  Their bounds are in ``BENCHMARK.json``.
#: ``scaled_`` times are at the nominal host speed of ``probe.py``.
END_TO_END = {
    "scaled_latency_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: End-to-end metrics that only the results file and ``compare.py``
#: carry: name -> (unit, better, workloads, bound).  The wall-time
#: median moves with the host's speed by more than any bound the
#: benchmark may set; a p95 needs at least ten samples beyond it; only
#: the simulator workloads simulate memory operations.
EXTRA_END_TO_END = {
    "latency_p50_s": ("s", "lower", ("compile_cold", "compile_warm",
                                     "selftest", "repair_campaign"), 0.25),
    "scaled_latency_p95_s": ("s", "lower", ("compile_warm",), 0.2),
    "scaled_sim_kops_per_s": ("kops/s", "higher",
                              ("selftest", "repair_campaign"), 0.2),
}
#: Set-ups per measurement; ``setup_s`` is their median.
SETUPS = 5
#: Children a measurement's time is split over.
CHILDREN = 4
#: Measurements of each workload in the suite: ten, as the pairing
#: rule and a ten-seed spread need.
SUITE_REPS = 10


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def summarize(samples: List[float]) -> Dict[str, Optional[float]]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = samples[0] if samples else None
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


# -- children -----------------------------------------------------------------


def spawn(workload: str, inputs: dict, rep: int, ops: int,
          budget_s: float = 0.0, trace_path: Optional[Path] = None) -> dict:
    """Run one child to completion and return its result record."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=workdir,
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec = {"workload": workload, "inputs": inputs, "rep": rep, "ops": ops,
            "budget_s": budget_s, "workdir": workdir,
            "trace_path": str(trace_path) if trace_path else None}
    started = time.time()
    try:
        spec["spawned_at"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(spec),
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(HERE),
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _crashed(f"child timed out after {CHILD_TIMEOUT_S} s", started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _crashed(f"child exited with code {proc.returncode}", started)
    result = json.loads(lines[-1])
    result["started"] = started
    return result


def _crashed(reason: str, started: float) -> dict:
    return {"setup_s": None, "samples": [], "scaled": [], "rss_mb": None,
            "attempted": 1, "failed": 1, "errors": [reason], "counts": {},
            "sim_ops": 0, "started": started}


# -- one measurement ----------------------------------------------------------


def end_to_end(name: str, children: List[dict], setups: List[float]
               ) -> Dict[str, dict]:
    """The end-to-end readings of one measurement's children."""
    timed = [c for c in children if c["samples"]]
    wall = [x for c in timed for x in c["samples"]]
    scaled = [x for c in timed for x in c["scaled"]]
    values = {
        "scaled_latency_p50_s": (statistics.median(scaled)
                                 if scaled else None),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": max((c["rss_mb"] for c in timed), default=None),
        "latency_p50_s": statistics.median(wall) if wall else None,
        "scaled_latency_p95_s": (statistics.quantiles(scaled, n=20)[18]
                                 if len(scaled) >= 200 else None),
        "scaled_sim_kops_per_s": (sum(c["sim_ops"] for c in timed)
                                  / sum(scaled) / 1e3 if scaled else None),
    }
    metrics = dict(END_TO_END)
    metrics.update((m, (unit, better))
                   for m, (unit, better, workloads, _) in
                   EXTRA_END_TO_END.items() if name in workloads)
    return {m: {"unit": unit, "better": better, "value": values[m]}
            for m, (unit, better) in metrics.items()}


def per_layer(name: str, traced: dict, untraced: dict) -> Dict[str, dict]:
    """Per-layer metrics of one traced child; 0 where a layer is idle."""
    layers = dict(traced.get("layers", {}))
    if traced["samples"] and untraced["samples"]:
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced["samples"])
            / statistics.median(untraced["samples"]) - 1.0)
    return {metric: {"unit": unit, "better": better,
                     "value": layers.get(metric, 0),
                     "moves": list(moves.get(name, ()))}
            for metric, (unit, better, moves) in PER_LAYER.items()}


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            smoke: bool = False) -> dict:
    """One measurement of one workload.

    Untraced, it runs children with a ``seconds / CHILDREN`` budget each
    until ``seconds`` of operations are measured, then set-up-only
    children until there are ``SETUPS`` set-ups.  Traced, it runs one
    untraced and one traced child of the workload's minimum length, so
    that the tracing overhead compares like with like.
    """
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, smoke)
    traced = None
    if trace:
        children = [spawn(name, inputs, 0, workload.ops)]
        traced = spawn(name, inputs, 0, workload.ops,
                       trace_path=OUT / f"trace_{name}.json")
    else:
        children = []
        while sum(sum(c["samples"]) for c in children) < seconds:
            children.append(spawn(name, inputs, len(children), workload.ops,
                                  budget_s=seconds / CHILDREN))
            if children[-1]["failed"]:
                break
    setups = [c["setup_s"] for c in children]
    while not trace and len(setups) < SETUPS and None not in setups:
        setups.append(spawn(name, inputs, len(setups), 0)["setup_s"])
    everyone = children + ([traced] if traced else [])
    result = {
        "seed": seed,
        "attempted": sum(c["attempted"] for c in everyone),
        "failed": sum(c["failed"] for c in everyone),
        "errors": [e for c in everyone for e in c["errors"]],
        "started": children[0]["started"],
        "counts": children[0]["counts"],
        "end_to_end": end_to_end(name, children,
                                 [s for s in setups if s is not None]),
    }
    if traced is not None:
        result["per_layer"] = per_layer(name, traced, children[0])
        if traced["counts"] != children[0]["counts"]:
            result["failed"] += 1
            result["errors"].append(
                f"traced run changed the outputs: {traced['counts']} vs "
                f"{children[0]['counts']}")
    log(f"{name} seed {seed}{' traced' if trace else ''}: "
        f"{result['attempted']} ops, {result['failed']} failed")
    return result


# -- results ------------------------------------------------------------------


def aggregate(name: str, measurements: List[dict],
              traced: Optional[dict] = None) -> dict:
    """One workload's results: every end-to-end metric with one sample
    per measurement, the traced measurement's per-layer metrics, and the
    exact counts, errors and start times of each measurement."""
    everyone = measurements + ([traced] if traced else [])
    failed = sum(m["failed"] for m in everyone)
    attempted = sum(m["attempted"] for m in everyone)
    end = {}
    for m in measurements:
        for metric, reading in m["end_to_end"].items():
            slot = end.setdefault(metric, {"unit": reading["unit"],
                                           "better": reading["better"],
                                           "samples": []})
            if reading["value"] is not None:
                slot["samples"].append(reading["value"])
    for slot in end.values():
        slot.update(n=len(slot["samples"]), **summarize(slot["samples"]))
    end["error_rate"] = {"unit": "ratio", "better": "lower", "n": 1,
                         "samples": [failed / max(attempted, 1)],
                         **summarize([failed / max(attempted, 1)])}
    rec = {
        "why": WORKLOADS[name].why,
        "seeds": [m["seed"] for m in measurements],
        "attempted": attempted,
        "failed": failed,
        "errors": [e for m in everyone for e in m["errors"]],
        "started": [m["started"] for m in measurements],
        "counts": [m["counts"] for m in measurements],
        "end_to_end": end,
    }
    if traced is not None:
        rec["per_layer"] = traced["per_layer"]
    return rec


def suite(seed: int, seconds: float, smoke: bool) -> Dict[str, dict]:
    """``SUITE_REPS`` measurements of every workload (one with
    ``smoke``), round-robin, then one traced measurement each."""
    measurements: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
    for rep in range(1 if smoke else SUITE_REPS):
        for name in WORKLOADS:
            measurements[name].append(
                measure(name, seed + rep, seconds, smoke=smoke))
    return {name: aggregate(name, measurements[name],
                            measure(name, seed, seconds, True, smoke))
            for name in WORKLOADS}


def print_table(results: Dict[str, dict]) -> None:
    for name, rec in results.items():
        print(f"== {name} (seeds {rec['seeds']}, {rec['attempted']} ops, "
              f"{rec['failed']} failed)")
        for metric, m in rec["end_to_end"].items():
            if m["median"] is None:
                print(f"  {metric:<28} {'-':>14} {m['unit']}")
                continue
            print(f"  {metric:<28} {m['median']:>14.6g} {m['unit']:<7} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
        for metric, m in rec.get("per_layer", {}).items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
        for error in rec["errors"]:
            print(f"  ERROR {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measured time per measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one small measurement per workload")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no BISRAMGEN sources at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))

    started = time.time()
    if args.workload:
        one = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke)
        results = {args.workload: aggregate(
            args.workload, [] if args.trace else [one],
            one if args.trace else None)}
    else:
        results = suite(args.seed, args.seconds, args.smoke)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "python": sys.version, "nproc": os.cpu_count(),
            "elapsed_s": time.time() - started, "workloads": results,
        }, indent=1) + "\n")
    failed = sum(rec["failed"] for rec in results.values())
    if not args.workload:
        print_table(results)
        return 1 if failed else 0
    for error in one["errors"]:
        log(f"error: {error}")
    readings = one["per_layer"] if args.trace else {
        m: one["end_to_end"][m] for m in END_TO_END}
    print(json.dumps({
        "correct": failed == 0, "attempted": one["attempted"],
        "failed": failed,
        "metrics": {m: {"value": r["value"], "unit": r["unit"]}
                    for m, r in readings.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
