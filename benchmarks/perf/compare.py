"""Compare two sets of benchmark results, A (the parent) against B.

    python3 benchmarks/perf/compare.py A.json B.json

A and B are files written by ``run.py --out``, or directories of such
files, whose samples are pooled in file-name order.  For every workload
and end-to-end metric the script prints both sides' median and
quartiles and a verdict under the bounds in ``BENCHMARK.json``:

* ``within bound``: B is no worse than A by more than the bound;
* ``regressed``: B is worse than A by more than the bound;
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, and not every B sample beats every A sample.

A gain is claimed only by the pairing rule: at least ten pairs
(measurement ``i`` of A with measurement ``i`` of B, on the same seed),
alternating which side ran first,
B winning at least nine tenths of them, ties counting for neither, and
the medians differing by more than A's quartile distance.

Exact counts (clocks, operations, DRC cell counts, bytes) must repeat
exactly on the same seed; every one that differs is listed.  The exit
code is 1 when anything regressed or a count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import EXTRA_END_TO_END, summarize

ROOT = Path(__file__).resolve().parents[2]
#: Units of per-layer metrics that are exact counts, not timings.
EXACT_UNITS = ("count", "bytes")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, dict]:
    """Per-workload results of one file, or pooled over a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no results in {path}")
    merged: Dict[str, dict] = {}
    for file in files:
        doc = json.loads(file.read_text())
        for name, rec in doc["workloads"].items():
            into = merged.setdefault(name, {
                "end_to_end": {}, "seeds": [], "started": [], "counts": [],
                "per_layer": {}})
            for metric, m in rec["end_to_end"].items():
                slot = into["end_to_end"].setdefault(
                    metric, {"unit": m["unit"], "better": m["better"],
                             "samples": []})
                slot["samples"] += m["samples"]
            for key in ("seeds", "started", "counts"):
                into[key] += rec[key]
            if not into["per_layer"]:
                into["per_layer"] = rec.get("per_layer", {})
    return merged


def bounds() -> Dict[str, float]:
    """Regression bounds: ``BENCHMARK.json``'s, those of the metrics
    only the results file carries, and 0 for the error rate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out.update((m, bound) for m, (*_, bound) in EXTRA_END_TO_END.items())
    out["error_rate"] = 0.0
    return out


def _worse(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _spread(stats: Dict[str, float]) -> float:
    median = stats["median"]
    return (stats["q3"] - stats["q1"]) / abs(median) if median else 0.0


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(metric: str, a: List[float], b: List[float], better: str,
            bound: float) -> str:
    if metric == "error_rate":
        return "regressed" if max(b) > max(a) else "within bound"
    sa, sb = summarize(a), summarize(b)
    if all(_beats(y, x, better) for x in a for y in b):
        return "within bound"
    if _spread(sa) > bound or _spread(sb) > bound:
        return "unresolved"
    if _worse(sa["median"], sb["median"], better) > bound:
        return "regressed"
    return "within bound"


def gain(a: List[float], b: List[float], better: str,
         started_a: Optional[List[float]], started_b: Optional[List[float]]
         ) -> str:
    """The pairing rule's verdict on a claimed gain of B over A."""
    n = min(len(a), len(b))
    if n < MIN_PAIRS:
        return f"no claim ({n} pairs < {MIN_PAIRS})"
    if started_a and started_b and len(started_a) >= n \
            and len(started_b) >= n:
        a_first = [started_a[i] < started_b[i] for i in range(n)]
        if any(x == y for x, y in zip(a_first, a_first[1:])):
            return "no claim (sides did not alternate)"
    wins = sum(_beats(b[i], a[i], better) for i in range(n))
    sa, sb = summarize(a), summarize(b)
    if wins >= WIN_SHARE * n and \
            abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]:
        return f"gain ({wins}/{n} pairs)"
    return f"no gain ({wins}/{n} pairs)"


def count_differences(name: str, a: dict, b: dict) -> List[str]:
    out = []
    for seed, ca, cb in zip(a["seeds"], a["counts"], b["counts"]):
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                out.append(f"{name} seed {seed}: {key} {ca.get(key)} -> "
                           f"{cb.get(key)}")
    for metric, ma in a["per_layer"].items():
        mb = b["per_layer"].get(metric)
        if ma["unit"] in EXACT_UNITS and mb and ma["value"] != mb["value"]:
            out.append(f"{name}: {metric} {ma['value']} -> {mb['value']}")
    return out


def _fmt(stats: Dict[str, float]) -> str:
    return (f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"
            if stats["median"] is not None else "-")


def compare(a: Dict[str, dict], b: Dict[str, dict]) -> int:
    limits = bounds()
    bad = 0
    print(f"{'workload':<16} {'metric':<21} {'A median [q1, q3]':<37} "
          f"{'B median [q1, q3]':<37} {'change':>8}  verdict / gain")
    differences: List[str] = []
    for name, ra in a.items():
        rb = b.get(name)
        if rb is None:
            continue
        for metric, ma in ra["end_to_end"].items():
            mb = rb["end_to_end"].get(metric)
            if mb is None or not ma["samples"] or not mb["samples"]:
                continue
            sa, sb = summarize(ma["samples"]), summarize(mb["samples"])
            what = verdict(metric, ma["samples"], mb["samples"],
                           ma["better"], limits[metric])
            bad += what == "regressed"
            change = (f"{100 * (sb['median'] / sa['median'] - 1):+.1f}%"
                      if sa["median"] else "")
            claim = gain(ma["samples"], mb["samples"], ma["better"],
                         ra["started"], rb["started"])
            print(f"{name:<16} {metric:<21} "
                  f"{_fmt(sa) + ' n=' + str(len(ma['samples'])):<37} "
                  f"{_fmt(sb) + ' n=' + str(len(mb['samples'])):<37} "
                  f"{change:>8}  {what} / {claim}")
        if ra["seeds"] == rb["seeds"]:
            differences += count_differences(name, ra, rb)
        else:
            print(f"{name}: seeds differ, exact counts not compared")
    print("exact counts: " + ("identical" if not differences else
                              f"{len(differences)} differ"))
    for line in differences:
        print(f"  {line}")
    return 1 if bad or differences else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent results (file or dir)")
    parser.add_argument("b", type=Path, help="change results (file or dir)")
    args = parser.parse_args(argv)
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())
