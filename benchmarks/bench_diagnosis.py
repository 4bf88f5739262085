"""Fault-diagnosis accuracy campaign.

The diagnosis layer (cell / row / column classification from the BIST
failure log) exists so the repair allocator knows *before* burning
spares whether row redundancy can win — the paper's column-failure
caveat operationalised.  The bench measures classification accuracy
over randomized single-fault devices and verifies the repair verdict
matches the actual BIST/BISR outcome.
"""

import random

import pytest

from conftest import print_table
from repro.bist import IFA_9, BistScheduler
from repro.memsim import BisrRam, collect_fail_records, diagnose
from repro.memsim.faults import ColumnStuck, RowStuck, StuckAt

ROWS, BPW, BPC, SPARES = 12, 4, 4, 4


def classify_one(kind, rng):
    device = BisrRam(rows=ROWS, bpw=BPW, bpc=BPC, spares=SPARES)
    if kind == "cell":
        device.array.inject(StuckAt(
            device.array.cell_index(
                rng.randrange(ROWS), rng.randrange(BPW),
                rng.randrange(BPC),
            ),
            rng.randrange(2),
        ))
    elif kind == "row":
        device.array.inject(RowStuck(
            rng.randrange(ROWS), device.array.phys_cols,
            rng.randrange(2),
        ))
    else:
        device.array.inject(ColumnStuck(
            rng.randrange(device.array.phys_cols),
            device.array.total_rows, device.array.phys_cols,
            rng.randrange(2),
        ))
    records = collect_fail_records(IFA_9, device, bpw=BPW)
    verdict = diagnose(records, ROWS, BPW, BPC, SPARES)
    if verdict.column_faults:
        got = "column"
    elif verdict.row_faults:
        got = "row"
    elif verdict.cell_faults:
        got = "cell"
    else:
        got = "none"
    return got, verdict


def test_diagnosis_accuracy(benchmark):
    trials = 20

    def campaign():
        rng = random.Random(77)
        results = {}
        for kind in ("cell", "row", "column"):
            correct = 0
            for _ in range(trials):
                got, _ = classify_one(kind, rng)
                correct += got == kind
            results[kind] = correct / trials
        return results

    accuracy = benchmark.pedantic(campaign, rounds=1, iterations=1)
    print_table(
        f"Diagnosis accuracy ({trials} single-fault trials per class)",
        ["injected class", "classified correctly"],
        [[k, f"{v:.0%}"] for k, v in accuracy.items()],
    )
    assert accuracy["cell"] == 1.0
    assert accuracy["row"] == 1.0
    assert accuracy["column"] == 1.0


def test_diagnosis_verdict_matches_bist_outcome(benchmark):
    """The diagnosis's repairability prediction must agree with the
    actual BIST/BISR run on the same fault pattern."""

    def campaign():
        rng = random.Random(13)
        agreements = 0
        trials = 20
        for _ in range(trials):
            device = BisrRam(rows=ROWS, bpw=BPW, bpc=BPC, spares=SPARES)
            for _ in range(rng.randrange(1, 7)):
                kind = rng.choice(["cell", "row"])
                if kind == "cell":
                    device.array.inject(StuckAt(
                        device.array.cell_index(
                            rng.randrange(ROWS), rng.randrange(BPW),
                            rng.randrange(BPC),
                        ), 1,
                    ))
                else:
                    device.array.inject(RowStuck(
                        rng.randrange(ROWS), device.array.phys_cols, 1,
                    ))
            probe = BisrRam(rows=ROWS, bpw=BPW, bpc=BPC, spares=SPARES)
            for fault in device.array.faults:
                probe.array.inject(fault)
            records = collect_fail_records(IFA_9, probe, bpw=BPW)
            verdict = diagnose(records, ROWS, BPW, BPC, SPARES)
            outcome = BistScheduler(IFA_9, bpw=BPW).run(device)
            agreements += verdict.repairable_with_rows == \
                outcome.repaired
        return agreements / trials

    agreement = benchmark.pedantic(campaign, rounds=1, iterations=1)
    print(f"\ndiagnosis-vs-BIST agreement: {agreement:.0%}")
    assert agreement >= 0.9
