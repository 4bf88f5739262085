"""Diagnosis-driven 2-D repair: BIST log -> bitmap -> allocation -> programming.

The row-only flow trusts the comparator address stream directly: every
confirmed failing row burns one TLB entry.  With spare columns in play
that is exactly wrong — a broken bit line would swamp the row spares —
so the 2-D flow runs a *diagnostic* pass first, turns the full failure
log into a fault bitmap, hands it to the
:func:`~repro.bisr.allocate.allocate` must-repair/branch-and-bound
allocator, programs the TLB and the column steer from the resulting
plan, and then verifies with diversion and steering active.

Faulty spares are discovered the same way the paper's iterated 2k-pass
flow discovers them: a resource that still fails *while diverted* is
re-recorded, advancing its strictly increasing spare sequence.  The
loop is bounded; when it cannot converge — allocation infeasible,
spares exhausted, or no forward progress — the controller returns the
ladder's :class:`~repro.bisr.escalation.DegradedResult` (wrapped in
:class:`Repair2DResult`) with the still-broken rows localised, never an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Set, Tuple

from repro.bisr.allocate import RepairPlan, allocate, repair_plan_from_dict
from repro.bisr.escalation import (
    DegradedResult,
    SupervisorResult,
    supervisor_result_from_dict,
    sweep_unrepaired,
)
from repro.bist.march import MarchTest
from repro.memsim.diagnosis import collect_fail_records, fault_bitmap


@dataclass
class Repair2DResult:
    """Outcome of a diagnosis-driven 2-D repair run.

    Wraps the escalation ladder's result type (a
    :class:`~repro.bisr.escalation.SupervisorResult`, or its
    :class:`~repro.bisr.escalation.DegradedResult` subclass when repair
    did not converge) and adds the column dimension plus the final
    allocation plan.
    """

    outcome: SupervisorResult
    plan: Optional[RepairPlan]
    cols_steered: Tuple[int, ...]
    spare_cols_used: int
    cycles: int

    @property
    def repaired(self) -> bool:
        return self.outcome.repaired

    @property
    def degraded(self) -> bool:
        return self.outcome.degraded

    @property
    def reason(self) -> str:
        return getattr(self.outcome, "reason", "")

    @property
    def rows_mapped(self) -> Tuple[int, ...]:
        return self.outcome.confirmed_rows

    @property
    def spare_rows_used(self) -> int:
        return self.outcome.spares_used

    def to_dict(self) -> dict:
        """JSON-ready payload (nested ladder-result + plan payloads)."""
        return {
            "kind": "repair2d_result",
            "outcome": self.outcome.to_dict(),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "cols_steered": list(self.cols_steered),
            "spare_cols_used": self.spare_cols_used,
            "cycles": self.cycles,
        }

    def summary(self) -> str:
        verdict = "repaired" if self.repaired else "DEGRADED"
        note = f" ({self.reason})" if self.reason else ""
        return (
            f"{verdict} in {self.cycles} cycle(s): "
            f"rows={list(self.rows_mapped)} "
            f"cols={list(self.cols_steered)}, "
            f"{self.spare_rows_used} spare row(s) + "
            f"{self.spare_cols_used} spare col(s) consumed{note}"
        )


def repair2d_result_from_dict(data: Mapping) -> Repair2DResult:
    """Rebuild a :meth:`Repair2DResult.to_dict` payload."""
    data = dict(data)
    kind = data.pop("kind", "repair2d_result")
    if kind != "repair2d_result":
        raise ValueError(f"not a repair2d_result payload: kind={kind!r}")
    plan = data.get("plan")
    return Repair2DResult(
        outcome=supervisor_result_from_dict(data["outcome"]),
        plan=repair_plan_from_dict(plan) if plan is not None else None,
        cols_steered=tuple(data["cols_steered"]),
        spare_cols_used=data["spare_cols_used"],
        cycles=data["cycles"],
    )


class TwoDRepairController:
    """Diagnose, allocate, program, verify — bounded and fail-safe.

    Args:
        march: the march test used for diagnostic and verify passes.
        bpw: bits per word.
        node_budget: branch-and-bound budget handed to the allocator.
        max_cycles: test/repair cycles before degrading; defaults to
            spare_rows + spare_cols + 2 (every cycle must either finish
            or burn at least one spare, so that always terminates).
    """

    def __init__(self, march: MarchTest, bpw: int,
                 node_budget: int = 20000,
                 max_cycles: Optional[int] = None) -> None:
        self.march = march
        self.bpw = bpw
        self.node_budget = node_budget
        self.max_cycles = max_cycles

    def run(self, device) -> Repair2DResult:
        """Run the full 2-D flow on a fresh device; never raises for
        anticipated faults."""
        device.reset_for_test()
        array = device.array
        tlb = device.tlb
        steer = device.colsteer
        max_cycles = self.max_cycles or (tlb.spares + steer.spares + 2)
        plan: Optional[RepairPlan] = None
        logical_faults: Set[Tuple[int, int]] = set()
        probe_reads = 0
        cycle = 0

        for cycle in range(1, max_cycles + 1):
            # Cycle 1 is the raw diagnostic pass; later cycles verify
            # with diversion and steering active.
            device.set_repair_mode(cycle > 1)
            reads_before = array.read_count
            records = collect_fail_records(self.march, device, self.bpw)
            probe_reads += array.read_count - reads_before
            bitmap = fault_bitmap(records, self.bpw, array.bpc)
            if not bitmap:
                return self._result(device, plan, cycle, probe_reads)

            # Classify this cycle's failures: a failure on a diverted
            # or steered resource means the *spare* is faulty and the
            # strictly increasing sequence advances; anything else is a
            # new logical fault for the allocator.
            progress = False
            remapped_rows: Set[int] = set()
            remapped_cols: Set[int] = set()
            mapped = set(tlb.mapped_rows())
            steered = set(steer.active_map())
            for row, col in bitmap:
                if cycle > 1 and row in mapped:
                    if row not in remapped_rows:
                        remapped_rows.add(row)
                        progress |= tlb.record(row, remap=True)
                elif cycle > 1 and col in steered:
                    if col not in remapped_cols:
                        remapped_cols.add(col)
                        progress |= steer.record(col, remap=True)
                elif (row, col) not in logical_faults:
                    logical_faults.add((row, col))
                    progress = True

            # Allocate spares over faults no current mapping covers.
            mapped = set(tlb.mapped_rows())
            steered = set(steer.active_map())
            residual = {(r, c) for r, c in logical_faults
                        if r not in mapped and c not in steered}
            if residual:
                plan = allocate(
                    sorted(residual), array.rows, array.phys_cols,
                    spare_rows=tlb.spares_left,
                    spare_cols=steer.spares_left,
                    node_budget=self.node_budget,
                )
                for r in plan.rows:
                    progress |= tlb.record(r)
                for c in plan.cols:
                    progress |= steer.record(c)
                if not plan.repairable:
                    return self._result(
                        device, plan, cycle, probe_reads,
                        reason=f"allocation infeasible: {plan.reason}"
                        if plan.reason else "allocation infeasible",
                    )
            if not progress:
                if tlb.overflowed or steer.overflowed:
                    reason = (
                        f"spares exhausted after {cycle} cycle(s) "
                        f"(rows {tlb.spares_used}/{tlb.spares}, "
                        f"cols {steer.spares_used}/{steer.spares})")
                else:
                    reason = (f"repair did not converge after "
                              f"{cycle} cycle(s)")
                return self._result(device, plan, cycle, probe_reads,
                                    reason=reason)

        return self._result(
            device, plan, max_cycles, probe_reads,
            reason=f"cycle budget {max_cycles} exhausted",
        )

    # -- outcomes ----------------------------------------------------------

    def _result(self, device, plan, cycles: int, probe_reads: int,
                reason: Optional[str] = None) -> Repair2DResult:
        """Repaired, or — given a ``reason`` — degraded, with the
        still-broken rows localised."""
        common = dict(
            attempts=cycles,
            confirmed_rows=tuple(sorted(device.tlb.mapped_rows())),
            rejected_addresses=(),
            spares_used=device.tlb.spares_used,
            probe_reads=probe_reads,
            backoff_cycles=0,
        )
        if reason is None:
            outcome = SupervisorResult(repaired=True, **common)
        else:
            outcome = DegradedResult(
                repaired=False, reason=reason,
                unrepaired_rows=sweep_unrepaired(device, self.bpw,
                                                 device.array.bpc),
                **common)
        return Repair2DResult(
            outcome=outcome,
            plan=plan,
            cols_steered=tuple(device.colsteer.steered_cols()),
            spare_cols_used=device.colsteer.spares_used,
            cycles=cycles,
        )
