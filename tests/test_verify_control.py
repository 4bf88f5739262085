"""Control-logic validation: reachability, march round-trip, personality
equivalence, BISR invariants."""

from dataclasses import replace

import pytest

from repro.bist.controller import build_test_program
from repro.bist.march import ALL_TESTS, IFA_9, MATS_PLUS
from repro.bist.microcode import MicroInstruction, Microprogram, assemble
from repro.bist.trpla import Trpla
from repro.verify import (
    check_bisr_invariants,
    check_control,
    check_march_roundtrip,
    check_personality,
    check_reachability,
)
from repro.verify import control

from tests import control_reference as ref


@pytest.fixture(scope="module")
def program():
    return build_test_program(IFA_9, 2)


class TestReachability:
    def test_generated_program_is_clean(self, program):
        assert check_reachability(program) == []

    def test_unreachable_state_flagged(self):
        prog = Microprogram([
            MicroInstruction("a", default="b"),
            MicroInstruction("b", default="b"),
            MicroInstruction("orphan", default="b"),
        ], start="a")
        findings = check_reachability(prog)
        assert [f.kind for f in findings] == ["unreachable-state"]
        assert findings[0].subject == "orphan"

    def test_livelock_flagged_as_dead(self):
        # c and d form a cycle that can never reach the terminal b.
        prog = Microprogram([
            MicroInstruction("a", branches=(((("go", 1),), "c"),),
                             default="b"),
            MicroInstruction("b", default="b"),
            MicroInstruction("c", default="d"),
            MicroInstruction("d", default="c"),
        ], start="a")
        findings = check_reachability(prog)
        dead = {f.subject for f in findings if f.kind == "dead-state"}
        assert dead == {"c", "d"}


class TestMarchRoundTrip:
    def test_generated_program_matches_march(self, program):
        assert check_march_roundtrip(program, IFA_9, passes=2) == []

    def test_wrong_march_mismatches(self, program):
        findings = check_march_roundtrip(program, MATS_PLUS, passes=2)
        assert findings
        assert all(f.kind == "march-mismatch" for f in findings)

    def test_corrupted_op_polarity_flagged(self, program):
        bad = Microprogram(list(program.states.values()), program.start)
        name = "p1_e1_o0"
        inst = bad.states[name]
        flipped = set(inst.outputs) ^ {"data_inv"}
        bad.states[name] = replace(inst, outputs=frozenset(flipped))
        findings = check_march_roundtrip(bad, IFA_9, passes=2)
        assert any(f.subject == name for f in findings)


class TestPersonality:
    def test_assembled_personality_equivalent(self, program):
        assert check_personality(program) == []

    def test_corrupted_or_plane_names_state(self, program):
        # Some single-bit flips are masked by OR-plane redundancy
        # (another active term supplies the same output); scan for a
        # semantically visible one — it must exist within a few terms.
        asm = assemble(program)
        findings = []
        for term in range(8):
            or_plane = [list(r) for r in asm.or_plane]
            or_plane[term][0] ^= 1
            findings = check_personality(
                program, Trpla(asm.and_plane, or_plane))
            if findings:
                break
        assert findings
        assert all(f.kind == "microword-mismatch" for f in findings)
        assert all(f.subject in program.states for f in findings)

    def test_corrupted_and_plane_detected(self, program):
        # Adding a spurious literal makes a term fire in fewer states
        # than the microprogram expects; scan past any term whose
        # outputs happen to be covered by the remaining active terms.
        asm = assemble(program)
        findings = []
        for term in range(len(asm.and_plane)):
            and_plane = [list(r) for r in asm.and_plane]
            row = and_plane[term]
            zero_cols = [i for i, bit in enumerate(row) if not bit]
            if not zero_cols:
                continue
            row[zero_cols[0]] = 1
            findings = check_personality(
                program, Trpla(and_plane, asm.or_plane))
            if findings:
                break
        assert findings

    def test_truncated_plane_reported_not_raised(self, program):
        asm = assemble(program)
        bad = Trpla(asm.and_plane[:4], asm.or_plane[:4])
        findings = check_personality(program, bad)
        assert findings
        assert all(f.kind == "microword-mismatch" for f in findings)


def _flips(plane, stride):
    """Copies of ``plane`` with one bit flipped, every ``stride``-th bit."""
    cells = [(t, c) for t in range(len(plane))
             for c in range(len(plane[0]))][::stride]
    for t, c in cells:
        flipped = [list(row) for row in plane]
        flipped[t][c] ^= 1
        yield flipped


class TestPersonalityTable:
    """The table-driven check matches the ``evaluate`` reference loop."""

    @pytest.mark.parametrize("march", ALL_TESTS, ids=lambda t: t.name)
    def test_clean_planes_agree(self, march):
        program = build_test_program(march, 2)
        assert check_personality(program) == ref.check_personality(program)
        assert check_personality(program) == []

    @pytest.mark.parametrize("max_findings", (1, 50))
    def test_flipped_planes_agree(self, program, max_findings):
        asm = assemble(program)
        dirty = 0
        for and_plane in _flips(asm.and_plane, 401):
            pla = Trpla(and_plane, asm.or_plane)
            got = check_personality(program, pla, max_findings)
            assert got == ref.check_personality(program, pla, max_findings)
            dirty += bool(got)
        for or_plane in _flips(asm.or_plane, 367):
            pla = Trpla(asm.and_plane, or_plane)
            got = check_personality(program, pla, max_findings)
            assert got == ref.check_personality(program, pla, max_findings)
            dirty += bool(got)
        assert dirty, "no flip was visible: the comparison has no teeth"

    def test_mismatched_planes_agree(self, program):
        asm = assemble(program)
        narrow = Trpla([row[2:] for row in asm.and_plane], asm.or_plane)
        for pla in (Trpla(asm.and_plane[:4], asm.or_plane[:4]), narrow):
            assert check_personality(program, pla) == \
                ref.check_personality(program, pla)
        assert check_personality(program, narrow)

    def test_wide_pla_evaluates_sum_of_products(self, program, monkeypatch):
        # A PLA wider than the dense table evaluates each assignment.
        monkeypatch.setattr(control, "MAX_TABLE_INPUTS", 0)
        asm = assemble(program)
        or_plane = [list(row) for row in asm.or_plane]
        or_plane[0][0] ^= 1
        for pla in (None, Trpla(asm.and_plane, or_plane)):
            assert check_personality(program, pla) == \
                ref.check_personality(program, pla)


class TestBisrInvariants:
    def test_healthy_repair_run_is_clean(self):
        assert check_bisr_invariants() == []

    def test_orchestrator_clean_and_stats(self):
        findings, stats = check_control()
        assert findings == []
        assert stats["states"] > 40
        assert stats["condition_inputs"] == 5
        assert stats["assignments_per_state"] == 32
