"""Tests for the BIST scheduler, microprogram builder, and TRPLA controller."""

import random

import pytest

from repro.bist import (
    IFA_9,
    MATS_PLUS,
    BistScheduler,
    TrplaController,
    build_test_program,
)
from repro.bist.microcode import assemble
from repro.memsim import BisrRam, DefectInjector, FaultMix
from repro.memsim.faults import RowStuck, StuckAt
from tests.stream_equivalence import assert_controller_equals_scheduler


def device(rows=8, bpw=4, bpc=4, spares=4):
    return BisrRam(rows=rows, bpw=bpw, bpc=bpc, spares=spares)


class TestSchedulerCleanMemory:
    def test_clean_memory_repairs_trivially(self):
        r = BistScheduler(IFA_9, bpw=4).run(device())
        assert r.repaired and r.fail_count == 0
        assert r.passes_run == 2

    def test_op_count_formula(self):
        d = device()
        sched = BistScheduler(IFA_9, bpw=4)
        r = sched.run(d, passes=1)
        backgrounds = 3  # log2(4) + 1
        expected = IFA_9.operations_per_address * d.word_count * backgrounds
        assert r.op_count == expected

    def test_needs_at_least_one_pass(self):
        with pytest.raises(ValueError):
            BistScheduler(IFA_9, bpw=4).run(device(), passes=0)

    def test_march_covers_all_addresses_each_element(self):
        d = device(rows=4)
        sched = BistScheduler(MATS_PLUS, bpw=4, record_ops=True)
        r = sched.run(d, passes=1)
        first_element_ops = [op for op in r.ops if op.background == 0][
            : d.word_count
        ]
        assert [op.address for op in first_element_ops] == \
            list(range(d.word_count))


class TestSchedulerRepair:
    def test_single_cell_fault_repaired(self):
        d = device()
        d.array.inject(StuckAt(d.array.cell_index(3, 1, 2), 1))
        r = BistScheduler(IFA_9, bpw=4).run(d)
        assert r.repaired
        assert d.tlb.mapped_rows() == {3: 8}
        assert d.check_pattern(0b0101) == 0

    def test_row_defect_repaired(self):
        d = device()
        d.array.inject(RowStuck(5, d.array.phys_cols, 0))
        r = BistScheduler(IFA_9, bpw=4).run(d)
        assert r.repaired
        assert 5 in d.tlb.mapped_rows()

    def test_too_many_faulty_rows_unrepairable(self):
        d = device(spares=4)
        for row in range(5):
            d.array.inject(RowStuck(row, d.array.phys_cols, 0))
        r = BistScheduler(IFA_9, bpw=4).run(d)
        assert not r.repaired
        assert d.tlb.overflowed

    def test_faulty_spare_two_pass_fails(self):
        d = device()
        d.array.inject(StuckAt(d.array.cell_index(2, 0, 0), 1))
        d.array.inject(RowStuck(8, d.array.phys_cols, 0))  # spare 0
        r = BistScheduler(IFA_9, bpw=4).run(d, passes=2)
        assert not r.repaired

    def test_faulty_spare_four_pass_converges(self):
        d = device()
        d.array.inject(StuckAt(d.array.cell_index(2, 0, 0), 1))
        d.array.inject(RowStuck(8, d.array.phys_cols, 0))
        r = BistScheduler(IFA_9, bpw=4).run(
            d, passes=4, stop_on_repair_fail=False
        )
        assert r.repaired
        # Strictly increasing: the row advanced past the dead spare.
        assert d.tlb.mapped_rows()[2] == 9

    def test_multiple_faults_same_row_use_one_spare(self):
        d = device()
        for bit in range(3):
            d.array.inject(StuckAt(d.array.cell_index(6, bit, 1), 1))
        BistScheduler(IFA_9, bpw=4).run(d)
        assert d.tlb.spares_used == 1


class TestMicroprogram:
    def test_state_budget(self):
        prog = build_test_program(IFA_9, passes=2)
        # Must fit the paper's six flip-flops (59 states there; the
        # differences are bookkeeping states folded into transitions).
        assert 40 <= len(prog) <= 64
        assert prog.state_bits == 6

    def test_condition_inputs(self):
        prog = build_test_program(IFA_9)
        assert set(prog.condition_inputs()) == {
            "go", "addr_done", "bg_done", "fail", "retention_done",
        }

    def test_key_outputs_present(self):
        prog = build_test_program(IFA_9)
        outs = set(prog.control_outputs())
        assert {"op_read", "op_write", "data_inv", "tlb_record",
                "addr_step", "datagen_shift", "wait_retention",
                "done", "repair_unsuccessful"} <= outs

    def test_passes_validated(self):
        with pytest.raises(ValueError):
            build_test_program(IFA_9, passes=0)

    def test_assembles(self):
        pla = assemble(build_test_program(IFA_9))
        assert pla.term_count > len(build_test_program(IFA_9))


class TestTrplaController:
    def test_stream_equivalence_with_scheduler(self):
        d1, d2 = device(), device()
        r1 = BistScheduler(IFA_9, bpw=4, record_ops=True).run(d1)
        r2 = TrplaController(IFA_9, bpw=4, target=d2,
                             record_ops=True).run()
        assert r1.ops == r2.ops
        assert r1.op_count == r2.op_count

    def test_stream_equivalence_mats(self):
        d1, d2 = device(rows=4, bpw=2, bpc=2), device(rows=4, bpw=2, bpc=2)
        r1 = BistScheduler(MATS_PLUS, bpw=2, record_ops=True).run(d1)
        r2 = TrplaController(MATS_PLUS, bpw=2, target=d2,
                             record_ops=True).run()
        assert r1.ops == r2.ops

    def test_controller_repairs(self):
        d = device()
        d.array.inject(StuckAt(d.array.cell_index(4, 2, 3), 0))
        # StuckAt 0 at a cell: detected when 1 expected.
        result = TrplaController(IFA_9, bpw=4, target=d).run()
        assert result.repaired
        assert 4 in d.tlb.mapped_rows()

    def test_controller_flags_repair_fail(self):
        d = device(spares=4)
        for row in range(5):
            d.array.inject(RowStuck(row, d.array.phys_cols, 1))
        result = TrplaController(IFA_9, bpw=4, target=d).run()
        assert result.repair_unsuccessful

    def test_iterated_cycles_fix_faulty_spare(self):
        d = device()
        d.array.inject(StuckAt(d.array.cell_index(2, 0, 0), 1))
        d.array.inject(RowStuck(8, d.array.phys_cols, 0))
        first = TrplaController(IFA_9, bpw=4, target=d).run()
        assert first.repair_unsuccessful
        second = TrplaController(IFA_9, bpw=4, target=d,
                                 fresh=False).run()
        assert second.repaired
        assert d.check_pattern(0b1001) == 0

    def test_runaway_guard(self):
        d = device()
        c = TrplaController(IFA_9, bpw=4, target=d)
        with pytest.raises(RuntimeError):
            c.run(max_cycles=10)

    def test_idle_until_go(self):
        d = device()
        c = TrplaController(IFA_9, bpw=4, target=d)
        for _ in range(5):
            c.step(go=0)
        assert c.result.op_count == 0
        assert not c.finished

    def test_controllers_share_no_mutable_personality(self):
        """One compiled program serves every controller of a (march,
        passes) pair, but what a controller exposes is its own."""
        first = TrplaController(IFA_9, bpw=4, target=device())
        second = TrplaController(IFA_9, bpw=4, target=device())
        assert first.pla is not second.pla
        assert first.program is not second.program
        assert first.assembled is not second.assembled
        original_and = list(second.pla.and_plane)
        first.pla.and_plane[0] = (0,) * len(first.pla.and_plane[0])
        first.pla.or_plane.clear()
        first.program.states.clear()
        first.assembled.state_encoding.clear()
        first._out.clear()
        first._loops.clear()
        assert second.pla.and_plane == original_and
        assert second.pla.or_plane and second.program.states
        assert second.assembled.state_encoding["idle"] == second.state
        third = TrplaController(IFA_9, bpw=4, target=device())
        assert third.pla.and_plane == original_and
        assert third.pla.table == second.pla.table
        reference = BistScheduler(IFA_9, bpw=4, record_ops=True).run(
            device())
        assert TrplaController(IFA_9, bpw=4, target=device(),
                               record_ops=True).run().ops == reference.ops

    def test_two_marches_compile_apart(self):
        ifa = TrplaController(IFA_9, bpw=4, target=device())
        mats = TrplaController(MATS_PLUS, bpw=4, target=device())
        four = TrplaController(IFA_9, bpw=4, target=device(), passes=4)
        assert ifa._table != mats._table
        assert len(four.program.states) > len(ifa.program.states)
        assert ifa._table == ifa.pla.table
        assert four._table == four.pla.table


MIXES ={"solid": FaultMix(),
         "in_field": FaultMix(intermittent=0.3, wearout=0.3)}


def faulty_build(seed, mix, spare_cols=0, first_run=False):
    """A builder of identically faulted devices; ``first_run`` puts
    each through one fresh TRPLA cycle first, leaving its TLB image."""
    def build():
        d = BisrRam(rows=8, bpw=4, bpc=4, spares=4, spare_cols=spare_cols)
        DefectInjector(rng=random.Random(seed), mix=MIXES[mix]).inject(
            d.array, 3)
        if first_run:
            TrplaController(IFA_9, bpw=4, target=d).run()
        return d
    return build


class TestControllerEqualsSchedulerOnFaultyDevices:
    @pytest.mark.parametrize("spare_cols", (0, 2))
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("seed", range(8))
    def test_fresh_cycle(self, seed, mix, spare_cols):
        assert_controller_equals_scheduler(
            faulty_build(seed, mix, spare_cols), IFA_9, bpw=4)

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("seed", range(8))
    def test_rerun_keeps_the_tlb_image(self, seed, mix):
        assert_controller_equals_scheduler(
            faulty_build(seed, mix, spare_cols=1, first_run=True),
            IFA_9, bpw=4, fresh=False)

    def test_draws_cover_both_outcomes(self):
        """The seeds above reach repaired and unrepaired devices."""
        outcomes = {
            BistScheduler(IFA_9, bpw=4).run(faulty_build(seed, mix)()).repaired
            for seed in range(8) for mix in MIXES
        }
        assert outcomes == {True, False}
