"""Tests for the extended march-test library (March X/Y/B) and the
ability to microprogram and run every shipped test end to end."""

import random

import pytest

from repro.bist.march import (
    ALL_TESTS,
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS_PLUS,
)
from repro.bist.controller import (
    BistScheduler,
    TrplaController,
    build_test_program,
)
from repro.bist.microcode import assemble
from repro.memsim import BisrRam, DefectInjector, FaultMix
from repro.memsim.coverage import coverage_campaign
from repro.memsim.faults import RowStuck
from tests.stream_equivalence import assert_controller_equals_scheduler


class TestLibraryStructure:
    def test_lengths(self):
        assert MARCH_X.operations_per_address == 6
        assert MARCH_Y.operations_per_address == 8
        assert MARCH_B.operations_per_address == 17

    def test_classic_ordering(self):
        lengths = [
            MATS_PLUS.operations_per_address,
            MARCH_X.operations_per_address,
            MARCH_Y.operations_per_address,
            MARCH_C_MINUS.operations_per_address,
            MARCH_B.operations_per_address,
        ]
        assert lengths == sorted(lengths)

    def test_all_tests_unique_names(self):
        names = [t.name for t in ALL_TESTS]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda t: t.name)
class TestEveryTestRunsEndToEnd:
    def test_microprograms_within_budget(self, march):
        program = build_test_program(march, passes=2)
        assert program.state_bits <= 7  # March B is the largest
        assemble(program)  # must lower without error

    def test_controller_equals_scheduler(self, march):
        d1 = BisrRam(rows=4, bpw=2, bpc=2, spares=4)
        d2 = BisrRam(rows=4, bpw=2, bpc=2, spares=4)
        r1 = BistScheduler(march, bpw=2, record_ops=True).run(d1)
        r2 = TrplaController(march, bpw=2, target=d2,
                             record_ops=True).run()
        assert r1.ops == r2.ops

    @pytest.mark.parametrize("seed", range(3))
    def test_controller_equals_scheduler_on_faulty_devices(self, march,
                                                           seed):
        mix = FaultMix(intermittent=0.2, wearout=0.2)

        def build():
            d = BisrRam(rows=4, bpw=2, bpc=2, spares=4, spare_cols=1)
            DefectInjector(rng=random.Random(seed), mix=mix).inject(
                d.array, 2)
            return d

        assert_controller_equals_scheduler(build, march, bpw=2)

    def test_repairs_a_dead_row(self, march):
        device = BisrRam(rows=8, bpw=4, bpc=4, spares=4)
        device.array.inject(RowStuck(3, device.array.phys_cols, 1))
        result = BistScheduler(march, bpw=4).run(device)
        assert result.repaired
        assert 3 in device.tlb.mapped_rows()


class TestRelativeCoverage:
    KW = dict(samples_per_kind=10, rows=8, bpw=4, bpc=2, seed=41)

    def test_march_y_catches_transitions_x_level(self):
        y = coverage_campaign(MARCH_Y, kinds=("transition",), **self.KW)
        assert y.coverage("transition") == 1.0

    def test_march_b_catches_idempotent_couplings(self):
        b = coverage_campaign(
            MARCH_B, kinds=("idempotent_coupling",), **self.KW
        )
        assert b.coverage("idempotent_coupling") >= 0.9

    def test_none_of_the_new_tests_catch_retention(self):
        for march in (MARCH_X, MARCH_Y, MARCH_B):
            report = coverage_campaign(
                march, kinds=("data_retention",), **self.KW
            )
            assert report.coverage("data_retention") == 0.0, march.name
