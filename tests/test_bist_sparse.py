"""The fault-sparse BistScheduler and TrplaController against their
op-by-op reference loops.

Each case builds identically faulted fresh devices.  The scheduler runs
on one op by op (``record_ops=True``, or a target without the
``quiet_sweep`` hook) and on another fault sparse; the TRPLA controller
runs on a third clocked (``record_ops=True``) and on a fourth with its
quiet rows jumped.  Everything a caller or a later pass can observe
must agree within each pair: counters, the ordered ``record_fail``
stream, TLB and steer images, cells, the column history, port
counters, diversions, every fault's private state and, for the
controller, the clock count.
"""

import dataclasses
import random

import pytest

from repro.bisr import EscalationPolicy, RepairSupervisor
from repro.bisr.escalation import _ConfirmingTarget
from repro.bist import (IFA_9, BistScheduler, FaultyInfrastructure,
                        TrplaController)
from repro.bist.controller import BistResult
from repro.bist.march import ALL_TESTS, MARCH_B, parse_march
from repro.bist.ports import PortView, port_bindings
from repro.memsim import BisrRam, DefectInjector, FaultMix
from repro.memsim.faults import StuckAt

KINDS = [f.name for f in dataclasses.fields(FaultMix)]


def only(kind):
    """A mix that draws nothing but ``kind``."""
    return FaultMix(**{name: float(name == kind) for name in KINDS})


def build(seed, mix=None, defects=4, rows=16, bpw=8, bpc=4, spares=4,
          spare_cols=0, ports=1):
    device = BisrRam(rows=rows, bpw=bpw, bpc=bpc, spares=spares,
                     spare_cols=spare_cols, ports=ports)
    DefectInjector(rng=random.Random(seed), mix=mix).inject(
        device.array, defects)
    return device


def logged(device):
    """Log the device's ``record_fail`` calls in order."""
    calls = []
    record = device.record_fail

    def record_fail(address):
        calls.append(address)
        record(address)

    device.record_fail = record_fail
    return calls


def fault_state(fault):
    rng = getattr(fault, "_rng", None)
    return (fault.describe(), getattr(fault, "activations", None),
            getattr(fault, "age", None), getattr(fault, "_prev", None),
            rng.getstate() if rng is not None else None)


def observe(device, result, calls):
    array = device.array
    return {
        "ops": result.op_count,
        "fails": result.fail_count,
        "passes": result.passes_run,
        "repaired": result.repaired,
        "record_fail": calls,
        "tlb": (device.tlb.mapped_rows(), device.tlb.overflowed),
        "steer": (device.colsteer.active_map(), device.colsteer.overflowed),
        "cells": bytes(array._bits),
        "column_last": bytes(array._column_last),
        "counts": (array.read_count, array.write_count),
        "port_ops": list(device.port_ops),
        "diversions": device.diversion_count,
        "faults": [fault_state(f) for f in array.faults],
    }


def run_both(make, march=IFA_9, view=None, prepare=None, **run):
    """(reference, sparse) observations of one scheduler run each."""
    sides = []
    for record_ops in (True, False):
        device = make()
        if prepare is not None:
            prepare(device)
        calls = logged(device)
        target = device if view is None else view(device)
        result = BistScheduler(march, device.array.bpw,
                               record_ops=record_ops).run(target, **run)
        sides.append(observe(device, result, calls))
    return sides


def run_controllers(make, march=IFA_9, view=None, prepare=None, passes=2,
                    divert_during_test=False, stop_on_repair_fail=True):
    """(clocked, jumped) observations of one TrplaController run each.

    The controller always halts on its first failing verification
    read, so ``stop_on_repair_fail`` does not apply to it; the
    re-entrant cycle is ``fresh=False``.
    """
    sides = []
    for record_ops in (True, False):
        device = make()
        if prepare is not None:
            prepare(device)
        calls = logged(device)
        target = device if view is None else view(device)
        controller = TrplaController(march, device.array.bpw, target,
                                     passes=passes, record_ops=record_ops,
                                     fresh=not divert_during_test)
        result = controller.run()
        sides.append({**observe(device, result, calls),
                      "cycles": controller.cycles})
    return sides


def assert_same(make, **kwargs):
    reference, sparse = run_both(make, **kwargs)
    assert sparse == reference
    clocked, jumped = run_controllers(make, **kwargs)
    assert jumped == clocked
    return reference


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_every_fault_kind(kind, seed):
    assert_same(lambda: build(seed, only(kind), defects=3))


@pytest.mark.parametrize("seed", range(12))
def test_intermittent_and_wearout_mix(seed):
    mix = FaultMix(intermittent=0.4, wearout=0.4)
    reference = assert_same(lambda: build(seed, mix, defects=5))
    assert reference["ops"] > 0


@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(4))
def test_every_march(march, seed):
    assert_same(lambda: build(seed, FaultMix(intermittent=0.2)),
                march=march)


@pytest.mark.parametrize("seed", range(8))
def test_divert_during_test(seed):
    assert_same(lambda: build(seed, FaultMix(wearout=0.3)),
                divert_during_test=True)


@pytest.mark.parametrize("seed", range(8))
def test_six_passes_without_stopping(seed):
    # Few spares and many defects, so later passes keep failing.
    assert_same(lambda: build(seed, FaultMix(intermittent=0.3), defects=6,
                              spares=2),
                passes=6, stop_on_repair_fail=False)


def _healthy_row_onto_faulty_spare(device):
    """Divert healthy row 5 onto spare 0, which holds a stuck cell.

    Row 5 is busy only because the TLB diverts it, so treating
    diverted rows as quiet would read row 5's own cells instead.
    """
    array = device.array
    array.inject(StuckAt(array.cell_index(array.rows, 3, 1), 1))
    device.tlb.record(5)


@pytest.mark.parametrize("seed", range(4))
def test_diverted_healthy_row_reaches_its_faulty_spare(seed):
    reference = assert_same(lambda: build(seed, defects=2),
                            prepare=_healthy_row_onto_faulty_spare,
                            divert_during_test=True)
    assert reference["diversions"] > 0 and reference["fails"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_faulty_spare_rows(seed):
    def make():
        device = build(seed, defects=3)
        DefectInjector(rng=random.Random(100 + seed)).inject(
            device.array, 3)  # may land on spare rows
        return device

    assert_same(make)
    assert_same(make, divert_during_test=True)


@pytest.mark.parametrize("spare_cols", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_spare_columns_idle(spare_cols, seed):
    """Spare columns widen the row stride; rows stay quiet."""
    assert_same(lambda: build(seed, spare_cols=spare_cols))


@pytest.mark.parametrize("spare_cols", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_steering_makes_every_row_busy(spare_cols, seed):
    def steer(device):
        for col in range(spare_cols):
            device.colsteer.record(3 + 7 * col)

    reference = assert_same(lambda: build(seed, spare_cols=spare_cols),
                            prepare=steer, passes=4,
                            stop_on_repair_fail=False)
    assert reference["steer"][0]
    # A fresh controller clears the steer image; the re-entrant cycle
    # keeps it, so the controller also runs with steering active.
    reference = assert_same(lambda: build(seed, spare_cols=spare_cols),
                            prepare=steer, divert_during_test=True)
    assert reference["steer"][0]


@pytest.mark.parametrize("binding", port_bindings(2),
                         ids=lambda b: b[0])
@pytest.mark.parametrize("seed", range(4))
def test_dual_port_bindings(binding, seed):
    _, write_port, read_port = binding
    reference = assert_same(
        lambda: build(seed, FaultMix(intermittent=0.2), ports=2),
        view=lambda d: PortView(d, write_port=write_port,
                                read_port=read_port))
    assert reference["port_ops"][write_port] > 0


READ_FIRST = parse_march("read-first", "u(r0,w1); d(r1); m(r1,w0,r0)")


@pytest.mark.parametrize("seed", range(6))
def test_read_first_march_on_a_dirty_image(seed):
    def dirty(device):
        rng = random.Random(seed)
        bits = device.array._bits
        bits[:] = bytes(rng.randrange(2) for _ in range(len(bits)))

    reference = assert_same(lambda: build(seed, defects=2),
                            march=READ_FIRST, prepare=dirty)
    assert reference["fails"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_read_first_march_on_a_clean_image(seed):
    reference = assert_same(lambda: build(seed, defects=2),
                            march=READ_FIRST)
    # The all-zero power-up image matches r0, so quiet rows stay bulk.
    assert reference["ops"] > 0


def test_reads_disagreeing_with_the_element_write():
    """``w0, r1`` fails on every row; it must run op by op."""
    march = parse_march("inconsistent", "m(w0,r1); u(r0,w1)")
    reference = assert_same(lambda: build(3, defects=1), march=march)
    assert reference["fails"] >= 16 * 4


def test_faulty_infrastructure_stays_op_by_op(monkeypatch):
    def make():
        return FaultyInfrastructure(
            build(5, FaultMix(intermittent=0.3)), random.Random(2),
            false_fail_rate=0.01, false_pass_rate=0.2)

    reference = make()
    ref_result = BistScheduler(IFA_9, 8, record_ops=True).run(reference)

    def refuse(*args, **kwargs):
        raise AssertionError("FaultyInfrastructure took the sparse path")

    monkeypatch.setattr(BisrRam, "quiet_sweep", refuse)
    proxy = make()
    result = BistScheduler(IFA_9, 8).run(proxy)
    assert (result.op_count, result.fail_count) == \
        (ref_result.op_count, ref_result.fail_count)
    assert bytes(proxy.target.array._bits) == \
        bytes(reference.target.array._bits)
    assert proxy.false_fails == reference.false_fails
    RepairSupervisor(IFA_9, 8).run(make())


class HooklessTarget:
    """The TestTarget protocol of a device, without ``quiet_sweep``."""

    def __init__(self, device):
        self.device = device
        self.tlb = device.tlb
        self.array = device.array

    @property
    def word_count(self):
        return self.device.word_count

    def read(self, address):
        return self.device.read(address)

    def write(self, address, word):
        self.device.write(address, word)

    def set_repair_mode(self, enabled):
        self.device.set_repair_mode(enabled)

    def record_fail(self, address):
        self.device.record_fail(address)

    def retention_wait(self):
        self.device.retention_wait()

    def reset_for_test(self):
        self.device.reset_for_test()


@pytest.mark.parametrize("seed", range(8))
def test_unrepairable_controller_halts_at_the_same_clock(seed):
    """Two spares for six defects: both controllers stop on the same
    first failing verification read, on the same clock."""
    clocked, jumped = run_controllers(
        lambda: build(seed, FaultMix(intermittent=0.2), defects=6,
                      spares=2))
    assert not clocked["repaired"] and clocked["passes"] == 2
    assert jumped == clocked


def test_faulty_infrastructure_keeps_the_controller_clocked(monkeypatch):
    def make():
        return FaultyInfrastructure(
            build(5, FaultMix(intermittent=0.3)), random.Random(2),
            false_fail_rate=0.01, false_pass_rate=0.2)

    reference = make()
    clocked = TrplaController(IFA_9, 8, reference, record_ops=True)
    clocked.run()

    def refuse(*args, **kwargs):
        raise AssertionError("FaultyInfrastructure took the jump")

    monkeypatch.setattr(BisrRam, "quiet_sweep", refuse)
    proxy = make()
    controller = TrplaController(IFA_9, 8, proxy)
    controller.run()
    assert controller.cycles == clocked.cycles
    assert (controller.result.op_count, controller.result.fail_count) == \
        (clocked.result.op_count, clocked.result.fail_count)
    assert bytes(proxy.target.array._bits) == \
        bytes(reference.target.array._bits)
    assert proxy.false_fails == reference.false_fails


def counted_steps(controller):
    """Count the controller's calls of :meth:`TrplaController.step`."""
    steps = []
    step = controller.step

    def counting(*args):
        steps.append(1)
        step(*args)

    controller.step = counting
    return steps


@pytest.mark.parametrize("seed", range(4))
def test_controller_jumps_only_with_the_hook(seed):
    """The jumped run clocks a fraction of the cycles; ``record_ops``
    and a hookless target clock every one, to the same end."""
    outcomes, clocked = {}, {}
    for name in ("jumped", "record_ops", "hookless"):
        device = build(seed, defects=2)
        target = HooklessTarget(device) if name == "hookless" else device
        controller = TrplaController(IFA_9, 8, target,
                                     record_ops=name == "record_ops")
        steps = counted_steps(controller)
        result = controller.run()
        clocked[name] = len(steps)
        outcomes[name] = (controller.cycles, result.op_count,
                          result.fail_count, bytes(device.array._bits),
                          list(device.port_ops))
    assert outcomes["record_ops"] == outcomes["hookless"] == \
        outcomes["jumped"]
    cycles = outcomes["jumped"][0]
    assert clocked["record_ops"] == clocked["hookless"] == cycles
    assert clocked["jumped"] < cycles // 2


def test_step_is_one_clock():
    """``step`` clocks once, with or without the hook to jump with."""
    results = []
    for record_ops in (False, True):
        controller = TrplaController(IFA_9, 8, build(1, defects=2),
                                     record_ops=record_ops)
        for cycle in range(1, 200):
            controller.step()
            assert controller.cycles == cycle
        results.append(controller.result.op_count)
    assert results[0] == results[1] > 150


@pytest.mark.parametrize("seed", range(16))
def test_supervisor_outcome(seed):
    policy = EscalationPolicy(max_attempts=3)
    sides = []
    for hookless in (True, False):
        device = build(seed, FaultMix(intermittent=0.6, wearout=0.2),
                       defects=3, rows=32, bpw=16)
        calls = logged(device)
        target = HooklessTarget(device) if hookless else device
        outcome = RepairSupervisor(MARCH_B, 16, policy).run(target)
        sides.append((outcome.to_dict(), calls, bytes(device.array._bits),
                      list(device.port_ops),
                      [fault_state(f) for f in device.array.faults]))
    assert sides[1] == sides[0]


def test_supervisor_cases_exercise_confirmation():
    """The seeds above include probe reads and rejected suspects."""
    probes = rejected = 0
    for seed in range(16):
        device = build(seed, FaultMix(intermittent=0.6, wearout=0.2),
                       defects=3, rows=32, bpw=16)
        outcome = RepairSupervisor(
            MARCH_B, 16, EscalationPolicy(max_attempts=3)).run(device)
        probes += outcome.probe_reads > 0
        rejected += bool(outcome.rejected_addresses)
    assert probes and rejected


def test_confirming_shadow_takes_the_newest_write():
    device = BisrRam(rows=8, bpw=8, bpc=4, spares=2)
    gate = _ConfirmingTarget(device, EscalationPolicy())
    busy, fill_11 = gate.quiet_sweep([], 0x11, 0x11, 0, 1)
    assert busy == []
    fill_11(0, 8)
    gate.quiet_sweep([], 0x22, 0x22, 0, 1)[1](4, 12)
    assert gate._expected(2) == 0x11 and gate._expected(5) == 0x22
    gate.write(5, 0x33)
    assert gate._expected(5) == 0x33 and gate._expected(20) is None
    assert device.array.read_word(5) == 0x33


def check_pattern_word_by_word(device, pattern_word):
    """The reference functional sweep ``BisrRam.check_pattern`` runs
    in bulk on quiet rows."""
    for address in range(device.word_count):
        device.write(address, pattern_word)
    return sum(device.read(address) != pattern_word
               for address in range(device.word_count))


def _repaired(device):
    BistScheduler(IFA_9, device.array.bpw).run(device)


def _steered(device):
    device.colsteer.record(5)
    device.set_repair_mode(True)


@pytest.mark.parametrize("pattern_word", [0, 0xA5, 0xFF, 0x1A5, -1])
@pytest.mark.parametrize("setup", [None, _repaired, _steered],
                         ids=["faulted", "diverted", "steered"])
@pytest.mark.parametrize("seed", range(6))
def test_check_pattern_matches_the_word_by_word_sweep(seed, setup,
                                                      pattern_word):
    sides = []
    for sweep in (check_pattern_word_by_word, BisrRam.check_pattern):
        # Six defects on four spares leave some seeds unrepaired.
        device = build(seed, FaultMix(intermittent=0.3), defects=6,
                       spare_cols=1)
        if setup is not None:
            setup(device)
        mismatches = sweep(device, pattern_word)
        sides.append((mismatches, observe(device, BistResult(), [])))
    assert sides[1] == sides[0]


def test_check_pattern_cases_cover_mismatches_and_diversions():
    mismatches = diversions = 0
    for seed in range(6):
        device = build(seed, FaultMix(intermittent=0.3), defects=6,
                       spare_cols=1)
        _repaired(device)
        words = []
        write = device.write
        device.write = lambda address, word: (words.append(address),
                                              write(address, word))
        mismatches += device.check_pattern(0xA5) > 0
        diversions += device.diversion_count > 0
        assert 0 < len(words) < device.word_count  # busy rows only
    assert mismatches and diversions
