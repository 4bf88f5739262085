"""Diagnosis, 2-D repair and transparent BIST on the scheduler's pass
against their word-by-word reference walks.

``collect_fail_records`` and ``TransparentBist.run`` are one
:meth:`~repro.bist.controller.BistScheduler.run_pass` each; the walks
they replaced live in :mod:`tests.march_references`.  Each case builds
identically faulted fresh devices, runs the reference on one and the
library on the other, and compares everything a caller or a later pass
can observe: the result, cells, the column history, array counters,
``port_ops``, diversions, TLB and steer images and every fault's
private state.
"""

import random
import re
from pathlib import Path

import pytest

from repro.bist import (IFA_9, BistScheduler, FaultyInfrastructure,
                        TransparentBist, TwoDRepairController)
from repro.bist import repair2d
from repro.bist.field_repair import FieldRepairController
from repro.bist.march import ALL_TESTS, parse_march
from repro.bist.ports import PortView, port_bindings
from repro.core.config import RamConfig
from repro.memsim import (BisrRam, ColumnStuck, DefectInjector, FaultMix,
                          RowStuck, StuckAt, collect_fail_records)
from tests.march_references import (collect_fail_records_dense,
                                    transparent_run_dense)
from tests.test_bist_sparse import (KINDS, READ_FIRST,
                                    _healthy_row_onto_faulty_spare, build,
                                    fault_state, only)


def observe(device):
    array = device.array
    return {
        "cells": bytes(array._bits),
        "column_last": bytes(array._column_last),
        "counts": (array.read_count, array.write_count),
        "port_ops": list(device.port_ops),
        "diversions": device.diversion_count,
        "tlb": (device.tlb.mapped_rows(), device.tlb.overflowed),
        "steer": (device.colsteer.active_map(), device.colsteer.overflowed),
        "faults": [fault_state(f) for f in array.faults],
    }


# -- diagnosis ------------------------------------------------------------


def diagnose_both(make, march=IFA_9, view=None, prepare=None):
    """(reference, library) observations of one diagnostic pass each."""
    sides = []
    for collect in (collect_fail_records_dense, collect_fail_records):
        device = make()
        if prepare is not None:
            prepare(device)
        target = device if view is None else view(device)
        records = collect(march, target, device.array.bpw)
        sides.append({**observe(device), "records": records})
    assert sides[1] == sides[0]
    return sides[0]


def _tested(device):
    """A two-pass self-repair first: repair mode on, rows diverted."""
    BistScheduler(IFA_9, device.array.bpw).run(device)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_diagnosis_every_fault_kind(kind, seed):
    diagnose_both(lambda: build(seed, only(kind), defects=3))


@pytest.mark.parametrize("seed", range(12))
def test_diagnosis_intermittent_and_wearout_mix(seed):
    mix = FaultMix(intermittent=0.4, wearout=0.4)
    diagnose_both(lambda: build(seed, mix, defects=5))


@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(4))
def test_diagnosis_every_march(march, seed):
    diagnose_both(lambda: build(seed, FaultMix(intermittent=0.2)),
                  march=march)


@pytest.mark.parametrize("seed", range(8))
def test_diagnosis_with_diversion_active(seed):
    reference = diagnose_both(lambda: build(seed, FaultMix(wearout=0.3)),
                              prepare=_tested)
    assert reference["tlb"][0]


@pytest.mark.parametrize("seed", range(4))
def test_diagnosis_reaches_a_faulty_spare(seed):
    def divert(device):
        _healthy_row_onto_faulty_spare(device)
        device.set_repair_mode(True)

    reference = diagnose_both(lambda: build(seed, defects=2),
                              prepare=divert)
    assert reference["diversions"] > 0 and reference["records"]


@pytest.mark.parametrize("seed", range(4))
def test_diagnosis_faulty_spare_rows(seed):
    def make():
        device = build(seed, defects=3)
        DefectInjector(rng=random.Random(100 + seed)).inject(
            device.array, 3)  # may land on spare rows
        return device

    diagnose_both(make)
    diagnose_both(make, prepare=_tested)


@pytest.mark.parametrize("spare_cols", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_diagnosis_spare_columns(spare_cols, seed):
    def steer(device):
        for col in range(spare_cols):
            device.colsteer.record(3 + 7 * col)
        device.set_repair_mode(True)

    diagnose_both(lambda: build(seed, spare_cols=spare_cols))
    reference = diagnose_both(lambda: build(seed, spare_cols=spare_cols),
                              prepare=steer)
    assert reference["steer"][0]


@pytest.mark.parametrize("binding", port_bindings(2), ids=lambda b: b[0])
@pytest.mark.parametrize("seed", range(4))
def test_diagnosis_dual_port_bindings(binding, seed):
    _, write_port, read_port = binding
    reference = diagnose_both(
        lambda: build(seed, FaultMix(intermittent=0.2), ports=2),
        view=lambda d: PortView(d, write_port=write_port,
                                read_port=read_port))
    assert reference["port_ops"][write_port] > 0


@pytest.mark.parametrize("seed", range(6))
def test_diagnosis_read_first_march(seed):
    def dirty(device):
        rng = random.Random(seed)
        bits = device.array._bits
        bits[:] = bytes(rng.randrange(2) for _ in range(len(bits)))

    reference = diagnose_both(lambda: build(seed, defects=2),
                              march=READ_FIRST, prepare=dirty)
    assert reference["records"]
    diagnose_both(lambda: build(seed, defects=2), march=READ_FIRST)


def test_diagnosis_reads_disagreeing_with_the_element_write():
    march = parse_march("inconsistent", "m(w0,r1); u(r0,w1)")
    reference = diagnose_both(lambda: build(3, defects=1), march=march)
    assert len(reference["records"]) >= 16 * 4


def test_diagnosis_through_faulty_infrastructure():
    diagnose_both(
        lambda: build(5, FaultMix(intermittent=0.3)),
        view=lambda d: FaultyInfrastructure(
            d, random.Random(2), false_fail_rate=0.01,
            false_pass_rate=0.2))


def test_diagnosis_reads_only_busy_rows():
    """The pass reads word by word only on the faulty rows."""
    device = build(1, only("stuck_at"), defects=1, rows=64)
    reads = []
    read = device.read
    device.read = lambda address: (reads.append(address), read(address))[1]
    records = collect_fail_records(IFA_9, device, device.array.bpw)
    assert records
    assert {a // device.array.bpc for a in reads} == \
        set(device.array.faulty_rows())


def test_tutorial_diagnosis_example_runs(capsys):
    """The tutorial's diagnosis snippet, on the self-tested device the
    tutorial hands it."""
    text = (Path(__file__).resolve().parent.parent / "docs"
            / "TUTORIAL.md").read_text()
    block = next(code for code in re.findall(r"```python\n(.*?)```",
                                              text, re.S)
                 if "collect_fail_records" in code)
    config = RamConfig(words=256, bpw=8, bpc=4, spares=4)
    device = BisrRam.from_config(config)
    DefectInjector(rng=random.Random(1)).inject(device.array, 3)
    BistScheduler(IFA_9, config.bpw).run(device)
    exec(block, {"device": device, "config": config})
    assert "(3 spares needed)" in capsys.readouterr().out


# -- 2-D repair -----------------------------------------------------------

ROWS, BPW, BPC = 16, 4, 2


def small_2d():
    return BisrRam(rows=ROWS, bpw=BPW, bpc=BPC, spares=2, spare_cols=2)


def repair_both(make, monkeypatch):
    """(reference, library) observations of one 2-D repair run each."""
    sides = []
    for dense in (True, False):
        device = make()
        with monkeypatch.context() as patch:
            if dense:
                patch.setattr(repair2d, "collect_fail_records",
                              collect_fail_records_dense)
            result = TwoDRepairController(IFA_9, device.array.bpw).run(
                device)
        sides.append({**observe(device), "result": result.to_dict()})
    assert sides[1] == sides[0]
    return sides[0]["result"]


def _column_fault():
    device = small_2d()
    array = device.array
    array.inject(ColumnStuck(3, array.total_rows, array.row_stride, 1))
    return device


def _faulty_spare_row():
    device = small_2d()
    array = device.array
    array.inject(StuckAt(array.cell_index(ROWS, 1, 0), 1))
    array.inject(RowStuck(3, array.row_stride, 1))
    return device


def _faulty_spare_column():
    device = _column_fault()
    device.array.inject(StuckAt(device.array.spare_cell_index(5, 0), 1))
    return device


def _unrepairable():
    device = small_2d()
    array = device.array
    for row in (1, 5, 9):
        array.inject(RowStuck(row, array.row_stride, 1))
    return device


def test_2d_column_fault_steers(monkeypatch):
    result = repair_both(_column_fault, monkeypatch)
    assert result["cols_steered"] == [3] and result["cycles"] == 2


def test_2d_faulty_spare_row(monkeypatch):
    result = repair_both(_faulty_spare_row, monkeypatch)
    assert result["outcome"]["spares_used"] == 2


def test_2d_faulty_spare_column(monkeypatch):
    result = repair_both(_faulty_spare_column, monkeypatch)
    assert result["spare_cols_used"] == 2


def test_2d_unrepairable_device_degrades(monkeypatch):
    result = repair_both(_unrepairable, monkeypatch)
    assert result["outcome"]["degraded"]
    assert result["outcome"]["unrepaired_rows"]


@pytest.mark.parametrize("mix", [FaultMix(column_defect=0.3),
                                 FaultMix(intermittent=0.3, wearout=0.2)],
                         ids=["columns", "intermittent"])
@pytest.mark.parametrize("seed", range(8))
def test_2d_seeded_devices(mix, seed, monkeypatch):
    def make():
        device = BisrRam(rows=16, bpw=8, bpc=4, spares=4, spare_cols=2)
        DefectInjector(rng=random.Random(seed), mix=mix).inject(
            device.array, 4)
        return device

    result = repair_both(make, monkeypatch)
    assert result["outcome"]["probe_reads"] > 0


# -- transparent BIST -------------------------------------------------------


def _random_image(seed):
    def fill(device):
        rng = random.Random(1000 + seed)
        for address in range(device.word_count):
            device.write(address, rng.randrange(1 << device.array.bpw))
    return fill


@pytest.mark.parametrize("diverted", [False, True],
                         ids=["plain", "diverted"])
@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(15))
def test_transparent_matches_the_reference(march, seed, diverted):
    sides = []
    for run in (transparent_run_dense,
                lambda m, bpw, t: TransparentBist(m, bpw).run(t)):
        device = build(seed, FaultMix(intermittent=0.2), defects=3)
        if diverted:
            _tested(device)
        _random_image(seed)(device)
        result = run(march, device.array.bpw, device)
        sides.append({**observe(device), "result": result})
    assert sides[1] == sides[0]


def _dense_transparent(self, target):
    return transparent_run_dense(self.march, self.mask.bit_length(),
                                 target)


@pytest.mark.parametrize("seed", range(6))
def test_field_repair_matches_the_reference(seed, monkeypatch):
    """A device in service through three maintenance cycles, each after
    a new defect, with the reference and the library transparent pass."""
    sides = []
    for dense in (True, False):
        device = BisrRam(rows=16, bpw=8, bpc=4, spares=4)
        _random_image(seed)(device)
        injector = DefectInjector(rng=random.Random(seed),
                                  mix=FaultMix(intermittent=0.2))
        controller = FieldRepairController(IFA_9, device)
        cycles = []
        with monkeypatch.context() as patch:
            if dense:
                patch.setattr(TransparentBist, "run", _dense_transparent)
            for _ in range(3):
                injector.inject(device.array, 1)
                cycles.append(controller.maintenance_cycle())
        sides.append({**observe(device), "cycles": cycles})
    assert sides[1] == sides[0]
