"""Unit tests for the column-multiplexed memory array model."""

import random
from dataclasses import fields

import pytest

from repro.memsim import DefectInjector, FaultMix, MemoryArray
from repro.memsim.faults import Fault, StateCoupling, StuckAt, StuckOpen


class TestGeometry:
    def test_counts(self):
        a = MemoryArray(rows=8, bpw=4, bpc=4, spares=2)
        assert a.words == 32
        assert a.total_words == 40
        assert a.phys_cols == 16
        assert a.cell_count == 160

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryArray(rows=0, bpw=4, bpc=4)
        with pytest.raises(ValueError):
            MemoryArray(rows=4, bpw=3, bpc=4)  # not power of two
        with pytest.raises(ValueError):
            MemoryArray(rows=4, bpw=4, bpc=4, spares=-1)

    def test_split_address(self):
        a = MemoryArray(rows=8, bpw=4, bpc=4)
        assert a.split_address(0) == (0, 0)
        assert a.split_address(5) == (1, 1)
        assert a.split_address(31) == (7, 3)

    def test_split_address_range(self):
        a = MemoryArray(rows=8, bpw=4, bpc=4, spares=1)
        a.split_address(35)  # spare word: legal
        with pytest.raises(ValueError):
            a.split_address(36)

    def test_cell_index_column_multiplexing(self):
        """Word bit i lives at physical column i*bpc + col (Fig. 2)."""
        a = MemoryArray(rows=8, bpw=4, bpc=4)
        assert a.cell_index(0, 0, 0) == 0
        assert a.cell_index(0, 1, 0) == 4
        assert a.cell_index(0, 1, 3) == 7
        assert a.cell_index(2, 0, 0) == 32

    def test_cell_index_validation(self):
        a = MemoryArray(rows=8, bpw=4, bpc=4)
        with pytest.raises(ValueError):
            a.cell_index(8, 0, 0)
        with pytest.raises(ValueError):
            a.cell_index(0, 4, 0)
        with pytest.raises(ValueError):
            a.cell_index(0, 0, 4)


class TestReadWrite:
    def test_roundtrip_all_words(self):
        a = MemoryArray(rows=4, bpw=8, bpc=2)
        for addr in range(a.words):
            a.write_word(addr, addr * 7 % 256)
        for addr in range(a.words):
            assert a.read_word(addr) == addr * 7 % 256

    def test_words_in_same_row_independent(self):
        a = MemoryArray(rows=4, bpw=4, bpc=4)
        a.write_word(0, 0xF)
        a.write_word(1, 0x0)
        assert a.read_word(0) == 0xF
        assert a.read_word(1) == 0x0

    def test_row_override(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2, spares=1)
        a.write_word(0, 0xA, row_override=4)  # spare row
        assert a.read_word(0) == 0  # regular row untouched
        assert a.read_word(0, row_override=4) == 0xA

    def test_counters(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2)
        a.write_word(0, 1)
        a.read_word(0)
        a.read_word(1)
        assert a.write_count == 1 and a.read_count == 2

    def test_fill(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2, spares=1)
        a.fill(0b1010)
        for addr in range(a.total_words):
            assert a.read_word(addr) == 0b1010


class TestFaultManagement:
    def test_inject_and_list(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2)
        f = StuckAt(a.cell_index(1, 2, 0), 1)
        a.inject(f)
        assert a.faults == (f,)
        assert a.faulty_rows() == [1]

    def test_inject_out_of_range_rejected(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2)
        with pytest.raises(ValueError):
            a.inject(StuckAt(a.cell_count, 1))

    def test_clear_faults(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2)
        a.inject(StuckAt(0, 1))
        a.clear_faults()
        a.write_word(0, 0)
        assert a.read_word(0) == 0


class _EveryCell(Fault):
    """Identity hooks on every cell: forces the per-bit path everywhere."""

    def __init__(self, cell_count):
        self.cell_count = cell_count

    def cells(self):
        return tuple(range(self.cell_count))


GEOMETRY = dict(rows=8, bpw=4, bpc=4, spares=2, spare_cols=2)

#: One single-kind mix per fault class, plus a mixed in-field draw.
KINDS = [f.name for f in fields(FaultMix)]
MIXES = {kind: FaultMix(**{k: float(k == kind) for k in KINDS})
         for kind in KINDS}
MIXES["in_field"] = FaultMix(intermittent=0.3, wearout=0.3)


def _twin_arrays(mix, seed, defects):
    """(fast, oracle): identically faulted arrays; the oracle also
    carries the every-cell identity fault."""
    arrays = []
    for oracle in (False, True):
        array = MemoryArray(**GEOMETRY)
        DefectInjector(rng=random.Random(seed), mix=mix).inject(
            array, defects)
        if oracle:
            array.inject(_EveryCell(array.cell_count))
            assert array.faulty_rows() == list(range(array.total_rows))
        arrays.append(array)
    return arrays


def _state(array):
    return ([array.raw(c) for c in range(array.cell_count)],
            [array.last_column_value(c) for c in range(array.row_stride)],
            array.read_count, array.write_count)


def _random_ops(array, seed, count=500):
    """A seeded op sequence: reads and over-wide writes, spare rows
    through ``row_override``, empty and steered ``col_map``s, and
    retention pauses; returns every read word and the final state."""
    rng = random.Random(seed)
    maps = [None, {}, {0: 0}, {5: 1, 10: 0}, {3: 0, 12: 1, 15: 1}]
    reads = []
    for _ in range(count):
        pick = rng.random()
        if pick < 0.03:
            array.apply_retention()
            continue
        address = rng.randrange(array.total_words)
        row = None
        if rng.random() < 0.2:
            row = rng.randrange(array.total_rows)
        col_map = maps[rng.randrange(len(maps))] if rng.random() < 0.3 \
            else None
        if pick < 0.5:
            word = rng.getrandbits(array.bpw + 3)
            array.write_word(address, word, row_override=row,
                             col_map=col_map)
        else:
            reads.append(array.read_word(address, row_override=row,
                                         col_map=col_map))
    return reads, _state(array)


class TestWholeWordPathAgreesWithPerBit:
    """Fault-free rows move whole words as slices; the oracle forces
    the per-bit fault-hook path on every row of the same class."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(MIXES))
    def test_random_op_sequences(self, kind, seed):
        fast, oracle = _twin_arrays(MIXES[kind], seed, defects=3)
        stride = fast.row_stride
        assert fast.faulty_rows() == sorted(
            {cell // stride for f in fast.faults for cell in f.cells()})
        if kind != "column_defect":  # a column defect spans every row
            assert len(fast.faulty_rows()) < fast.total_rows
        assert _random_ops(fast, seed) == _random_ops(oracle, seed)

    def test_fault_free_array(self):
        fast, oracle = _twin_arrays(FaultMix(), 0, defects=0)
        assert fast.faulty_rows() == []
        assert _random_ops(fast, 9) == _random_ops(oracle, 9)

    def test_stuck_open_senses_a_fault_free_rows_drive(self):
        arrays = []
        for oracle in (False, True):
            a = MemoryArray(rows=4, bpw=4, bpc=2)
            a.inject(StuckOpen(a.cell_index(2, 1, 1)))
            if oracle:
                a.inject(_EveryCell(a.cell_count))
            a.write_word(1, 0b0010)   # row 0, column 1: fault-free
            arrays.append((a.read_word(5), _state(a)))  # row 2, column 1
        assert arrays[0] == arrays[1]
        assert arrays[0][0] & 0b0010  # bit 1 echoes row 0's drive

    def test_one_faulty_word_leaves_its_row_neighbours_whole(self):
        """A fault picks the per-bit path for its own words only: the
        other words of its rows still move as slices, and the two paths
        agree with the every-cell oracle either way."""
        arrays = []
        for oracle in (False, True):
            a = MemoryArray(**GEOMETRY)
            a.inject(StuckAt(a.cell_index(2, 1, 3), 1))  # word 11
            # A coupling fault keeps both its words busy: aggressor
            # word 17 (row 4), victim word 22 (row 5).
            a.inject(StateCoupling(a.cell_index(4, 0, 1),
                                   a.cell_index(5, 3, 2), 1, 0))
            a.inject(StuckAt(a.spare_cell_index(6, 1), 0))  # steered only
            if oracle:
                a.inject(_EveryCell(a.cell_count))
            arrays.append(a)
        fast = arrays[0]
        assert fast.faulty_rows() == [2, 4, 5, 6]
        resolved = []
        resolve = fast._resolve_cell
        fast._resolve_cell = lambda *args: (resolved.append(args[0]),
                                            resolve(*args))[1]
        sweeps = []
        for a in arrays:
            for address in range(a.words):
                a.write_word(address, 0b0101)
            sweeps.append([a.read_word(address) for address in range(a.words)])
        assert sweeps[0] == sweeps[1]
        # Words 11, 17 and 22 resolve bit by bit, once per write and read.
        assert sorted(set(resolved)) == [2, 4, 5]
        assert len(resolved) == 3 * 2 * fast.bpw
        assert _random_ops(fast, 3, count=800) == \
            _random_ops(arrays[1], 3, count=800)

    def test_wide_words_are_masked(self):
        a = MemoryArray(rows=2, bpw=4, bpc=2)
        a.write_word(3, 0x1F5)
        assert a.read_word(3) == 0x5

    def test_row_override_range_checked(self):
        a = MemoryArray(rows=2, bpw=4, bpc=2, spares=1)
        for row in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                a.read_word(0, row_override=row)

    def test_faulty_rows_index_follows_inject_and_clear(self):
        a = MemoryArray(rows=4, bpw=4, bpc=2, spares=1)
        a.inject(StuckAt(a.cell_index(3, 0, 0), 1))
        a.inject(StuckAt(a.cell_index(1, 3, 1), 0))
        assert a.faulty_rows() == [1, 3]
        a.write_word(6, 0)  # row 3: per-bit, the stuck cell holds
        assert a.read_word(6) == 1
        a.clear_faults()
        assert a.faulty_rows() == []
        a.write_word(6, 0)
        assert a.read_word(6) == 0
