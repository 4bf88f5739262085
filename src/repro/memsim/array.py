"""The column-multiplexed SRAM array model.

Addressing follows the paper's Fig. 2 exactly: the array is ``bpw``
I/O subarrays of ``bpc`` physical columns each; word address ``a``
selects row ``a // bpc`` and column ``a % bpc``; word bit ``i`` lives at
physical column ``i * bpc + (a % bpc)``.  ``spares`` extra rows sit
above the regular rows, "fully integrated with the main array and
[sharing] the same column multiplexers"; they are reached only through
the spare word addresses ``regular_words + s * bpc + c``.

``spare_cols`` extra bit-line pairs sit to the right of the regular
columns (physical columns ``phys_cols .. phys_cols + spare_cols - 1``)
and run the full array height, spare rows included.  They are reached
only through the column-steering map (``col_map``): normal addressing
never touches them, exactly like spare rows and the TLB.

Cell indices are flat ``row * row_stride + phys_col`` where
``row_stride = phys_cols + spare_cols``; with no spare columns this is
the historical ``row * phys_cols + phys_col`` layout, bit for bit.

Word access has two paths.  A word no fault touches, read or written
without column steering, moves as one strided slice of the cell store
(word bit ``i`` of column ``c`` is cell ``base + c + i * bpc``), even
on a row where another word is faulty.  Every other access resolves
bit by bit through the fault hooks; that per-bit path is the reference
the slice path is tested against.  The fault-sparse march
(``BisrRam.quiet_sweep``) also moves whole runs of fault-free rows at
once with :meth:`sweep_rows`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.memsim.faults import Fault

# Cell bytes (0/1) <-> the ASCII digits ``int(..., 2)`` and ``format``
# speak, for moving a whole word between an int and a strided slice.
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


class MemoryArray:
    """A bit-accurate faultable SRAM array.

    Args:
        rows: regular word-line count.
        bpw: bits per word (power of two).
        bpc: bits per column — the column-mux factor (power of two).
        spares: spare rows (0 allowed: a plain non-redundant array).
        spare_cols: spare bit-line pairs (0 allowed: row-only BISR).
    """

    def __init__(self, rows: int, bpw: int, bpc: int,
                 spares: int = 0, spare_cols: int = 0) -> None:
        for name, value in (("rows", rows), ("bpw", bpw), ("bpc", bpc)):
            if value < 1:
                raise ValueError(f"{name} must be positive")
        for name, value in (("bpw", bpw), ("bpc", bpc)):
            if value & (value - 1):
                raise ValueError(f"{name} must be a power of two")
        if spares < 0:
            raise ValueError("spares must be non-negative")
        if spare_cols < 0:
            raise ValueError("spare_cols must be non-negative")
        self.rows = rows
        self.bpw = bpw
        self.bpc = bpc
        self.spares = spares
        self.spare_cols = spare_cols
        self.total_rows = rows + spares
        self.phys_cols = bpw * bpc
        self.row_stride = self.phys_cols + spare_cols
        self._word_mask = (1 << bpw) - 1
        self._word_format = f"0{bpw}b"
        self._bits = bytearray(self.total_rows * self.row_stride)
        self._faults: List[Fault] = []
        self._cell_faults: Dict[int, List[Fault]] = defaultdict(list)
        # Rows holding any faulted cell (what the fault-sparse march
        # splits on), and the words ``row * bpc + column`` whose regular
        # cells are faulted: every other word takes the slice path.
        self._faulty_rows: Set[int] = set()
        self._faulty_words: Set[int] = set()
        # Last value sensed or driven on each physical column.
        self._column_last = bytearray(self.row_stride)
        self.read_count = 0
        self.write_count = 0

    # -- geometry ----------------------------------------------------------

    @property
    def words(self) -> int:
        """Regular (CPU-visible) word count."""
        return self.rows * self.bpc

    @property
    def total_words(self) -> int:
        """Regular plus spare word count."""
        return self.total_rows * self.bpc

    @property
    def cell_count(self) -> int:
        return self.total_rows * self.row_stride

    def cell_index(self, row: int, word_bit: int, column: int) -> int:
        """Flat cell index of word bit ``word_bit`` at (row, column)."""
        if not 0 <= row < self.total_rows:
            raise ValueError(f"row {row} out of range")
        if not 0 <= word_bit < self.bpw:
            raise ValueError(f"word bit {word_bit} out of range")
        if not 0 <= column < self.bpc:
            raise ValueError(f"column {column} out of range")
        return row * self.row_stride + word_bit * self.bpc + column

    def spare_cell_index(self, row: int, spare_col: int) -> int:
        """Flat cell index of spare column ``spare_col`` at ``row``."""
        if not 0 <= row < self.total_rows:
            raise ValueError(f"row {row} out of range")
        if not 0 <= spare_col < self.spare_cols:
            raise ValueError(f"spare column {spare_col} out of range")
        return row * self.row_stride + self.phys_cols + spare_col

    def split_address(self, address: int) -> Tuple[int, int]:
        """Word address -> (row, column)."""
        if not 0 <= address < self.total_words:
            raise ValueError(
                f"address {address} outside 0..{self.total_words - 1}"
            )
        return address // self.bpc, address % self.bpc

    def _locate(self, address: int,
                row_override: Optional[int]) -> Tuple[int, int]:
        """(physical row, column) an access to ``address`` reaches."""
        row, column = self.split_address(address)
        if row_override is None:
            return row, column
        if not 0 <= row_override < self.total_rows:
            raise ValueError(f"row {row_override} out of range")
        return row_override, column

    # -- fault management ------------------------------------------------------

    def inject(self, fault: Fault) -> None:
        """Attach a fault to the array."""
        self._faults.append(fault)
        for cell in fault.cells():
            if not 0 <= cell < self.cell_count:
                raise ValueError(
                    f"fault {fault.describe()} touches cell {cell} "
                    f"outside the array"
                )
            self._cell_faults[cell].append(fault)
            row, phys = divmod(cell, self.row_stride)
            self._faulty_rows.add(row)
            if phys < self.phys_cols:
                self._faulty_words.add(row * self.bpc + phys % self.bpc)

    def clear_faults(self) -> None:
        self._faults.clear()
        self._cell_faults.clear()
        self._faulty_rows.clear()
        self._faulty_words.clear()

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return tuple(self._faults)

    def faulty_rows(self) -> List[int]:
        """Rows touched by any injected fault, ascending."""
        return sorted(self._faulty_rows)

    # -- raw cell access (used by fault hooks) -----------------------------------

    def raw(self, cell: int) -> int:
        """Stored value, bypassing fault read effects."""
        return self._bits[cell]

    def force(self, cell: int, value: int) -> None:
        """Overwrite a cell, bypassing fault write effects."""
        self._bits[cell] = 1 if value else 0

    def last_column_value(self, phys_col: int) -> int:
        """Last value sensed on a physical column (stuck-open model)."""
        return self._column_last[phys_col]

    # -- word access ----------------------------------------------------------------

    def _resolve_cell(self, row: int, bit: int, column: int,
                      col_map: Optional[Mapping[int, int]],
                      ) -> Tuple[int, int]:
        """(flat cell, resolved physical column) for one word bit.

        ``col_map`` is the column-steering map: logical physical column
        -> spare column index.  A steered bit's cell lives in the spare
        column at the same row; everything else follows Fig. 2.
        """
        logical = bit * self.bpc + column
        if col_map is not None:
            spare = col_map.get(logical)
            if spare is not None:
                phys = self.phys_cols + spare
                return row * self.row_stride + phys, phys
        return row * self.row_stride + logical, logical

    def read_word(self, address: int, row_override: int = None,
                  col_map: Optional[Mapping[int, int]] = None) -> int:
        """Read the ``bpw``-bit word at ``address``.

        ``row_override`` substitutes the physical row while keeping the
        column from the address — the BISR diversion path.  ``col_map``
        steers individual physical columns onto spare columns — the
        2-D repair path.
        """
        row, column = self._locate(address, row_override)
        self.read_count += 1
        if not col_map and row * self.bpc + column not in self._faulty_words:
            base = row * self.row_stride
            bits = self._bits[base + column:base + self.phys_cols:self.bpc]
            self._column_last[column:self.phys_cols:self.bpc] = bits
            return int(bits[::-1].translate(_TO_ASCII), 2)
        word = 0
        for bit in range(self.bpw):
            cell, phys = self._resolve_cell(row, bit, column, col_map)
            value = self._bits[cell]
            for fault in self._cell_faults.get(cell, ()):
                value = fault.on_read(cell, value, self)
            value = 1 if value else 0
            self._column_last[phys] = value
            if value:
                word |= 1 << bit
        return word

    def write_word(self, address: int, word: int,
                   row_override: int = None,
                   col_map: Optional[Mapping[int, int]] = None) -> None:
        """Write the ``bpw``-bit ``word`` at ``address``."""
        row, column = self._locate(address, row_override)
        self.write_count += 1
        if not col_map and row * self.bpc + column not in self._faulty_words:
            bits = self._word_bits(word)
            base = row * self.row_stride
            self._bits[base + column:base + self.phys_cols:self.bpc] = bits
            self._column_last[column:self.phys_cols:self.bpc] = bits
            return
        touched = []
        for bit in range(self.bpw):
            cell, phys = self._resolve_cell(row, bit, column, col_map)
            old = self._bits[cell]
            new = (word >> bit) & 1
            for fault in self._cell_faults.get(cell, ()):
                new = fault.on_write(cell, old, new)
            self._bits[cell] = 1 if new else 0
            self._column_last[phys] = self._bits[cell]
            touched.append(cell)
        # Coupling side effects fire after the whole word lands.
        for cell in touched:
            for fault in self._cell_faults.get(cell, ()):
                fault.after_write(self, cell)

    def apply_retention(self) -> None:
        """Model the data-retention pause: leaky cells decay."""
        for fault in self._faults:
            fault.on_retention(self)

    def fill(self, pattern_word: int) -> None:
        """Fault-free bulk initialise every word (test setup helper)."""
        self._fill_rows(0, self.total_rows, self.row_image(pattern_word))

    # -- whole-row access (the fault-sparse march) --------------------------------

    def _word_bits(self, word: int) -> bytes:
        """``word`` as cell bytes, word bit ``i`` at index ``i``."""
        bits = format(word & self._word_mask, self._word_format)
        return bits.encode("ascii").translate(_FROM_ASCII)[::-1]

    def row_image(self, word: int) -> bytes:
        """The regular cells of a row that holds ``word`` at every column."""
        bits = self._word_bits(word)
        image = bytearray(self.phys_cols)
        for column in range(self.bpc):
            image[column::self.bpc] = bits
        return bytes(image)

    def rows_hold(self, lo: int, hi: int, image: bytes) -> bool:
        """True when rows ``lo..hi-1`` all store ``image``."""
        stride, width = self.row_stride, self.phys_cols
        if stride == width:
            return self._bits[lo * stride:hi * stride] == image * (hi - lo)
        return all(self._bits[base:base + width] == image
                   for base in range(lo * stride, hi * stride, stride))

    def _fill_rows(self, lo: int, hi: int, image: bytes) -> None:
        stride, width = self.row_stride, self.phys_cols
        if stride == width:
            self._bits[lo * stride:hi * stride] = image * (hi - lo)
            return
        for base in range(lo * stride, hi * stride, stride):
            self._bits[base:base + width] = image

    def sweep_rows(self, lo: int, hi: int, reads: int, writes: int,
                   final: Optional[bytes], last: bytes) -> None:
        """Apply one march element to fault-free rows ``lo..hi-1`` at once.

        Leaves what the word-by-word slice path leaves: the counters
        advance by ``reads`` and ``writes``, every row holds ``final``
        (the image of the element's last write; None for an element
        that only reads) and every regular column last carried
        ``last``, the image of the element's last op.  The caller
        guarantees that no fault touches these rows and that each read
        would have returned what it expects.
        """
        self.read_count += reads
        self.write_count += writes
        if final is not None:
            self._fill_rows(lo, hi, final)
        self._column_last[:self.phys_cols] = last
