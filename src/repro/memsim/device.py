"""The complete BISR-RAM device: array + TLB + address diversion.

Implements the :class:`~repro.bist.controller.TestTarget` protocol, so
both controller implementations can drive it, and the normal-mode API a
system would use after self-repair.  "After a fault or defect has been
diagnosed and the system switches back to normal operational mode, any
incoming address intended for a faulty memory location is diverted to a
new address."

With ``spare_cols > 0`` the device also carries a
:class:`~repro.bisr.colsteer.ColumnSteer`: in repair mode, bit lines
recorded as faulty are steered onto spare columns in the data path,
composing freely with TLB row diversion (spare rows have spare-column
cells too, so a diverted row still benefits from steering).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bisr.colsteer import ColumnSteer
from repro.bisr.tlb import Tlb
from repro.memsim.array import MemoryArray


class BisrRam:
    """A self-repairable RAM.

    Args:
        rows: regular rows.
        bpw: bits per word.
        bpc: bits per column (column-mux factor).
        spares: spare rows (also the TLB entry count).
        spare_cols: spare bit-line pairs (also the steer entry count).
        ports: access ports (1 or 2).  Both ports see the same storage
            through the same TLB diversion and column steering — the
            physical cell is shared; only the access path is doubled.
    """

    def __init__(self, rows: int, bpw: int, bpc: int, spares: int,
                 spare_cols: int = 0, ports: int = 1) -> None:
        if spares < 1:
            raise ValueError("a BISR RAM needs at least one spare row")
        if ports not in (1, 2):
            raise ValueError("ports must be 1 or 2")
        self.array = MemoryArray(rows, bpw, bpc, spares, spare_cols)
        self.tlb = Tlb(regular_rows=rows, spares=spares)
        self.colsteer = ColumnSteer(
            regular_cols=self.array.phys_cols, spares=spare_cols)
        self.ports = ports
        self.repair_mode = False
        self.diversion_count = 0
        self.port_ops = [0] * ports
        self._remapped_rows = set()

    @classmethod
    def from_config(cls, config) -> "BisrRam":
        """The device a :class:`~repro.core.config.RamConfig` describes.

        Simulation needs no layout, so this is all a compiled macro's
        :meth:`~repro.core.compiler.CompiledRam.simulation_model` does.
        """
        return cls(rows=config.rows, bpw=config.bpw, bpc=config.bpc,
                   spares=config.spares, spare_cols=config.spare_cols,
                   ports=config.ports)

    # -- TestTarget protocol -------------------------------------------------

    @property
    def word_count(self) -> int:
        """The CPU-visible address space: regular words only."""
        return self.array.words

    def read(self, address: int, port: int = 0) -> int:
        self._check_port(port)
        row = self._physical_row(address)
        return self.array.read_word(
            address, row_override=row, col_map=self._col_map())

    def write(self, address: int, word: int, port: int = 0) -> None:
        self._check_port(port)
        row = self._physical_row(address)
        self.array.write_word(
            address, word, row_override=row, col_map=self._col_map())

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.ports:
            raise ValueError(
                f"port {port} out of range for a {self.ports}-port device")
        self.port_ops[port] += 1

    def set_repair_mode(self, enabled: bool) -> None:
        """Enable/disable TLB diversion (BIST pass 1 runs with it off).

        Called at the start of every test pass; also re-arms the
        one-remap-per-pass guard (see :meth:`record_fail`).
        """
        self.repair_mode = bool(enabled)
        self._remapped_rows = set()

    def record_fail(self, address: int) -> None:
        """Record the row of a failing *incoming* address in the TLB.

        The incoming (pre-diversion) row is recorded.  When diversion
        is active (an iterated repair pass), a failure of an
        already-mapped row means its spare is faulty, so the row
        re-records and advances to the next spare — at most once per
        pass: right after a mid-march remap, one read can still see the
        fresh spare's stale contents, and that echo must not burn
        another spare.
        """
        row = address // self.array.bpc
        remap = self.repair_mode
        if remap and row in self._remapped_rows:
            return
        if remap and self.tlb.translate(row)[1]:
            self._remapped_rows.add(row)
        self.tlb.record(row, remap=remap)

    def retention_wait(self) -> None:
        """The embedded processor tristates the interface; cells leak."""
        self.array.apply_retention()

    def quiet_sweep(self, expect: Sequence[int], final: Optional[int],
                    last: int, reads: int, writes: int,
                    read_port: int = 0, write_port: int = 0):
        """Split one march element into busy rows and a bulk step.

        A row is *busy* when a fault touches it (a coupling fault
        touches its aggressor and victim rows) or when repair mode is
        on and the TLB diverts it; with column steering active every
        row is.  The other rows are *quiet*: the element reads back
        what it expects there, records nothing and draws no random
        number, so it can advance a whole run of them at once.

        Args:
            expect: the words the element's reads before its first
                write expect.
            final: the word the element writes last; None when it only
                reads.
            last: the word the element's last op drives or senses.
            reads, writes: the element's ops of each kind per address.
            read_port, write_port: the ports those ops go through.

        Returns:
            ``(busy, advance)``: ``busy`` lists the ``(lo, hi)``
            word-address span of each busy row, ascending, which the
            caller runs op by op; ``advance(lo, hi)`` applies the
            element to the quiet words ``lo..hi-1`` (whole rows) and
            leaves the op counters, ``port_ops``, the cell image and
            the column history exactly as the op-by-op path would.
            None when the whole element must run op by op: steering
            is active, every row is busy, or a quiet row does not hold
            what a leading read expects.
        """
        if self.repair_mode and len(self.colsteer):
            return None
        array = self.array
        rows, bpc = array.rows, array.bpc
        busy = set(array.faulty_rows())
        if self.repair_mode:
            busy.update(self.tlb.mapped_rows())
        busy = sorted(row for row in busy if row < rows)
        edges = [0] + [edge for row in busy for edge in (row, row + 1)]
        edges.append(rows)
        quiet = [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2])
                 if lo < hi]
        if not quiet:
            return None
        for word in expect:
            image = array.row_image(word)
            if not all(array.rows_hold(lo, hi, image) for lo, hi in quiet):
                return None
        final_image = None if final is None else array.row_image(final)
        last_image = array.row_image(last)

        def advance(lo: int, hi: int) -> None:
            words = hi - lo
            self.port_ops[read_port] += words * reads
            self.port_ops[write_port] += words * writes
            array.sweep_rows(lo // bpc, hi // bpc, words * reads,
                             words * writes, final_image, last_image)

        return [(row * bpc, row * bpc + bpc) for row in busy], advance

    # -- internals ---------------------------------------------------------------

    def _physical_row(self, address: int) -> Optional[int]:
        if not self.repair_mode:
            return None
        row = address // self.array.bpc
        physical, diverted = self.tlb.translate(row)
        if diverted:
            self.diversion_count += 1
            return physical
        return None

    def _col_map(self) -> Optional[Dict[int, int]]:
        if not self.repair_mode or not len(self.colsteer):
            return None
        return self.colsteer.active_map()

    # -- normal-mode conveniences ---------------------------------------------------

    def reset_for_test(self) -> None:
        """Fresh self-test: clear the TLB/steer, leave repair mode off."""
        self.tlb.reset()
        self.colsteer.reset()
        self.repair_mode = False
        self.diversion_count = 0
        self._remapped_rows = set()

    def check_pattern(self, pattern_word: int) -> int:
        """Write-then-read the whole visible space; count mismatches.

        A quick post-repair sanity sweep used by the examples: with a
        successful repair it returns 0 even on a fault-injected array.
        """
        mismatches = 0
        for address in range(self.word_count):
            self.write(address, pattern_word)
        for address in range(self.word_count):
            if self.read(address) != pattern_word:
                mismatches += 1
        return mismatches

    def describe(self) -> str:
        a = self.array
        steer = (f", spare_cols={a.spare_cols}, "
                 f"steer_used={self.colsteer.spares_used}"
                 if a.spare_cols else "")
        return (
            f"BisrRam(rows={a.rows}, bpw={a.bpw}, bpc={a.bpc}, "
            f"spares={a.spares}, words={a.words}, "
            f"tlb_used={self.tlb.spares_used}{steer})"
        )
