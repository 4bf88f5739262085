"""TRPLA: the pseudo-NMOS NOR-NOR control PLA, behavioural model + files.

"The microprogrammed control unit is called Test and Repair Controller
PLA (TRPLA) ... implemented as a pseudo-NMOS NOR-NOR PLA loaded with
the control code.  During layout synthesis of the BISR-RAM module, the
control code is read in at runtime by BISRAMGEN from two input files
(one for the AND plane, the other for the OR plane)."

The behavioural model evaluates the personality in sum-of-products
form (:meth:`Trpla.evaluate`, the reference).  :attr:`Trpla.table`
compiles the same personality once into a dense truth table over the
packed input word, which is what the clocked controller indexes.  In
the silicon, each plane is a NOR array and the product terms
appear active-low between the planes; De Morgan makes the NOR-NOR pair
compute exactly the AND-OR evaluated here, so the model and the
:func:`~repro.cells.pla.pla_cell` layout agree cycle for cycle.

:func:`write_plane_files` / :func:`read_plane_files` implement the two
plane files: one 0/1 row per product term, whitespace-free, matching
the "changing these files to implement a different test algorithm is a
simple and straightforward matter" workflow.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import List, Sequence, Tuple

#: Widest PLA :attr:`Trpla.table` compiles (a 65,536-entry table).
MAX_TABLE_INPUTS = 16

# Plane cell byte -> binary digit: any programmed (non-zero) device is 1.
_DIGITS = b"0" + b"1" * 255


def _mask(cells_msb_first: Sequence[int]) -> int:
    """Pack plane cells, most significant first, into an int."""
    return int(bytes(cells_msb_first).translate(_DIGITS), 2)


class Trpla:
    """Evaluate a NOR-NOR PLA personality.

    Args:
        and_plane: terms x (2 * n_inputs) matrix; column ``2k`` is the
            true literal of input ``k``, column ``2k+1`` its complement.
        or_plane: terms x n_outputs matrix.
    """

    def __init__(
        self,
        and_plane: Sequence[Sequence[int]],
        or_plane: Sequence[Sequence[int]],
    ) -> None:
        if not and_plane:
            raise ValueError("AND plane must have at least one term")
        width = len(and_plane[0])
        if width == 0 or width % 2:
            raise ValueError(
                "AND plane width must be a positive even number "
                "(true/complement column pairs)"
            )
        if any(len(r) != width for r in and_plane):
            raise ValueError("ragged AND plane")
        if len(or_plane) != len(and_plane):
            raise ValueError("OR plane must have one row per product term")
        out_width = len(or_plane[0]) if or_plane else 0
        if out_width == 0 or any(len(r) != out_width for r in or_plane):
            raise ValueError("ragged or empty OR plane")
        self.and_plane = [tuple(r) for r in and_plane]
        self.or_plane = [tuple(r) for r in or_plane]
        self.n_inputs = width // 2
        self.n_outputs = out_width

    @property
    def term_count(self) -> int:
        return len(self.and_plane)

    def active_terms(self, inputs: Sequence[int]) -> List[int]:
        """Indices of product terms selected by the input vector."""
        if len(inputs) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} inputs, got {len(inputs)}"
            )
        literals = []
        for value in inputs:
            literals.append(1 if value else 0)
            literals.append(0 if value else 1)
        active = []
        for t, row in enumerate(self.and_plane):
            # A term is pulled low (deselected) by any programmed device
            # whose literal line is high while the literal is false;
            # equivalently, it stays high iff every programmed literal
            # holds.
            if all(literals[c] for c, bit in enumerate(row) if bit):
                active.append(t)
        return active

    def evaluate(self, inputs: Sequence[int]) -> Tuple[int, ...]:
        """Output vector for the given inputs (sum of products)."""
        outputs = [0] * self.n_outputs
        for t in self.active_terms(inputs):
            for o, bit in enumerate(self.or_plane[t]):
                if bit:
                    outputs[o] = 1
        return tuple(outputs)

    @cached_property
    def table(self) -> Tuple[int, ...]:
        """Dense truth table: packed input word -> packed output word.

        Input ``k`` is bit ``k`` of the index; output ``o`` is bit ``o``
        of the entry.  Each AND row lowers to the masks of its
        programmed true and complement literals (a term with both
        literals of one input never fires) and each OR row to an output
        mask; a term ORs its output mask into every index it matches,
        enumerated as the submasks of its don't-care inputs.  Built on
        first use, once per instance; :meth:`evaluate` is the reference
        it is tested against.
        """
        n = self.n_inputs
        if n > MAX_TABLE_INPUTS:
            raise ValueError(
                f"a {n}-input PLA is too wide for a dense table "
                f"(limit {MAX_TABLE_INPUTS})"
            )
        table = [0] * (1 << n)
        full = (1 << n) - 1
        for and_row, or_row in zip(self.and_plane, self.or_plane):
            true = _mask(and_row[-2::-2])
            comp = _mask(and_row[::-2])
            out = _mask(or_row[::-1])
            if true & comp or not out:
                continue
            free = full & ~(true | comp)
            sub = free
            while True:
                table[true | sub] |= out
                if not sub:
                    break
                sub = (sub - 1) & free
        return tuple(table)

    def lookup(self, packed: int) -> int:
        """Packed output word for a packed input word (see :attr:`table`)."""
        if not 0 <= packed < 1 << self.n_inputs:
            raise ValueError(
                f"packed input {packed} outside {self.n_inputs} bits"
            )
        return self.table[packed]

    def transistor_count(self) -> int:
        """Programmed device count across both planes (area metric)."""
        return sum(sum(r) for r in self.and_plane) + sum(
            sum(r) for r in self.or_plane
        )


def render_plane_text(plane) -> str:
    """One plane as control-code text, one 0/1 row per product term.

    The single source of the on-disk format: :func:`write_plane_files`
    and the artifact store both persist exactly this string, so cached
    and freshly generated plane files are byte-identical.
    """
    lines = ["".join(str(int(bool(b))) for b in row) for row in plane]
    return "\n".join(lines) + "\n"


def write_plane_files(and_path, or_path, and_plane, or_plane) -> None:
    """Write the two control-code files, one 0/1 row per product term."""
    for path, plane in ((and_path, and_plane), (or_path, or_plane)):
        Path(path).write_text(render_plane_text(plane))


def read_plane_files(and_path, or_path) -> Tuple[list, list]:
    """Read the two control-code files back into personality matrices.

    Raises:
        ValueError: on non-binary characters or mismatched row counts —
            a corrupt control program must not silently produce a
            controller that tests nothing.
    """
    planes = []
    for path in (and_path, or_path):
        rows = []
        for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"{path}:{ln}: non-binary control code")
            rows.append([int(ch) for ch in line])
        planes.append(rows)
    and_plane, or_plane = planes
    if len(and_plane) != len(or_plane):
        raise ValueError(
            f"plane files disagree on term count: "
            f"{len(and_plane)} vs {len(or_plane)}"
        )
    return and_plane, or_plane
