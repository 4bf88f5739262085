"""Reference PLA layout: every shape drawn through ``CellBuilder``.

The shape-by-shape body :func:`repro.cells.pla.pla_cell` had before it
stamped precomputed device templates.  ``tests/test_pla_stamping.py``
pins the stamped generator to it: the same ``(layer, Rect)`` list in
the same order, the same ports and the same content hash.
"""

from __future__ import annotations

from typing import Sequence

from repro.cells.base import CellBuilder
from repro.cells.pla import _COL_PITCH, _ROW_PITCH, _X_FIRST_COL, _Y_FIRST_ROW
from repro.layout.cell import Cell
from repro.tech.process import Process


def pla_cell(
    process: Process,
    and_plane: Sequence[Sequence[int]],
    or_plane: Sequence[Sequence[int]],
    name: str = "pla",
) -> Cell:
    """Generate a PLA from its personality matrices.

    Args:
        process: target process.
        and_plane: ``terms x literals`` matrix of 0/1; literal columns
            come in (true, complement) pairs, i.e. ``2 * n_inputs``
            columns.
        or_plane: ``terms x outputs`` matrix of 0/1.
        name: cell name.

    Raises:
        ValueError: on ragged or inconsistent matrices.
    """
    n_terms = len(and_plane)
    if n_terms == 0:
        raise ValueError("AND plane must have at least one product term")
    n_literals = len(and_plane[0])
    if n_literals == 0 or any(len(r) != n_literals for r in and_plane):
        raise ValueError("AND plane rows must be non-empty and equal length")
    if len(or_plane) != n_terms:
        raise ValueError(
            f"OR plane has {len(or_plane)} rows, expected {n_terms}"
        )
    n_outputs = len(or_plane[0]) if or_plane[0] else 0
    if n_outputs == 0 or any(len(r) != n_outputs for r in or_plane):
        raise ValueError("OR plane rows must be non-empty and equal length")

    b = CellBuilder(name, process)

    def row_y(r: int) -> int:
        return _Y_FIRST_ROW + _ROW_PITCH * r

    def lit_x(c: int) -> int:
        return _X_FIRST_COL + _COL_PITCH * c

    and_end = lit_x(n_literals - 1) + 10
    trunk_x = and_end + 6
    handoff_x = trunk_x + 10
    or_first = handoff_x + 14

    def out_x(j: int) -> int:
        return or_first + _COL_PITCH * j

    top_rows = row_y(n_terms - 1)
    height = top_rows + 34
    width = out_x(n_outputs - 1) + 9 + 8

    # Supply distribution: VDD rail left edge + top edge; GND trunk
    # between the planes, per-term GND rows (AND), per-output GND
    # columns (OR), and a bottom GND strip joining them.
    b.rect("metal1", 0, 0, 4, height)                    # VDD left rail
    b.rect("metal1", 0, height - 4, width, height)       # VDD top rail
    b.wire_v("metal1", 0, height - 8, trunk_x)           # GND trunk
    b.rect("metal1", trunk_x - 2, 0, width, 3)           # GND bottom strip

    # Product-term pull-ups (left header) + product metal2 lines.
    b.wire_v("poly", 3, top_rows + 8, 14)                # pc_and gate line
    b.contact("poly", 14, 3)
    for r in range(n_terms):
        y = row_y(r)
        b.rect("pdiff", 7, y - 2, 21, y + 2)
        b.contact("pdiff", 10, y)
        b.wire_h("metal1", 0, 10, y)
        b.contact("pdiff", 18, y)
        b.via1(18, y)
        b.wire_h("metal2", 16, handoff_x, y)             # product line
        b.wire_h("metal1", 26, trunk_x, y + 8)           # GND row
    b.rect("nwell", 2, _Y_FIRST_ROW - 7, 26, top_rows + 7)

    # AND-plane literal columns with input taps at the bottom.
    for c in range(n_literals):
        x = lit_x(c)
        b.wire_v("poly", 3, top_rows + 8, x)
        b.contact("poly", x, 3)

    # AND-plane devices.
    for r in range(n_terms):
        y = row_y(r)
        for c in range(n_literals):
            if not and_plane[r][c]:
                continue
            x = lit_x(c)
            b.rect("ndiff", x - 5, y - 2, x + 5, y + 2)
            b.contact("ndiff", x - 4, y)
            b.via1(x - 4, y)                             # to product line
            b.contact("ndiff", x + 4, y)
            b.wire_v("metal1", y, y + 8, x + 4)          # to GND row

    # Product handoff: metal2 product line down to a poly line that
    # crosses the OR plane.
    or_poly_end = out_x(n_outputs - 1) + 5
    for r in range(n_terms):
        y = row_y(r)
        b.via1(handoff_x, y)
        b.contact("poly", handoff_x, y)
        b.wire_h("poly", handoff_x, or_poly_end, y)

    # OR-plane output columns, gnd columns, and devices.
    or_gnd_top = height - 26
    for j in range(n_outputs):
        x = out_x(j)
        b.wire_v("metal2", 0, height - 6, x)             # output line
        b.wire_v("metal1", 0, or_gnd_top, x + 9)         # GND column
        for r in range(n_terms):
            if not or_plane[r][j]:
                continue
            y = row_y(r)
            b.rect("ndiff", x - 2, y - 6, x + 2, y + 6)
            b.contact("ndiff", x, y + 4)
            b.via1(x, y + 4)                             # to output line
            b.contact("ndiff", x, y - 4)
            b.wire_h("metal1", x, x + 9, y - 4)          # to GND column

    # Output pull-ups (top header) gated by pc_or.
    y_pu = height - 14
    b.wire_h("poly", or_first - 8, or_poly_end, y_pu)    # pc_or gate line
    b.contact("poly", or_first - 8, y_pu)
    for j in range(n_outputs):
        x = out_x(j)
        b.rect("pdiff", x - 2, y_pu - 7, x + 2, y_pu + 7)
        b.contact("pdiff", x, y_pu + 5)
        b.wire_v("metal1", y_pu + 5, height, x)
        b.contact("pdiff", x, y_pu - 5)
        b.via1(x, y_pu - 5)
    b.rect(
        "nwell", or_first - 8, y_pu - 12,
        out_x(n_outputs - 1) + 7, y_pu + 12,
    )

    # Ports.
    for c in range(n_literals):
        kind = "t" if c % 2 == 0 else "c"
        b.point_port(f"in{c // 2}_{kind}", "metal1", lit_x(c), 3, "in")
    for j in range(n_outputs):
        b.edge_port(
            f"out{j}", "metal2", "bottom",
            out_x(j) - 1.5, out_x(j) + 1.5, 0, "out",
        )
    b.point_port("pc_and", "metal1", 14, 3, "in")
    b.point_port("pc_or", "metal1", or_first - 8, y_pu, "in")
    b.edge_port("vdd", "metal1", "left", 0, height, 0, "supply")
    b.edge_port("gnd", "metal1", "bottom", trunk_x - 1.5, trunk_x + 1.5,
                0, "supply")
    return b.finish()
