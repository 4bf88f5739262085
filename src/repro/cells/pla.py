"""Pseudo-NMOS NOR-NOR PLA generator.

The test-and-repair controller "is implemented as a pseudo-NMOS NOR-NOR
PLA loaded with the control code.  During layout synthesis ... the
control code is read in at runtime by BISRAMGEN from two input files
(one for the AND plane, the other for the OR plane).  Changing these
files to implement a different test algorithm is a simple and
straightforward matter."

:func:`pla_cell` generates the layout from the two personality matrices:

* AND plane: one vertical poly column per input literal (true and
  complement), one horizontal metal-2 product line per term; a device is
  drawn at (term, literal) where the personality bit is set, pulling the
  product line toward the per-term ground row.
* OR plane: each product line hands off to a horizontal poly line that
  gates devices pulling vertical metal-2 output lines low.
* Clocked pseudo-NMOS pull-ups: one PMOS per product line (left header)
  and one per output line (top header), gated by the precharge lines.

Each repeated structure (term header, literal column, AND device,
handoff, output column, OR device, output pull-up) is drawn once as a
template and stamped by translation, in drawing order.

The logic function itself is evaluated by :class:`repro.bist.trpla.Trpla`
from the same matrices, so layout and behaviour always agree.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.cells.base import CellBuilder
from repro.geometry import Rect
from repro.layout.cell import Cell
from repro.tech.process import Process

_ROW_PITCH = 16       # product-term pitch, lambda
_COL_PITCH = 18       # literal/output column pitch, lambda
_Y_FIRST_ROW = 14
_X_FIRST_COL = 32

#: A device template: ``(layer, x1, y1, x2, y2)`` in centimicrons.
_Template = Tuple[Tuple[str, int, int, int, int], ...]


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
    lam = b.lam

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
    or_poly_end = out_x(n_outputs - 1) + 5
    or_gnd_top = height - 26
    y_pu = height - 14

    # Each repeated structure is drawn once, at the lambda origin, and
    # stamped by whole-lambda translation.  A whole lambda is a whole
    # number of centimicrons, so a stamped shape lands exactly where
    # drawing it in place would have rounded it.
    def template(draw: Callable[[CellBuilder], None]) -> _Template:
        t = CellBuilder(name, process)
        draw(t)
        return tuple((layer, r.x1, r.y1, r.x2, r.y2)
                     for layer, r in t.cell.shapes())

    def stamp(tpl: _Template, x: int, y: int) -> None:
        dx, dy = x * lam, y * lam
        b.cell.add_shapes([
            (layer, Rect(x1 + dx, y1 + dy, x2 + dx, y2 + dy))
            for layer, x1, y1, x2, y2 in tpl])

    def header(t: CellBuilder) -> None:
        # Product-term pull-up, its product metal2 line and GND row.
        t.rect("pdiff", 7, -2, 21, 2)
        t.contact("pdiff", 10, 0)
        t.wire_h("metal1", 0, 10, 0)
        t.contact("pdiff", 18, 0)
        t.via1(18, 0)
        t.wire_h("metal2", 16, handoff_x, 0)             # product line
        t.wire_h("metal1", 26, trunk_x, 8)               # GND row

    def literal(t: CellBuilder) -> None:
        t.wire_v("poly", 3, top_rows + 8, 0)
        t.contact("poly", 0, 3)

    def and_device(t: CellBuilder) -> None:
        t.rect("ndiff", -5, -2, 5, 2)
        t.contact("ndiff", -4, 0)
        t.via1(-4, 0)                                    # to product line
        t.contact("ndiff", 4, 0)
        t.wire_v("metal1", 0, 8, 4)                      # to GND row

    def handoff(t: CellBuilder) -> None:
        # Metal2 product line down to a poly line crossing the OR plane.
        t.via1(handoff_x, 0)
        t.contact("poly", handoff_x, 0)
        t.wire_h("poly", handoff_x, or_poly_end, 0)

    def output(t: CellBuilder) -> None:
        t.wire_v("metal2", 0, height - 6, 0)             # output line
        t.wire_v("metal1", 0, or_gnd_top, 9)             # GND column

    def or_device(t: CellBuilder) -> None:
        t.rect("ndiff", -2, -6, 2, 6)
        t.contact("ndiff", 0, 4)
        t.via1(0, 4)                                     # to output line
        t.contact("ndiff", 0, -4)
        t.wire_h("metal1", 0, 9, -4)                     # to GND column

    def pull_up(t: CellBuilder) -> None:
        t.rect("pdiff", -2, y_pu - 7, 2, y_pu + 7)
        t.contact("pdiff", 0, y_pu + 5)
        t.wire_v("metal1", y_pu + 5, height, 0)
        t.contact("pdiff", 0, y_pu - 5)
        t.via1(0, y_pu - 5)

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
    tpl = template(header)
    for r in range(n_terms):
        stamp(tpl, 0, row_y(r))
    b.rect("nwell", 2, _Y_FIRST_ROW - 7, 26, top_rows + 7)

    # AND-plane literal columns with input taps at the bottom.
    tpl = template(literal)
    for c in range(n_literals):
        stamp(tpl, lit_x(c), 0)

    # AND-plane devices.
    tpl = template(and_device)
    for r in range(n_terms):
        bits = and_plane[r]
        for c in range(n_literals):
            if bits[c]:
                stamp(tpl, lit_x(c), row_y(r))

    # Product handoff.
    tpl = template(handoff)
    for r in range(n_terms):
        stamp(tpl, 0, row_y(r))

    # OR-plane output columns, gnd columns, and devices.
    column, device = template(output), template(or_device)
    for j in range(n_outputs):
        x = out_x(j)
        stamp(column, x, 0)
        for r in range(n_terms):
            if or_plane[r][j]:
                stamp(device, x, row_y(r))

    # Output pull-ups (top header) gated by pc_or.
    b.wire_h("poly", or_first - 8, or_poly_end, y_pu)    # pc_or gate line
    b.contact("poly", or_first - 8, y_pu)
    tpl = template(pull_up)
    for j in range(n_outputs):
        stamp(tpl, out_x(j), 0)
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
