"""Macrocell generation and floorplan assembly.

Builds the macrocells the paper names — RAM array, sense amplifier and
row/column decoder arrays, DATAGEN, ADDGEN, TLB, TRPLA, STREG — and
abuts them into the overall module:

::

    +---------------------------+------------------------------------+
    | decoders | wl drivers     |  precharge row                     |
    |          |                +------------------------------------+
    |          |                |  array (rows + spares, straps)     |
    |          |                +------------------------------------+
    |          |                |  column mux row                    |
    |          |                |  sense amps / write drivers        |
    +---------------------------+------------------------------------+
    |  BIST/BISR strip: TRPLA, TLB, ADDGEN, DATAGEN, STREG (placed   |
    |  by the decreasing-area placer)                                 |
    +-----------------------------------------------------------------+

The datapath rows are assembled by exact abutment (bit-line pitch is
shared by the bit cell, precharge, and mux cells); the control strip
uses :func:`~repro.pnr.placer.place_decreasing_area`.  Every repeated
structure is placed as an :class:`~repro.layout.cell.InstanceArray`
(:meth:`~repro.layout.cell.Cell.add_array`), so hierarchical DRC sees
the period instead of thousands of unrelated instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, Optional

from repro.bist.controller import build_test_program
from repro.bist.march import IFA_9, MarchTest
from repro.bist.microcode import AssembledPla, assemble
from repro.cells import (
    cam_cell,
    column_mux_cell,
    counter_bit_cell,
    dff_cell,
    johnson_bit_cell,
    comparator_slice_cell,
    pla_cell,
    precharge_cell,
    precharge_dp_cell,
    row_decoder_cell,
    senseamp_cell,
    sram6t_cell,
    sram_dp_cell,
    strap_cell,
    tristate_buffer_cell,
    wordline_driver_cell,
    write_driver_cell,
)
from repro.cells.sram6t import HEIGHT_LAMBDA as CELL_H
from repro.cells.sram6t import WIDTH_LAMBDA as CELL_W
from repro.cells.sram_dp import HEIGHT_LAMBDA as DP_CELL_H
from repro.core.config import RamConfig
from repro.geometry import Point, Transform
from repro.layout.cell import Cell
from repro.pnr.placer import Block, place_decreasing_area
from repro.tech.process import Process, get_process


@dataclass
class Floorplan:
    """Assembly result: the top cell plus the macrocell inventory."""

    top: Cell
    macrocells: Dict[str, Cell]
    areas_cu2: Dict[str, int]
    #: The TRPLA personality; None for the ``with_bisr=False`` baseline.
    assembled_pla: Optional[AssembledPla]

    #: mm^2 per square centimicron (1 cu = 1e-5 mm).
    _CU2_TO_MM2 = 1e-10

    def area_mm2(self, name: str = None) -> float:
        """Bounding-box area in mm^2 of one macro (or the whole module)."""
        if name is None:
            box = self.top.bbox()
            return box.area * self._CU2_TO_MM2 if box else 0.0
        return self.areas_cu2[name] * self._CU2_TO_MM2

    def component_area_mm2(self) -> float:
        """Sum of macrocell areas in mm^2 — the silicon actually spent.

        The top bounding box additionally contains the assembly's dead
        space; Table I compares spent silicon, so the overhead metric
        uses this sum (the bounding box is also reported).
        """
        return sum(self.areas_cu2.values()) * self._CU2_TO_MM2

    def bist_bisr_area_cu2(self) -> int:
        """Silicon spent on test-and-repair (TRPLA, TLB, generators,
        and the column steer when spare columns exist)."""
        keys = ("trpla", "tlb", "addgen", "datagen", "streg", "colsteer")
        return sum(self.areas_cu2[k] for k in keys if k in self.areas_cu2)

    def spare_rows_area_cu2(self, config: RamConfig) -> int:
        """Area of the redundant rows inside the array macro."""
        array_area = self.areas_cu2["array"]
        return array_area * config.spares // config.total_rows

    def spare_cols_area_cu2(self, config: RamConfig) -> int:
        """Area of the redundant columns inside the array macro."""
        if not config.spare_cols:
            return 0
        array_area = self.areas_cu2["array"]
        return array_area * config.spare_cols // config.total_columns


def build_floorplan(config: RamConfig, march: MarchTest = IFA_9,
                    with_bisr: bool = True) -> Floorplan:
    """Generate all macrocells and assemble the module.

    ``with_bisr=False`` builds the plain RAM (no spares, no BIST/BISR)
    used as the Table I baseline.
    """
    process = get_process(config.process)
    lam = process.lambda_cu
    macrocells: Dict[str, Cell] = {}

    # ---- datapath macrocells --------------------------------------------
    spares = config.spares if with_bisr else 0
    spare_cols = config.spare_cols if with_bisr else 0
    array = _build_array(config, process, spares, spare_cols)
    macrocells["array"] = array
    macrocells["precharge_row"] = _build_column_row(
        config, process, precharge_cell(process, config.gate_size),
        "precharge_row", spare_cols,
    )
    macrocells["mux_row"] = _build_column_row(
        config, process, column_mux_cell(process), "mux_row", spare_cols
    )
    macrocells["sense_row"] = _build_sense_row(config, process)
    row_pitch = (DP_CELL_H if config.ports == 2 else CELL_H) * lam
    macrocells["decoder_col"] = _build_decoder_column(
        config, process, spares, pitch=row_pitch
    )
    if config.ports == 2:
        # The second port brings its own bit-line service: a port-B
        # precharge row under the array (port-A lines pass through it)
        # and a second row-decoder column on the far side of the array.
        macrocells["precharge_row_b"] = _build_column_row(
            config, process, precharge_dp_cell(process, config.gate_size),
            "precharge_row_b", spare_cols,
        )
        macrocells["decoder_col_b"] = _build_decoder_column(
            config, process, spares, pitch=row_pitch, name="decoder_col_b"
        )

    # ---- BIST/BISR macrocells ---------------------------------------------
    assembled = None
    if with_bisr:
        assembled = assemble(build_test_program(march, passes=2))
        macrocells["trpla"] = pla_cell(
            process, assembled.and_plane, assembled.or_plane, name="trpla"
        )
        macrocells["tlb"] = _build_tlb(config, process)
        macrocells["addgen"] = _tile_row(
            counter_bit_cell(process), config.address_bits, "addgen"
        )
        macrocells["datagen"] = _build_datagen(config, process)
        macrocells["streg"] = _tile_row(
            dff_cell(process), assembled.state_bits, "streg"
        )
        if spare_cols:
            macrocells["colsteer"] = _build_colsteer(config, process)

    # ---- assembly ----------------------------------------------------------------
    top = Cell("bisr_ram" if with_bisr else "ram")
    x_data = macrocells["decoder_col"].width
    y = 0

    def put(name: str, x: int, y_pos: int) -> None:
        top.add_instance(
            macrocells[name], Transform(translation=Point(x, y_pos)),
            name=name,
        )

    # Control strip at the bottom (BISR builds only).
    if with_bisr:
        strip_names = ["trpla", "tlb", "addgen", "datagen", "streg"]
        if "colsteer" in macrocells:
            strip_names.append("colsteer")
        blocks = [
            Block.from_cell(macrocells[n]) for n in strip_names
        ]
        # Block spacing must clear the largest same-layer spacing rule
        # (the n-well), or abutting macros' wells violate at top level.
        strip_gap = max(4 * lam, process.rules.min_space("nwell"))
        placement = place_decreasing_area(
            blocks,
            target_width=x_data + macrocells["array"].width,
            spacing=strip_gap,
        )
        for name in strip_names:
            rect = placement.locations[name]
            top.add_instance(
                macrocells[name],
                Transform(translation=Point(rect.x1, rect.y1)),
                name=name,
            )
        y = placement.outline().height + 8 * lam

    put("sense_row", x_data, y)
    y += macrocells["sense_row"].height
    put("mux_row", x_data, y)
    y += macrocells["mux_row"].height
    if config.ports == 2:
        put("precharge_row_b", x_data, y)
        y += macrocells["precharge_row_b"].height
    y_array = y
    put("array", x_data, y)
    put("decoder_col", 0, y)
    if config.ports == 2:
        gap = max(4 * lam, process.rules.min_space("nwell"))
        put("decoder_col_b",
            x_data + macrocells["array"].width + gap, y_array)
    y += macrocells["array"].height
    put("precharge_row", x_data, y)

    areas = {name: cell.area() for name, cell in macrocells.items()}
    return Floorplan(
        top=top, macrocells=macrocells, areas_cu2=areas,
        assembled_pla=assembled,
    )


# ---------------------------------------------------------------------------
# macro builders
# ---------------------------------------------------------------------------


def _build_array(config: RamConfig, process: Process,
                 spares: int, spare_cols: int = 0) -> Cell:
    """The bit-cell array with strap columns and spare rows on top.

    Bit-line ports are re-exported on the array's own bottom and top
    edges so the mux row and precharge row connect to it by pure
    abutment — checkable with :func:`repro.pnr.abutting_ports`.

    Spare columns are ordinary bit-cell columns appended after the
    regular ones at the same pitch and strap cadence — "fully
    integrated with the main array", like the spare rows — so DRC and
    abutment hold by the same construction that proves them for the
    regular array.
    """
    from repro.layout.cell import Port

    lam = process.lambda_cu
    dual = config.ports == 2
    bit = sram_dp_cell(process) if dual else sram6t_cell(process)
    cell_h = DP_CELL_H if dual else CELL_H
    strap = (
        strap_cell(process, config.strap_width_lambda, dual_port=dual)
        if config.strap_every
        else None
    )
    # One row strip: bit cells with straps every strap_every columns.
    strip = Cell("row_strip")
    columns = config.columns + spare_cols
    strap_w = strap.width if strap is not None else 0
    _tile_columns(strip, bit, "bit_{}", columns, bit.width,
                  config.strap_every, strap_w, strap)
    column_x = [_column_x(c, bit.width, config.strap_every, strap_w)
                for c in range(columns)]
    array = Cell("array")
    total_rows = config.rows + spares
    array.tile(
        strip, columns=1, rows=total_rows,
        pitch_x=strip.width, pitch_y=cell_h * lam,
        alternate_mirror_y=True, name_prefix="row",
    )
    # Re-export the bit-line landings on the array boundary.
    top_y = total_rows * cell_h * lam
    pair_names = ("bl", "blb", "bl2", "blb2") if dual else ("bl", "blb")
    for c, cx in enumerate(column_x):
        for name in pair_names:
            local = bit.port(name)
            r = local.rect
            array.add_port(Port(
                f"{name}_{c}", local.layer,
                r.translated(Point(cx, 0)),
            ))
            array.add_port(Port(
                f"{name}_t_{c}", local.layer,
                r.translated(Point(cx, top_y)),
            ))
    return array


def _build_column_row(config: RamConfig, process: Process,
                      template: Cell, name: str,
                      spare_cols: int = 0) -> Cell:
    """A row of per-bit-line-pair cells matching the array pitch.

    The template's ``bl``/``blb`` ports are re-exported per column on
    both the bottom edge (where the template places them) and, when the
    template carries top-edge twins, the top edge.  Spare columns get
    the same per-pair cell as regular ones (they are full bit-line
    pairs and need precharge/mux service identically).
    """
    from repro.layout.cell import Port

    lam = process.lambda_cu
    strap_w = config.strap_width_lambda * lam if config.strap_every else 0
    pitch = CELL_W * lam
    columns = config.columns + spare_cols
    row = Cell(name)
    _tile_columns(row, template, f"{template.name}_{{}}", columns, pitch,
                  config.strap_every, strap_w)
    for c in range(columns):
        x = _column_x(c, pitch, config.strap_every, strap_w)
        for pname in ("bl", "blb", "bl2", "blb2",
                      "bl_t", "blb_t", "bl2_t", "blb2_t"):
            if template.has_port(pname):
                local = template.port(pname)
                row.add_port(Port(
                    f"{pname}_{c}", local.layer,
                    local.rect.translated(Point(x, 0)),
                ))
    return row


def _build_sense_row(config: RamConfig, process: Process) -> Cell:
    """Sense amp + write driver per I/O subarray."""
    lam = process.lambda_cu
    sense = senseamp_cell(process, config.gate_size)
    writer = write_driver_cell(process, config.gate_size)
    strap_w = config.strap_width_lambda * lam

    def column_x(col: int) -> int:
        # Each subarray starts where its first bit column sits in the
        # array strip, so a boundary strap shifts the subarray too.
        # (The bit-cell strip and the mux row use the same accounting;
        # a mismatch here misaligns the sense amps by a strap width at
        # every strapped subarray boundary.)
        return _column_x(col, CELL_W * lam, config.strap_every, strap_w)

    # The layout repeats every lcm(bpc, strap_every) columns.
    span = lcm(config.bpc, config.strap_every or config.bpc)
    period = []
    for i in range(span // config.bpc):
        x = column_x(i * config.bpc)
        period.append((sense, Transform(translation=Point(x, 0)),
                       "sa_{}", i))
        period.append((writer, Transform(
            translation=Point(x + sense.width + 8 * lam, 0)), "wd_{}", i))
    row = Cell("sense_row")
    row.add_array(period, 2 * config.bpw, Point(column_x(span), 0),
                  index_step=span // config.bpc)
    return row


def _build_decoder_column(config: RamConfig, process: Process,
                          spares: int, pitch: int = 0,
                          name: str = "decoder_col") -> Cell:
    """Row decoders + word-line drivers for every (regular) row, and
    bare drivers for the spare rows (driven by the TLB match logic).

    ``pitch`` is the row pitch in centimicrons (defaults to the 6T row
    pitch; dual-port arrays pass their taller pitch).
    """
    lam = process.lambda_cu
    decoder = row_decoder_cell(process, config.row_address_bits)
    driver = wordline_driver_cell(process, config.gate_size)
    col = Cell(name)
    pitch = pitch or CELL_H * lam
    col.add_array([
        (decoder, Transform(), "dec_{}", 0),
        (driver, Transform(translation=Point(decoder.width, 0)), "drv_{}", 0),
    ], 2 * config.rows, Point(0, pitch))
    if spares:
        col.add_array([(driver, Transform(translation=Point(
            decoder.width, config.rows * pitch)), "spare_drv_{}", 0)],
            spares, Point(0, pitch))
    return col


def _build_tlb(config: RamConfig, process: Process) -> Cell:
    """CAM array: spares entries x row-address bits, plus the spare
    word-line tristate drivers."""
    lam = process.lambda_cu
    cam = cam_cell(process)
    tri = tristate_buffer_cell(process, config.gate_size)
    tlb = Cell("tlb")
    _tile_entries(tlb, cam, tri, config.spares, config.row_address_bits,
                  CELL_H * lam, 8 * lam)
    return tlb


def _build_colsteer(config: RamConfig, process: Process) -> Cell:
    """The column-steering register file and data-path mux.

    One entry per spare column: CAM cells holding the faulty column
    address (compared against the live column-select), a tristate
    driver onto the spare bus, and one 2:1 steering mux per I/O
    subarray to substitute the spare bus for the faulty datum.
    """
    lam = process.lambda_cu
    cam = cam_cell(process)
    tri = tristate_buffer_cell(process, config.gate_size)
    mux = column_mux_cell(process)
    col_addr_bits = max(1, (config.columns - 1).bit_length())
    steer = Cell("colsteer")
    _tile_entries(steer, cam, tri, config.spare_cols, col_addr_bits,
                  CELL_H * lam, 8 * lam)
    mux_x = col_addr_bits * cam.width + tri.width + 16 * lam
    steer.add_array(
        [(mux, Transform(translation=Point(mux_x, 0)), "steer_mux_{}", 0)],
        config.bpw, Point(mux.width, 0))
    return steer


def _build_datagen(config: RamConfig, process: Process) -> Cell:
    """Johnson counter stages + per-bit XOR comparator slices."""
    stages = config.bpw.bit_length()  # log2(bpw) + 1
    johnson = johnson_bit_cell(process)
    xor = comparator_slice_cell(process)
    dg = Cell("datagen")
    dg.add_array([(johnson, Transform(), "j_{}", 0)], stages,
                 Point(johnson.width, 0))
    dg.add_array([(xor, Transform(translation=Point(
        stages * johnson.width, 0)), "xor_{}", 0)], config.bpw,
        Point(xor.width, 0))
    return dg


def _tile_row(template: Cell, count: int, name: str) -> Cell:
    """A horizontal row of identical cells."""
    if count < 1:
        raise ValueError(f"{name}: need at least one cell")
    row = Cell(name)
    row.add_array([(template, Transform(), f"{name}_{{}}", 0)], count,
                  Point(template.width, 0))
    return row


def _column_x(col: int, pitch: int, run: int, gap: int) -> int:
    """Where bit column ``col`` starts: columns ``pitch`` apart, with a
    ``gap`` (a strap column) before every nonzero multiple of ``run``
    (``run=0``: no gaps)."""
    return col * pitch + (col // run) * gap if run else col * pitch


def _tile_columns(row: Cell, cell: Cell, name: str, count: int,
                  pitch: int, run: int, gap: int,
                  strap: Optional[Cell] = None) -> None:
    """``count`` columns of ``cell``, ``pitch`` apart, in runs of ``run``.

    Consecutive runs are ``gap`` apart, the gap holding ``strap``
    (named ``strap_<first column after it>``) when one is given;
    ``run=0`` means one unbroken run.  ``name`` is the column's name
    template (see :meth:`~repro.layout.cell.Cell.add_array`).
    """
    run = run or count
    period = [(cell, Transform(translation=Point(j * pitch, 0)), name, j)
              for j in range(run)]
    placed = count
    if strap is not None:
        period.append((strap, Transform(translation=Point(run * pitch, 0)),
                       "strap_{}", run))
        placed += (count - 1) // run
    row.add_array(period, placed, Point(run * pitch + gap, 0),
                  index_step=run)


def _tile_entries(cell: Cell, cam: Cell, tri: Cell, entries: int,
                  bits: int, pitch: int, gap: int) -> None:
    """CAM register rows: ``bits`` CAM cells and a tristate per entry."""
    period = [(cam, Transform(translation=Point(b * cam.width, 0)),
               f"cam_{{}}_{b}", 0) for b in range(bits)]
    period.append((tri, Transform(translation=Point(
        bits * cam.width + gap, 0)), "tri_{}", 0))
    cell.add_array(period, entries * len(period), Point(0, pitch))
