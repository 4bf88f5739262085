"""Reference layouts: arrays expanded, and the hand-rolled tiling loops.

The layout hierarchy stores repeated structures as
:class:`~repro.layout.cell.InstanceArray` entries.  Two oracles check
that this changes nothing a reader of the layout can see:

* :func:`expand_arrays` rewrites every array of a hierarchy as plain
  :meth:`~repro.layout.cell.Cell.add_instance` calls — the form a CIF
  read-back produces, and the one hierarchical DRC cannot fold;
* the ``*_loop`` builders are the per-instance loops the floorplan
  used before it placed arrays, kept here verbatim so
  ``tests/test_layout_cell.py`` can compare instance sequences and CIF
  bytes against them.
"""

from repro.cells import (
    cam_cell,
    column_mux_cell,
    comparator_slice_cell,
    johnson_bit_cell,
    row_decoder_cell,
    senseamp_cell,
    tristate_buffer_cell,
    wordline_driver_cell,
    write_driver_cell,
)
from repro.cells.sram6t import HEIGHT_LAMBDA as CELL_H
from repro.cells.sram6t import WIDTH_LAMBDA as CELL_W
from repro.geometry import Point, Transform
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell


def expand_arrays(top: Cell) -> Cell:
    """Replace every array under ``top`` by plain instances, in place."""
    for cell in top.subcells().values():
        placed = cell.instances()
        cell._instances = []
        cell._expanded = None
        for inst in placed:
            cell.add_instance(inst.cell, inst.transform, inst.name)
    return top


def tile_loop(parent, cell, columns, rows, pitch_x, pitch_y,
              origin=Point(0, 0), name_prefix="t",
              alternate_mirror_y=False):
    for r in range(rows):
        for c in range(columns):
            orient = Orientation.R0
            y = origin.y + r * pitch_y
            if alternate_mirror_y and r % 2 == 1:
                orient = Orientation.MX
                y += pitch_y
            t = Transform(orient, Point(origin.x + c * pitch_x, y))
            parent.add_instance(cell, t, name=f"{name_prefix}_{r}_{c}")


def row_strip_loop(config, bit, strap, spare_cols):
    strip = Cell("row_strip")
    x = 0
    for c in range(config.columns + spare_cols):
        if strap is not None and c and c % config.strap_every == 0:
            strip.add_instance(
                strap, Transform(translation=Point(x, 0)),
                name=f"strap_{c}",
            )
            x += strap.width
        strip.add_instance(
            bit, Transform(translation=Point(x, 0)), name=f"bit_{c}"
        )
        x += bit.width
    return strip


def column_row_loop(config, process, template, name, spare_cols):
    lam = process.lambda_cu
    strap_w = config.strap_width_lambda * lam
    row = Cell(name)
    x = 0
    for c in range(config.columns + spare_cols):
        if config.strap_every and c and c % config.strap_every == 0:
            x += strap_w
        row.add_instance(
            template, Transform(translation=Point(x, 0)),
            name=f"{template.name}_{c}",
        )
        x += CELL_W * lam
    return row


def sense_row_loop(config, process):
    lam = process.lambda_cu
    sense = senseamp_cell(process, config.gate_size)
    writer = write_driver_cell(process, config.gate_size)
    strap_w = config.strap_width_lambda * lam
    row = Cell("sense_row")
    for i in range(config.bpw):
        first_col = i * config.bpc
        x = first_col * CELL_W * lam
        if config.strap_every:
            x += (first_col // config.strap_every) * strap_w
        row.add_instance(
            sense, Transform(translation=Point(x, 0)), name=f"sa_{i}"
        )
        row.add_instance(
            writer,
            Transform(translation=Point(x + sense.width + 8 * lam, 0)),
            name=f"wd_{i}",
        )
    return row


def decoder_column_loop(config, process, spares, pitch=0,
                        name="decoder_col"):
    lam = process.lambda_cu
    decoder = row_decoder_cell(process, config.row_address_bits)
    driver = wordline_driver_cell(process, config.gate_size)
    col = Cell(name)
    pitch = pitch or CELL_H * lam
    for r in range(config.rows):
        y = r * pitch
        col.add_instance(
            decoder, Transform(translation=Point(0, y)), name=f"dec_{r}"
        )
        col.add_instance(
            driver,
            Transform(translation=Point(decoder.width, y)),
            name=f"drv_{r}",
        )
    for s in range(spares):
        y = (config.rows + s) * pitch
        col.add_instance(
            driver,
            Transform(translation=Point(decoder.width, y)),
            name=f"spare_drv_{s}",
        )
    return col


def cam_rows_loop(cell, process, config, entries, bits):
    lam = process.lambda_cu
    cam = cam_cell(process)
    tri = tristate_buffer_cell(process, config.gate_size)
    pitch_y = CELL_H * lam
    for s in range(entries):
        for b in range(bits):
            cell.add_instance(
                cam,
                Transform(translation=Point(b * cam.width, s * pitch_y)),
                name=f"cam_{s}_{b}",
            )
        cell.add_instance(
            tri,
            Transform(translation=Point(bits * cam.width + 8 * lam,
                                        s * pitch_y)),
            name=f"tri_{s}",
        )
    return cam, tri


def tlb_loop(config, process):
    tlb = Cell("tlb")
    cam_rows_loop(tlb, process, config, config.spares,
                  config.row_address_bits)
    return tlb


def colsteer_loop(config, process):
    lam = process.lambda_cu
    col_addr_bits = max(1, (config.columns - 1).bit_length())
    steer = Cell("colsteer")
    cam, tri = cam_rows_loop(steer, process, config, config.spare_cols,
                             col_addr_bits)
    mux = column_mux_cell(process)
    mux_x = col_addr_bits * cam.width + tri.width + 16 * lam
    for i in range(config.bpw):
        steer.add_instance(
            mux,
            Transform(translation=Point(mux_x + i * mux.width, 0)),
            name=f"steer_mux_{i}",
        )
    return steer


def datagen_loop(config, process):
    stages = config.bpw.bit_length()
    johnson = johnson_bit_cell(process)
    xor = comparator_slice_cell(process)
    dg = Cell("datagen")
    x = 0
    for i in range(stages):
        dg.add_instance(
            johnson, Transform(translation=Point(x, 0)), name=f"j_{i}"
        )
        x += johnson.width
    for i in range(config.bpw):
        dg.add_instance(
            xor, Transform(translation=Point(x, 0)), name=f"xor_{i}"
        )
        x += xor.width
    return dg


def tile_row_loop(template, count, name):
    row = Cell(name)
    for i in range(count):
        row.add_instance(
            template,
            Transform(translation=Point(i * template.width, 0)),
            name=f"{name}_{i}",
        )
    return row
