"""Unit tests for the layout cell hierarchy."""

import io

import pytest

from repro.cells import counter_bit_cell, dff_cell, precharge_cell
from repro.cells import column_mux_cell, sram6t_cell, strap_cell
from repro.core.config import RamConfig
from repro.core.floorplan import build_floorplan
from repro.geometry import Point, Rect, Transform
from repro.geometry.transform import Orientation
from repro.layout import Cell, InstanceArray, Port, write_cif
from repro.tech import get_process

from tests import layout_reference as ref


def leaf(name="leaf", w=10, h=6):
    c = Cell(name)
    c.add_shape("metal1", Rect(0, 0, w, h))
    c.add_port(Port("a", "metal1", Rect(0, 2, 0, 4)))
    return c


class TestCellBasics:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Cell("")

    def test_bbox_over_shapes(self):
        c = Cell("c")
        c.add_shape("poly", Rect(2, 3, 5, 9))
        c.add_shape("metal1", Rect(-1, 0, 1, 2))
        assert c.bbox() == Rect(-1, 0, 5, 9)

    def test_bbox_empty(self):
        assert Cell("c").bbox() is None
        assert Cell("c").area() == 0

    def test_bbox_includes_instances(self):
        parent = Cell("p")
        parent.add_instance(leaf(), Transform(translation=Point(100, 0)))
        assert parent.bbox() == Rect(100, 0, 110, 6)

    def test_bbox_cache_invalidation(self):
        c = Cell("c")
        c.add_shape("poly", Rect(0, 0, 1, 1))
        assert c.bbox() == Rect(0, 0, 1, 1)
        c.add_shape("poly", Rect(5, 5, 9, 9))
        assert c.bbox() == Rect(0, 0, 9, 9)

    def test_duplicate_port_rejected(self):
        c = leaf()
        with pytest.raises(ValueError):
            c.add_port(Port("a", "metal1", Rect(0, 0, 0, 1)))

    def test_port_lookup_error_lists_ports(self):
        with pytest.raises(KeyError, match="ports"):
            leaf().port("zz")

    def test_port_direction_validation(self):
        with pytest.raises(ValueError):
            Port("x", "metal1", Rect(0, 0, 0, 0), direction="sideways")


class TestInstances:
    def test_instance_port_transformed(self):
        parent = Cell("p")
        inst = parent.add_instance(
            leaf(), Transform(translation=Point(50, 10))
        )
        assert inst.port("a").rect == Rect(50, 12, 50, 14)

    def test_mirrored_instance_port(self):
        parent = Cell("p")
        inst = parent.add_instance(leaf(), Transform(Orientation.MY))
        assert inst.port("a").rect == Rect(0, 2, 0, 4)
        assert inst.bbox() == Rect(-10, 0, 0, 6)


class TestFlatten:
    def test_two_level_flatten(self):
        child = leaf()
        mid = Cell("mid")
        mid.add_instance(child, Transform(translation=Point(0, 100)))
        top = Cell("top")
        top.add_instance(mid, Transform(translation=Point(1000, 0)))
        flat = list(top.flatten())
        assert flat == [("metal1", Rect(1000, 100, 1010, 106))]

    def test_flatten_depth_limit(self):
        child = leaf()
        mid = Cell("mid")
        mid.add_shape("poly", Rect(0, 0, 1, 1))
        mid.add_instance(child, Transform())
        top = Cell("top")
        top.add_instance(mid, Transform())
        assert len(list(top.flatten(max_depth=1))) == 1  # mid's own shape
        assert len(list(top.flatten())) == 2

    def test_count_shapes(self):
        child = leaf()
        top = Cell("top")
        for i in range(5):
            top.add_instance(child, Transform(translation=Point(20 * i, 0)))
        assert top.count_shapes() == 5

    def test_subcells(self):
        child = leaf()
        mid = Cell("mid")
        mid.add_instance(child, Transform())
        top = Cell("top")
        top.add_instance(mid, Transform())
        assert set(top.subcells()) == {"top", "mid", "leaf"}


class TestTile:
    def test_tile_counts(self):
        top = Cell("top")
        got = top.tile(leaf(), columns=3, rows=2, pitch_x=10, pitch_y=6)
        assert len(got) == 6
        assert top.bbox() == Rect(0, 0, 30, 12)

    def test_tile_mirror_keeps_slots(self):
        top = Cell("top")
        top.tile(leaf(), columns=1, rows=4, pitch_x=10, pitch_y=6,
                 alternate_mirror_y=True)
        assert top.bbox() == Rect(0, 0, 10, 24)

    def test_tile_mirrored_row_flipped(self):
        c = Cell("asym")
        c.add_shape("metal1", Rect(0, 0, 10, 1))  # bottom-heavy marker
        top = Cell("top")
        top.tile(c, columns=1, rows=2, pitch_x=10, pitch_y=6,
                 alternate_mirror_y=True)
        shapes = sorted(r for _, r in top.flatten())
        # Row 0 marker at y 0..1; row 1 mirrored marker at the TOP of
        # its slot: y 11..12.
        assert shapes == [Rect(0, 0, 10, 1), Rect(0, 11, 10, 12)]

    def test_tile_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Cell("t").tile(leaf(), columns=0, rows=1, pitch_x=1, pitch_y=1)


def _placements(cell):
    return [(i.cell.name, i.transform, i.name) for i in cell.instances()]


def _cif(cell, deck="cda07"):
    out = io.StringIO()
    write_cif(cell, out, get_process(deck).layers)
    return out.getvalue()


class TestInstanceArray:
    def test_period_repeats_with_partial_tail(self):
        a, b = leaf("a"), leaf("b", w=4)
        top = Cell("top")
        array = top.add_array([(a, Transform(), "a_{}", 0),
                               (b, Transform(translation=Point(10, 0)),
                                "b_{}_x", 5)],
                              count=5, step=Point(20, 1), index_step=3)
        assert isinstance(array, InstanceArray)
        assert top.entries() == (array,)
        assert [(n, t.translation) for _, t, n in _placements(top)] == [
            ("a_0", Point(0, 0)), ("b_5_x", Point(10, 0)),
            ("a_3", Point(20, 1)), ("b_8_x", Point(30, 1)),
            ("a_6", Point(40, 2)),
        ]
        assert top.bbox() == Rect(0, 0, 50, 8)

    def test_unplaced_period_members_are_not_subcells(self):
        top = Cell("top")
        top.add_array([(leaf("a"), Transform(), "a_{}", 0),
                       (leaf("b"), Transform(), "b_{}", 0)],
                      count=1, step=Point(10, 0))
        assert set(top.subcells()) == {"top", "a"}

    def test_instances_follow_adds_and_removals(self):
        top = Cell("top")
        top.tile(leaf(), columns=2, rows=1, pitch_x=10, pitch_y=6)
        assert len(top.instances()) == 2
        inst = top.add_instance(leaf(), Transform(translation=Point(0, 9)))
        assert top.instances()[-1] == inst
        top._instances.remove(inst)
        assert len(top.instances()) == 2

    def test_rejects_empty_arrays(self):
        with pytest.raises(ValueError):
            Cell("t").add_array([], count=1, step=Point(1, 0))
        with pytest.raises(ValueError):
            Cell("t").add_array([(leaf(), Transform(), "x_{}", 0)],
                                count=0, step=Point(1, 0))


class TestArraysMatchLoops:
    """Array-backed builders place exactly what the old loops placed."""

    @pytest.mark.parametrize("columns,rows,mirror", [
        (3, 2, False), (1, 5, True), (4, 4, True), (2, 1, True)])
    def test_tile_matches_loop(self, columns, rows, mirror):
        bit = sram6t_cell(get_process("cda07"))
        args = dict(columns=columns, rows=rows, pitch_x=bit.width,
                    pitch_y=bit.height, origin=Point(7, -3),
                    name_prefix="row", alternate_mirror_y=mirror)
        arrayed, looped = Cell("grid"), Cell("grid")
        arrayed.tile(bit, **args)
        ref.tile_loop(looped, bit, **args)
        assert _placements(arrayed) == _placements(looped)
        assert _cif(arrayed) == _cif(looped)

    @pytest.mark.parametrize("config", [
        RamConfig(words=64, bpw=8, bpc=4, strap_every=8),
        RamConfig(words=64, bpw=8, bpc=4, strap_every=8, spare_cols=2),
        RamConfig(words=96, bpw=4, bpc=8, strap_every=12, spare_cols=3),
        RamConfig(words=64, bpw=8, bpc=16, strap_every=8),
        RamConfig(words=32, bpw=4, bpc=2, strap_every=0),
        RamConfig(words=1024, bpw=32, bpc=8),
    ], ids=str)
    def test_floorplan_builders_match_loops(self, config):
        process = get_process(config.process)
        lam = process.lambda_cu
        macros = build_floorplan(config).macrocells
        strap = strap_cell(process, config.strap_width_lambda) \
            if config.strap_every else None
        array = macros["array"]
        expected = {
            "array": ref.row_strip_loop(
                config, sram6t_cell(process), strap, config.spare_cols),
            "precharge_row": ref.column_row_loop(
                config, process, precharge_cell(process, config.gate_size),
                "precharge_row", config.spare_cols),
            "mux_row": ref.column_row_loop(
                config, process, column_mux_cell(process), "mux_row",
                config.spare_cols),
            "sense_row": ref.sense_row_loop(config, process),
            "decoder_col": ref.decoder_column_loop(
                config, process, config.spares),
            "tlb": ref.tlb_loop(config, process),
            "datagen": ref.datagen_loop(config, process),
            "addgen": ref.tile_row_loop(
                counter_bit_cell(process), config.address_bits, "addgen"),
            "streg": ref.tile_row_loop(
                dff_cell(process), len(macros["streg"].instances()),
                "streg"),
        }
        if config.spare_cols:
            expected["colsteer"] = ref.colsteer_loop(config, process)
        # The array itself: the row strip (above) tiled in mirrored rows.
        strip = array.instances()[0].cell
        rows = Cell("array")
        ref.tile_loop(rows, strip, columns=1,
                      rows=config.total_rows, pitch_x=strip.width,
                      pitch_y=48 * lam, alternate_mirror_y=True,
                      name_prefix="row")
        assert _placements(array) == _placements(rows)
        for name, looped in expected.items():
            built = strip if name == "array" else macros[name]
            assert _placements(built) == _placements(looped), name
            assert _cif(built) == _cif(looped), name
