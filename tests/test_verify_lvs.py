"""LVS-lite: netlist -> layout -> extracted-netlist round trip.

Property-style tests over seeded-random small macro configurations:
the extracted connectivity must be isomorphic to the intended netlist
(every intended net lands in exactly one extracted component, no
component spans two nets), and deliberately injected shorts and opens
must be caught and named.
"""

import random

import pytest

from repro.core.compiler import compile_ram
from repro.core.config import RamConfig
from repro.geometry import Point, Rect, Transform
from repro.tech import get_process
from repro.pnr import extract_nets
from repro.verify import check_connectivity, intended_netlist

SEEDS = [11, 23, 47]
LAM = get_process("cda07").lambda_cu


def random_config(seed):
    rng = random.Random(seed)
    bpc = rng.choice((2, 4))
    bpw = rng.choice((4, 8))
    rows = rng.choice((8, 16))
    return RamConfig(
        words=rows * bpc, bpw=bpw, bpc=bpc, spares=4,
        process=rng.choice(("cda05", "mos06", "cda07", "mos08")),
        strap_every=rng.choice((0, 8)),
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestRoundTrip:
    def test_extraction_isomorphic_to_intent(self, seed):
        config = random_config(seed)
        compiled = compile_ram(config)
        process = get_process(config.process)
        top = compiled.floorplan.top

        findings, stats = check_connectivity(top, config, process)
        assert findings == []
        assert stats["intended_nets"] == 2 * config.columns

        intended = intended_netlist(config)
        components = extract_nets(top, process)
        for name, endpoints in intended.items():
            containing = [c for c in components if endpoints <= c]
            assert len(containing) == 1, f"net {name} not in one component"
        # No component may span two intended nets.
        for comp in components:
            hit = {name for name, endpoints in intended.items()
                   if endpoints & comp}
            assert len(hit) <= 1


class TestInjections:
    @pytest.fixture()
    def build(self):
        config = RamConfig(words=32, bpw=4, bpc=2, spares=4,
                           process="cda07")
        compiled = compile_ram(config)
        return config, compiled, get_process(config.process)

    def test_deliberate_short_is_caught(self, build):
        config, compiled, process = build
        top = compiled.floorplan.top
        array_inst = next(i for i in top.instances() if i.name == "array")
        a = array_inst.port("bl_t_1").rect
        b = array_inst.port("blb_t_1").rect
        span = a.union_bbox(b)
        top.add_shape("metal2",
                      Rect(span.x1, span.y1 - 70, span.x2, span.y1 + 70))

        findings, _ = check_connectivity(top, config, process)
        shorts = [f for f in findings if f.kind == "short"]
        assert len(shorts) == 1
        assert shorts[0].subject == "bl_1+blb_1"
        assert sorted(shorts[0].data["nets"]) == ["bl_1", "blb_1"]

    def test_stub_does_not_hide_bridge_short(self, build):
        """A stray stub touching a landing, drawn before the shape that
        bridges two bit lines, must not hide the short: the landing
        joins every drawn shape it touches, not only the first."""
        config, compiled, process = build
        top = compiled.floorplan.top
        array_inst = next(i for i in top.instances() if i.name == "array")
        a = array_inst.port("bl_t_1").rect
        b = array_inst.port("blb_t_1").rect
        y = a.y1
        top.add_shape("metal2", Rect(a.x1 - 50, y - 30, a.x1 + 10, y + 30))
        top.add_shape("metal2", Rect(a.x1 + 20, y - 30, b.x2, y + 30))

        findings, _ = check_connectivity(top, config, process)
        shorts = [f for f in findings if f.kind == "short"]
        assert len(shorts) == 1
        assert shorts[0].subject == "bl_1+blb_1"

    def test_deliberate_open_is_caught(self, build):
        config, compiled, process = build
        top = compiled.floorplan.top
        # Drop the mux row off the abutment seam: every bit line loses
        # its mux landing.
        inst = next(i for i in top.instances() if i.name == "mux_row")
        top._instances.remove(inst)
        shifted = Transform(
            inst.transform.orientation,
            Point(inst.transform.translation.x,
                  inst.transform.translation.y - 5 * LAM),
        )
        top.add_instance(inst.cell, shifted, name="mux_row")

        findings, _ = check_connectivity(top, config, process)
        opens = [f for f in findings if f.kind == "open"]
        assert opens, "shifted mux row must read as opens"
        named = {f.subject for f in opens}
        assert f"bl_0" in named and f"blb_0" in named
        # The stranded mux landings also surface as floating ports.
        floating = [f for f in findings if f.kind == "floating-port"]
        assert any(f.subject.startswith("mux_row/") for f in floating)

    def test_missing_macro_reported_missing(self, build):
        config, compiled, process = build
        top = compiled.floorplan.top
        inst = next(i for i in top.instances()
                    if i.name == "precharge_row")
        top._instances.remove(inst)

        findings, _ = check_connectivity(top, config, process)
        opens = [f for f in findings if f.kind == "open"]
        assert opens
        assert any("precharge_row" in str(f.data.get("missing"))
                   for f in opens)
