"""Unit tests for the DRC checker."""

import pytest

from repro.geometry import Rect
from repro.layout import Cell, DrcChecker
from repro.tech import get_process

PROCESS = get_process("cda07")  # lambda = 35 cu
LAM = PROCESS.lambda_cu


def checker():
    return DrcChecker(PROCESS)


class TestWidth:
    def test_wide_enough_passes(self):
        c = Cell("ok")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM, 20 * LAM))
        assert checker().check(c) == []

    def test_too_narrow_flagged(self):
        c = Cell("bad")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM - 1, 20 * LAM))
        violations = checker().check(c)
        assert len(violations) == 1
        assert violations[0].rule == "min-width"
        assert violations[0].layer == "metal1"
        assert violations[0].measured == 3 * LAM - 1

    def test_too_short_flagged_on_the_narrow_axis(self):
        c = Cell("flat")
        c.add_shape("metal1", Rect(0, 0, 20 * LAM, 3 * LAM - 2))
        violations = checker().check(c)
        assert [(v.rule, v.measured) for v in violations] == [
            ("min-width", 3 * LAM - 2)]

    def test_zero_area_markers_ignored(self):
        c = Cell("marker")
        c.add_shape("metal1", Rect(5, 0, 5, 100))
        c.add_shape("metal1", Rect(0, 7, 100, 7))
        assert checker().check(c) == []

    def test_layer_without_rule_ignored(self):
        c = Cell("odd")
        c.add_shape("glass", Rect(0, 0, 1, 1))
        assert checker().check(c) == []


class TestSpacing:
    def test_spaced_passes(self):
        c = Cell("ok")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        c.add_shape("metal1", Rect(6 * LAM, 0, 9 * LAM, 3 * LAM))
        assert checker().check(c) == []

    def test_close_pair_flagged(self):
        c = Cell("bad")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        c.add_shape("metal1", Rect(5 * LAM, 0, 8 * LAM, 3 * LAM))
        violations = checker().check(c)
        assert [v.rule for v in violations] == ["min-space"]
        assert violations[0].measured == 2 * LAM

    def test_touching_shapes_merge_no_violation(self):
        # A wide wire drawn as two overlapping rectangles must not be
        # flagged against itself.
        c = Cell("wire")
        c.add_shape("metal1", Rect(0, 0, 10 * LAM, 3 * LAM))
        c.add_shape("metal1", Rect(8 * LAM, 0, 20 * LAM, 3 * LAM))
        assert checker().check(c) == []

    def test_hierarchical_spacing_checked(self):
        child = Cell("child")
        child.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        top = Cell("top")
        from repro.geometry import Point, Transform

        top.add_instance(child, Transform())
        top.add_instance(
            child, Transform(translation=Point(4 * LAM, 0))
        )
        violations = checker().check(top)
        assert len(violations) == 1
        assert violations[0].measured == LAM


class TestEnclosure:
    def test_enclosed_contact_passes(self):
        c = Cell("ok")
        c.add_shape("contact", Rect(LAM, LAM, 3 * LAM, 3 * LAM))
        c.add_shape("metal1", Rect(0, 0, 4 * LAM, 4 * LAM))
        assert checker().check(c) == []

    def test_bare_contact_flagged(self):
        c = Cell("bad")
        c.add_shape("contact", Rect(0, 0, 2 * LAM, 2 * LAM))
        violations = checker().check(c)
        assert any(v.rule == "enclosure-metal1" for v in violations)

    def test_partial_enclosure_flagged(self):
        c = Cell("bad")
        c.add_shape("contact", Rect(LAM, LAM, 3 * LAM, 3 * LAM))
        # Metal flush with the cut on one side: margin 0 < 1 lambda.
        c.add_shape("metal1", Rect(LAM, 0, 4 * LAM, 4 * LAM))
        violations = checker().check(c)
        assert [v.rule for v in violations] == ["enclosure-metal1"]
        assert violations[0].measured == 0

    def test_via2_needs_both_metals(self):
        c = Cell("via2")
        c.add_shape("via2", Rect(2 * LAM, 2 * LAM, 4 * LAM, 4 * LAM))
        c.add_shape("metal2", Rect(0, 0, 6 * LAM, 6 * LAM))
        violations = checker().check(c)
        assert [v.rule for v in violations] == ["enclosure-metal3"]


class TestLimits:
    def test_max_violations_cap(self):
        c = Cell("noisy")
        for i in range(30):
            c.add_shape("metal1", Rect(i * 10 * LAM, 0,
                                       i * 10 * LAM + LAM, 10 * LAM))
        got = checker().check(c, max_violations=5)
        assert len(got) == 5

    def test_violation_str(self):
        c = Cell("bad")
        c.add_shape("metal1", Rect(0, 0, LAM, 10 * LAM))
        text = str(checker().check(c)[0])
        assert "min-width" in text and "metal1" in text


class TestGateGeometry:
    def _gate(self, poly_rect, diff_rect, diff_layer="ndiff"):
        c = Cell("gate")
        c.add_shape(diff_layer, diff_rect)
        c.add_shape("poly", poly_rect)
        return checker().check(c)

    def test_proper_gate_passes(self):
        # Vertical poly crossing a horizontal strip with 2-lambda caps.
        violations = self._gate(
            Rect(10 * LAM, 0, 12 * LAM, 10 * LAM),
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
        )
        assert violations == []

    def test_flush_endcap_flagged(self):
        violations = self._gate(
            Rect(10 * LAM, 2 * LAM, 12 * LAM, 10 * LAM),  # flush bottom
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
        )
        assert [v.rule for v in violations] == ["gate-endcap"]
        assert violations[0].measured == 0

    def test_short_endcap_flagged(self):
        violations = self._gate(
            Rect(10 * LAM, LAM, 12 * LAM, 10 * LAM),  # 1-lambda cap
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
        )
        assert [v.rule for v in violations] == ["gate-endcap"]
        assert violations[0].measured == LAM

    def test_poly_ending_inside_diffusion_flagged(self):
        violations = self._gate(
            Rect(10 * LAM, 4 * LAM, 12 * LAM, 6 * LAM),  # floats inside
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
        )
        assert [v.rule for v in violations] == ["gate-endcap"]

    def test_pdiff_gates_checked_too(self):
        violations = self._gate(
            Rect(10 * LAM, 2 * LAM, 12 * LAM, 10 * LAM),
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
            diff_layer="pdiff",
        )
        assert violations and violations[0].rule == "gate-endcap"

    def test_nonoverlapping_poly_ignored(self):
        violations = self._gate(
            Rect(40 * LAM, 0, 42 * LAM, 10 * LAM),
            Rect(0, 2 * LAM, 30 * LAM, 8 * LAM),
        )
        assert violations == []


class TestCornerTouch:
    """The deck's ``touch.corner`` rule: do corner-only contacts conduct?"""

    def _corner_pair(self):
        c = Cell("diag")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        c.add_shape("metal1", Rect(3 * LAM, 3 * LAM, 6 * LAM, 6 * LAM))
        return c

    def _process_with(self, corner_touch):
        from dataclasses import replace

        from repro.tech.rules import DesignRules

        rules = dict(PROCESS.rules.rules)
        rules["touch.corner"] = corner_touch
        return replace(
            PROCESS, rules=DesignRules(PROCESS.lambda_cu, rules))

    def test_corner_contact_conducts_by_default(self):
        assert PROCESS.rules.corner_touch_connects()
        assert checker().check(self._corner_pair()) == []

    def test_corner_contact_flagged_when_deck_forbids(self):
        strict = DrcChecker(self._process_with(0))
        violations = strict.check(self._corner_pair())
        assert [v.rule for v in violations] == ["min-space"]
        assert violations[0].measured == 0

    def test_rule_is_not_lambda_scaled(self):
        from repro.tech.rules import DesignRules

        for lam in (25, 30, 35, 40):
            assert DesignRules.scalable(lam).rules["touch.corner"] == 1

    def test_diagonal_spacing_uses_larger_gap(self):
        # Corner-to-corner spacing: 1 lambda diagonal separation is
        # measured as max(dx, dy), so a 1x2-lambda offset reads 2.
        c = Cell("diag_gap")
        c.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        c.add_shape("metal1",
                    Rect(4 * LAM, 5 * LAM, 7 * LAM, 8 * LAM))
        violations = checker().check(c)
        assert [v.rule for v in violations] == ["min-space"]
        assert violations[0].measured == 2 * LAM


class TestKnownDirtyFixture:
    """Regression: a fixture with every violation class, checked exactly."""

    def _dirty_cell(self):
        c = Cell("known_dirty")
        # min-width: metal1 one cu too narrow.
        c.add_shape("metal1", Rect(0, 0, 3 * LAM - 1, 20 * LAM))
        # min-space: metal2 pair 2 lambda apart (rule is 4).
        c.add_shape("metal2", Rect(0, 30 * LAM, 3 * LAM, 33 * LAM))
        c.add_shape("metal2", Rect(5 * LAM, 30 * LAM, 8 * LAM, 33 * LAM))
        # enclosure: a bare contact cut with no metal1 around it.
        c.add_shape("contact", Rect(50 * LAM, 0, 52 * LAM, 2 * LAM))
        # gate-endcap: poly stops flush with the diffusion edge.
        c.add_shape("ndiff", Rect(30 * LAM, 30 * LAM, 40 * LAM, 34 * LAM))
        c.add_shape("poly", Rect(33 * LAM, 30 * LAM, 35 * LAM, 40 * LAM))
        return c

    def test_exact_violation_list(self):
        violations = checker().check(self._dirty_cell())
        got = sorted(
            (v.rule, v.layer, v.measured, v.required) for v in violations)
        rules = PROCESS.rules.rules
        expected = sorted([
            ("min-width", "metal1", 3 * LAM - 1, rules["width.metal1"]),
            ("min-space", "metal2", 2 * LAM, rules["space.metal2"]),
            ("enclosure-metal1", "contact", -1,
             rules["enclose.metal1_contact"]),
            ("gate-endcap", "poly", 0, rules["overhang.gate_poly"]),
        ])
        assert got == expected

    def test_round_trips_through_json(self):
        import json

        from repro.layout.drc import DrcViolation

        for v in checker().check(self._dirty_cell()):
            assert DrcViolation.from_dict(
                json.loads(json.dumps(v.to_dict()))) == v
