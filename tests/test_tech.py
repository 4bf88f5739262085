"""Unit tests for repro.tech: layers, rules, processes, device params."""

import pytest

from repro.tech import (
    DesignRules,
    Layer,
    LayerSet,
    available_processes,
    get_process,
)
from repro.tech.spice_params import nmos_for_node, pmos_for_node


class TestLayerSet:
    def test_standard_layers_present(self):
        ls = LayerSet()
        for name in ("ndiff", "pdiff", "poly", "metal1", "metal2",
                     "metal3", "contact", "via1", "via2", "nwell"):
            assert name in ls

    def test_unknown_layer_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known"):
            LayerSet()["metal9"]

    def test_conductors(self):
        names = {l.name for l in LayerSet().conductors()}
        assert "metal1" in names and "poly" in names
        assert "nwell" not in names and "contact" not in names

    def test_routing_layers_ordered(self):
        levels = [l.routing_level for l in LayerSet().routing_layers()]
        assert levels == [1, 2, 3]

    def test_metal_lookup(self):
        assert LayerSet().metal(3).name == "metal3"

    def test_metal_lookup_missing(self):
        with pytest.raises(KeyError):
            LayerSet().metal(4)

    def test_duplicate_layer_rejected(self):
        dup = (Layer("a", "A", 1), Layer("a", "A2", 2))
        with pytest.raises(ValueError):
            LayerSet(dup)


class TestDesignRules:
    def test_scaling(self):
        r1 = DesignRules.scalable(25)
        r2 = DesignRules.scalable(35)
        assert r2.min_width("poly") / r1.min_width("poly") == 35 / 25

    def test_min_width_values(self):
        rules = DesignRules.scalable(35)  # 0.7 um
        assert rules.min_width("poly") == 70
        assert rules.min_width("metal3") == 175

    def test_pitch(self):
        rules = DesignRules.scalable(10)
        assert rules.pitch("metal1") == rules.min_width("metal1") + \
            rules.min_space("metal1")

    def test_enclosure_lookup(self):
        rules = DesignRules.scalable(10)
        assert rules.enclosure("metal1", "contact") == 10

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            DesignRules.scalable(10)["width.metal7"]

    def test_override(self):
        rules = DesignRules.scalable(10, overrides={"width.poly": 3})
        assert rules.min_width("poly") == 30

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            DesignRules.scalable(10, overrides={"width.bogus": 3})

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            DesignRules.scalable(0)

    def test_feature_um(self):
        assert DesignRules.scalable(35).feature_um() == pytest.approx(0.7)


class TestProcess:
    def test_presets_available(self):
        assert available_processes() == ("cda05", "cda07", "mos06", "mos08")

    def test_lookup(self):
        process = get_process("cda07")
        assert process.name == "cda07"
        assert process.feature_um == pytest.approx(0.7)
        assert get_process("cda07") is process

    def test_unknown_process(self):
        with pytest.raises(KeyError, match="available"):
            get_process("tsmc7")

    def test_all_presets_are_3_metal(self):
        for name in available_processes():
            assert get_process(name).metal_layers == 3

    def test_lambda_matches_feature(self):
        for name in available_processes():
            p = get_process(name)
            assert p.lambda_cu == pytest.approx(p.feature_um * 50)

    def test_unit_conversion_roundtrip(self):
        p = get_process("mos06")
        assert p.cu_to_um(p.um_to_cu(12.34)) == pytest.approx(12.34)


class TestMosParams:
    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            nmos_for_node(0.7).__class__(
                polarity="nmos", vto=-0.7, kp=1e-4, lambda_=0.04,
                cox=1e-3, cj=1e-4, cjsw=1e-10, min_l_um=0.7,
            )

    def test_pmos_weaker_than_nmos(self):
        n, p = nmos_for_node(0.7), pmos_for_node(0.7)
        assert p.kp < n.kp

    def test_kp_grows_at_smaller_nodes(self):
        assert nmos_for_node(0.5).kp > nmos_for_node(0.8).kp

    def test_beta(self):
        n = nmos_for_node(0.7)
        assert n.beta(7.0, 0.7) == pytest.approx(10 * n.kp)

    def test_beta_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nmos_for_node(0.7).beta(0, 1)

    def test_node_range_enforced(self):
        with pytest.raises(ValueError):
            nmos_for_node(0.1)
