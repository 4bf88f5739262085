"""Tests for the chaos-injection harness (specs, plans, scenarios)."""

import errno

import pytest

from repro.core.errors import ConfigError
from repro.service.chaos import (
    SCENARIOS,
    ChaosPlan,
    ChaosSpec,
    apply_chaos,
    run_scenario,
    run_scenarios,
)


class TestSpecAndPlan:
    def test_spec_validates_action_and_point(self):
        with pytest.raises(ConfigError, match="action"):
            ChaosSpec("explode", "pre_build")
        with pytest.raises(ConfigError, match="point"):
            ChaosSpec("kill", "somewhere")

    def test_spec_round_trips_through_dict(self):
        spec = ChaosSpec("hang", "pre_build", hang_s=1.5)
        assert spec.to_dict() == {"action": "hang",
                                  "point": "pre_build", "hang_s": 1.5}

    def test_plan_injects_fail_times_then_stands_down(self):
        plan = ChaosPlan(ChaosSpec("kill", "spawn"), fail_times=2)
        key = "a" * 64
        assert plan.spec_for(key, 1) is not None
        assert plan.spec_for(key, 1) is not None  # crash retry: same
        assert plan.spec_for(key, 2) is None      # attempt number
        assert plan.spec_for(key, 3) is None

    def test_plan_counts_per_key(self):
        plan = ChaosPlan(ChaosSpec("kill", "spawn"), fail_times=1)
        assert plan.spec_for("a" * 64, 1) is not None
        assert plan.spec_for("b" * 64, 1) is not None
        assert plan.spec_for("a" * 64, 1) is None

    def test_plan_key_filter(self):
        plan = ChaosPlan(ChaosSpec("kill", "spawn"),
                         keys=frozenset(["a" * 64]))
        assert plan.spec_for("b" * 64, 1) is None
        assert plan.spec_for("a" * 64, 1) is not None


class TestApplyChaos:
    def test_wrong_point_is_a_no_op(self):
        spec = ChaosSpec("enospc", "pre_publish").to_dict()
        assert apply_chaos("pre_build", spec, None, "k") is False

    def test_enospc_raises_oserror(self):
        spec = ChaosSpec("enospc", "pre_publish").to_dict()
        with pytest.raises(OSError) as excinfo:
            apply_chaos("pre_publish", spec, None, "k")
        assert excinfo.value.errno == errno.ENOSPC

    def test_unknown_action_in_raw_dict_is_rejected(self):
        with pytest.raises(ConfigError, match="action"):
            apply_chaos("spawn", {"action": "nope", "point": "spawn"},
                        None, "k")


class TestScenarios:
    def test_unknown_scenario_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown chaos"):
            run_scenario("nope", tmp_path)

    def test_registry_covers_the_advertised_faults(self):
        assert {"worker_kill", "worker_hang", "torn_publish",
                "corrupt_artifact", "eviction_race", "enospc",
                "wal_replay", "batch_worker_kill"} <= set(SCENARIOS)

    def test_torn_publish_scenario_passes(self, tmp_path):
        report = run_scenario("torn_publish", tmp_path)
        assert report.passed, report.summary()
        payload = report.to_dict()
        assert payload["name"] == "torn_publish"
        assert all(c["passed"] for c in payload["checks"])

    def test_wal_replay_scenario_passes(self, tmp_path):
        report = run_scenario("wal_replay", tmp_path)
        assert report.passed, report.summary()

    def test_eviction_race_scenario_passes(self, tmp_path):
        report = run_scenario("eviction_race", tmp_path)
        assert report.passed, report.summary()

    def test_all_expands_to_every_scenario(self, tmp_path, monkeypatch):
        ran = []
        names = list(SCENARIOS)
        monkeypatch.setattr(
            "repro.service.chaos.run_scenario",
            lambda name, workdir: ran.append(name))
        run_scenarios(["all"], tmp_path)
        assert ran == names
