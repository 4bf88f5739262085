"""The crash-safe campaign runtime: runner, journal, degradation.

The shard tasks live at module top level because process-pool dispatch
pickles them by qualified name — exactly the contract
:class:`~repro.runtime.runner.CampaignSpec` enforces.
"""

import json
import os
import time

import pytest

from repro.core.errors import ConfigError, SpiceConvergenceError
from repro.runtime import (
    CampaignRunner,
    CampaignSpec,
    CheckpointJournal,
    RetryPolicy,
    ShardSpec,
)

# ---------------------------------------------------------------------------
# shard tasks (top level: picklable by name)
# ---------------------------------------------------------------------------


def draw_task(params, shard):
    """Deterministic per-shard draw from the spawned seed stream."""
    rng = shard.rng()
    return {"value": int(rng.integers(0, 10_000)), "index": shard.index}


def flaky_task(params, shard):
    """Raises SpiceConvergenceError on the configured shard indices."""
    if shard.index in params["fail"]:
        raise SpiceConvergenceError(
            "transient stalled", t_reached=2e-9, t_stop=4e-9, steps=10
        )
    if shard.index == params.get("crash", -1):
        os._exit(17)  # hard-kill the worker: the BrokenProcessPool path
    return draw_task(params, shard)


def second_try_task(params, shard):
    """Fails its first dispatch, succeeds on the retry."""
    if shard.attempt == 1:
        raise RuntimeError("first attempt always fails")
    return draw_task(params, shard)


def config_error_task(params, shard):
    raise ConfigError("deterministic misuse")


def slow_task(params, shard):
    if shard.index == params.get("slow", -1):
        time.sleep(30)
    return draw_task(params, shard)


def reduce_draws(results):
    done = [r for r in results if r is not None]
    return {"n": len(done), "sum": sum(r["value"] for r in done)}


def spec_for(task, n_shards=6, seed=3, **params):
    return CampaignSpec(name="unit", task=task, n_shards=n_shards,
                        seed=seed, params=params, reduce=reduce_draws)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_aggregates_identical_across_worker_counts(self):
        """The tentpole determinism claim: workers=1 == workers=4."""
        spec = spec_for(draw_task)
        serial = CampaignRunner(workers=1).run(spec)
        parallel = CampaignRunner(workers=4).run(spec)
        assert serial.aggregates == parallel.aggregates
        assert [s.result for s in serial.shards] == \
            [s.result for s in parallel.shards]

    def test_kill_then_resume_identical(self, tmp_path):
        """Interrupting after k shards and resuming changes nothing."""
        checkpoint = tmp_path / "campaign.jsonl"
        spec = spec_for(draw_task)
        reference = CampaignRunner(
            workers=2, checkpoint=str(checkpoint)).run(spec)

        # Simulate a mid-run kill: header + first 3 shard lines plus a
        # torn partial write of the 4th.
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text(
            "\n".join(lines[:4]) + "\n" + '{"type": "sha'
        )
        resumed = CampaignRunner(
            workers=2, checkpoint=str(checkpoint), resume=True).run(spec)
        assert resumed.aggregates == reference.aggregates
        assert resumed.resumed == 3
        assert sum(s.from_journal for s in resumed.shards) == 3

    def test_seed_changes_results(self):
        a = CampaignRunner().run(spec_for(draw_task, seed=1))
        b = CampaignRunner().run(spec_for(draw_task, seed=2))
        assert a.aggregates != b.aggregates

    def test_shard_seed_lineage_is_spawn_key(self):
        """Shard i always sees the SeedSequence child spawn_key=(i,)."""
        import numpy as np

        children = np.random.SeedSequence(3).spawn(6)
        shard = ShardSpec(index=2, n_shards=6, seed_seq=children[2])
        expected = int(np.random.default_rng(
            children[2]).integers(0, 10_000))
        result = CampaignRunner().run(spec_for(draw_task))
        assert result.shards[2].result["value"] == expected
        assert shard.py_rng().random() == shard.py_rng().random()


# ---------------------------------------------------------------------------
# fault tolerance
# ---------------------------------------------------------------------------


class TestFaultTolerance:
    def test_degraded_campaign_keeps_partial_aggregates(self):
        """ISSUE acceptance: 20% convergence failures plus one shard
        that hard-kills its worker still yields a CampaignResult with
        partial aggregates and a correct error census."""
        spec = spec_for(flaky_task, n_shards=10, fail=[1, 3], crash=5)
        result = CampaignRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=1, backoff_base=0.0),
        ).run(spec)
        assert result.completed == 7
        assert result.failed == 2
        assert result.quarantined == 1
        assert result.error_counts == {"convergence": 2, "crash": 1}
        assert result.degraded
        assert result.coverage == pytest.approx(0.7)
        assert result.aggregates["n"] == 7
        # the convergence taxonomy carries SPICE progress into the
        # one-line diagnosis
        assert "convergence" in result.reason
        assert "mean progress 50%" in result.reason
        assert "crash" in result.reason

    def test_crashing_shard_is_quarantined_not_retried_forever(self):
        spec = spec_for(flaky_task, n_shards=4, fail=[], crash=2)
        result = CampaignRunner(
            workers=2, retry=RetryPolicy(crash_retries=1)).run(spec)
        crashed = result.shards[2]
        assert crashed.status == "quarantined"
        assert crashed.taxonomy == "crash"
        # innocents co-flighted with the crasher still complete
        assert result.completed == 3

    def test_retry_with_backoff_recovers_transient_failures(self):
        spec = spec_for(second_try_task)
        result = CampaignRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        ).run(spec)
        assert result.completed == 6
        assert all(s.attempts == 2 for s in result.shards)
        # and the retried results equal a clean run's (same seed stream)
        clean = CampaignRunner(workers=2).run(spec_for(draw_task))
        assert result.aggregates == clean.aggregates

    def test_config_errors_never_retry(self):
        spec = spec_for(config_error_task, n_shards=2)
        result = CampaignRunner(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
        ).run(spec)
        assert result.completed == 0
        assert all(s.taxonomy == "config" and s.attempts == 1
                   for s in result.shards)

    def test_timeout_kills_hung_shard_spares_innocents(self):
        spec = spec_for(slow_task, n_shards=4, slow=2)
        result = CampaignRunner(
            workers=2, timeout_s=0.5,
            retry=RetryPolicy(max_attempts=1),
        ).run(spec)
        assert result.completed == 3
        assert result.error_counts == {"timeout": 1}
        assert result.shards[2].status == "failed"
        assert "wall-clock" in result.shards[2].message

    def test_summary_reads_like_a_report(self):
        spec = spec_for(flaky_task, n_shards=5, fail=[0])
        result = CampaignRunner(
            retry=RetryPolicy(max_attempts=1)).run(spec)
        text = result.summary()
        assert "4/5 shard(s) completed" in text
        assert "aggregates:" in text
        assert "DEGRADED:" in text


# ---------------------------------------------------------------------------
# the checkpoint journal
# ---------------------------------------------------------------------------


class TestJournal:
    FP = {"campaign": "j", "n_shards": 2, "seed": 0, "params": {},
          "task": "t"}

    def test_fresh_run_overwrites_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("garbage\n")
        journal = CheckpointJournal(path)
        assert journal.open(self.FP, resume=False) == {}
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        prior = CheckpointJournal(path).open(self.FP, resume=True)
        assert prior == {0: {"index": 0, "status": "ok"}}

    def test_resume_refuses_foreign_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path).open(self.FP, resume=False)
        other = dict(self.FP, seed=99)
        with pytest.raises(ConfigError, match="different campaign"):
            CheckpointJournal(path).open(other, resume=True)

    def test_resume_refuses_mid_file_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=False)
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        with open(path, "a") as handle:
            handle.write("NOT JSON\n")
            handle.write(json.dumps(
                {"type": "shard", "index": 1, "status": "ok"}) + "\n")
        with pytest.raises(ConfigError, match="corrupt at line"):
            CheckpointJournal(path).open(self.FP, resume=True)

    def test_torn_tail_is_forgiven(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=False)
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "shard", "ind')
        prior = CheckpointJournal(path).open(self.FP, resume=True)
        assert list(prior) == [0]

    def test_last_record_for_an_index_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=False)
        journal.record({"index": 0, "status": "failed"})
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        prior = CheckpointJournal(path).open(self.FP, resume=True)
        assert prior[0]["status"] == "ok"

    def _resume_and_record(self, path, indices):
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=True)
        for index in indices:
            journal.record({"index": index, "status": "ok"})
        journal.close()

    @pytest.mark.parametrize("resumed", [[1], [1, 2]])
    def test_resumed_journal_with_torn_tail_is_resumable(self, tmp_path,
                                                         resumed):
        """A resume must cut the torn tail before appending, or its
        first record fuses with the torn bytes: later lines then read
        as mid-file corruption, and a lone one is silently dropped."""
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=False)
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "shard", "ind')
        self._resume_and_record(path, resumed)
        prior = CheckpointJournal(path).open(self.FP, resume=True)
        assert sorted(prior) == [0, *resumed]

    def test_final_line_missing_its_newline_keeps_the_next_record(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(self.FP, resume=False)
        journal.record({"index": 0, "status": "ok"})
        journal.close()
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        self._resume_and_record(path, [1])
        prior = CheckpointJournal(path).open(self.FP, resume=True)
        assert sorted(prior) == [0, 1]

    def test_double_open_is_refused(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.open(self.FP, resume=False)
        with pytest.raises(ConfigError, match="already open"):
            journal.open(self.FP, resume=True)


# ---------------------------------------------------------------------------
# spec and policy validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_retry_policy_rejects_nonsense(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(crash_retries=-1)
        assert RetryPolicy(backoff_base=0.1).backoff_s(3) == \
            pytest.approx(0.4)

    def test_spec_rejects_local_functions(self):
        def local_task(params, shard):  # pragma: no cover
            return {}

        with pytest.raises(ConfigError, match="module-level"):
            CampaignSpec(name="x", task=local_task, n_shards=1, seed=0)

    def test_spec_rejects_zero_shards(self):
        with pytest.raises(ConfigError):
            CampaignSpec(name="x", task=draw_task, n_shards=0, seed=0)

    def test_runner_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            CampaignRunner(workers=0)
        with pytest.raises(ConfigError):
            CampaignRunner(timeout_s=0.0)

    def test_campaign_result_round_trips_to_json(self):
        result = CampaignRunner().run(spec_for(draw_task, n_shards=2))
        data = json.loads(json.dumps(result.to_dict()))
        assert data["completed"] == 2
        assert data["degraded"] is False
        assert data["coverage"] == 1.0
