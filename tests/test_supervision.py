"""Tests for the shared supervision primitives (repro.runtime).

The pool tasks live at module top level: process-pool dispatch pickles
them by qualified name.
"""

import errno
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.errors import (
    ConfigError,
    RepairExhausted,
    ReproError,
    ServiceUnavailable,
    SpiceConvergenceError,
)
from repro.runtime import CampaignRunner, CampaignSpec, CheckpointJournal
from repro.runtime.supervision import (
    CrashBlame,
    RetryPolicy,
    SupervisedPool,
    classify_error,
    terminate_pool,
)


def echo(value):
    return {"status": "ok", "value": value}


def refuse(value):
    return {"status": "failed", "taxonomy": "io", "message": str(value)}


def die(value):
    os._exit(17)


def nap(seconds):
    time.sleep(seconds)
    return {"status": "ok"}


def unpicklable_result(value):
    return {"status": "ok", "value": lambda: value}


def nap_task(params, shard):
    time.sleep(params["nap_s"][shard.index])
    return {"index": shard.index}


class TestClassifyError:
    def test_taxonomy_mapping(self):
        assert classify_error(ConfigError("x")) == "config"
        assert classify_error(SpiceConvergenceError("x")) == \
            "convergence"
        assert classify_error(RepairExhausted("x")) == \
            "repair_exhausted"
        assert classify_error(ReproError("x")) == "repro"
        assert classify_error(KeyError("x")) == "unexpected"

    def test_timeout_wins_over_io(self):
        """TimeoutError subclasses OSError since 3.10; the taxonomy
        must classify it as a timeout, not generic io."""
        assert classify_error(TimeoutError("x")) == "timeout"
        assert classify_error(OSError("x")) == "io"


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(crash_retries=-1)


class TestCrashBlame:
    def test_suspects_within_budget_refly(self):
        blame = CrashBlame(crash_retries=1)
        quarantined, suspects = blame.accuse(["a", "b"])
        assert quarantined == []
        assert suspects == ["a", "b"]
        assert blame.crashes("a") == 1
        assert not blame.is_quarantined("a")

    def test_budget_exceeded_quarantines(self):
        blame = CrashBlame(crash_retries=1)
        blame.accuse(["a"])
        quarantined, suspects = blame.accuse(["a"])
        assert quarantined == ["a"]
        assert suspects == []
        assert blame.is_quarantined("a")
        assert blame.quarantined == frozenset(["a"])

    def test_zero_budget_quarantines_on_first_crash(self):
        blame = CrashBlame(crash_retries=0)
        quarantined, _ = blame.accuse(["a"])
        assert quarantined == ["a"]


class TestSupervisedPool:
    def test_outcomes_carry_the_task_payload(self):
        pool = SupervisedPool(workers=1, crash_retries=1)
        try:
            assert pool.call("a", echo, 3) == \
                ("ok", {"status": "ok", "value": 3})
            outcome, payload = pool.call("b", refuse, "disk full")
            assert outcome == "failed"
            assert payload["taxonomy"] == "io"
            outcome, payload = pool.call("c", unpicklable_result, 1)
            assert outcome == "failed"
            assert payload["taxonomy"] == "unexpected"
        finally:
            pool.shutdown()

    def test_crasher_reflies_then_is_quarantined(self):
        pool = SupervisedPool(workers=1, crash_retries=1)
        try:
            assert pool.call("k", die, 0) == ("crashed", None)
            assert pool.call("k", die, 0) == ("crashed", None)
            assert pool.call("k", echo, 0) == ("quarantined", None)
            assert pool.crashes("k") == 2
            assert pool.quarantined == frozenset(["k"])
            assert pool.deaths == 2
            # the pool was rebuilt for everyone else
            assert pool.call("other", echo, 1)[0] == "ok"
        finally:
            pool.shutdown()

    def test_deadline_kills_the_generation(self):
        pool = SupervisedPool(workers=1, crash_retries=1)
        try:
            assert pool.call("slow", nap, 30, deadline_s=0.3) == \
                ("timeout", None)
            assert pool.deaths == 0
            assert pool.call("next", echo, 2)[0] == "ok"
        finally:
            pool.shutdown()

    def test_shutdown_refuses_calls_and_reaps_workers(self):
        pool = SupervisedPool(workers=2, crash_retries=1)
        assert pool.call("a", echo, 1)[0] == "ok"
        pool.shutdown()
        assert multiprocessing.active_children() == []
        with pytest.raises(ServiceUnavailable, match="shut down"):
            pool.call("a", echo, 1)


class TestRunnerTeardown:
    def test_no_worker_outlives_a_failing_run(self, tmp_path,
                                              monkeypatch):
        """A journal write that fails while another shard is in
        flight propagates out of run(), and takes the pool with it."""
        def full_disk(self, payload):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(CheckpointJournal, "record", full_disk)
        spec = CampaignSpec(name="teardown", task=nap_task, n_shards=2,
                            seed=0, params={"nap_s": [0.0, 30.0]})
        runner = CampaignRunner(
            workers=2, checkpoint=str(tmp_path / "c.jsonl"))
        t0 = time.monotonic()
        with pytest.raises(OSError, match="No space"):
            runner.run(spec)
        assert time.monotonic() - t0 < 20.0
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_interrupted_run(self):
        spec = CampaignSpec(name="teardown", task=nap_task, n_shards=2,
                            seed=0, params={"nap_s": [30.0, 30.0]})
        interrupt = threading.Timer(1.0, os.kill,
                                    (os.getpid(), signal.SIGINT))
        interrupt.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                CampaignRunner(workers=2).run(spec)
        finally:
            interrupt.cancel()
        assert multiprocessing.active_children() == []


class TestTerminatePool:
    def test_none_is_a_no_op(self):
        terminate_pool(None)

    def test_terminates_live_workers(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(sum, (1, 2)).result()  # force a worker to spawn
        processes = list(pool._processes.values())
        terminate_pool(pool)
        for process in processes:
            process.join(timeout=10.0)
            assert not process.is_alive()
