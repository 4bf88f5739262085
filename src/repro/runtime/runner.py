"""Supervised, crash-safe parallel campaign execution.

The statistical campaigns behind the paper's evaluation (Fig. 4 yield
curves, the repair-probability studies, SPICE sizing sweeps) are long
batch jobs.  The runner treats them as :mod:`repro.bisr.escalation`
treats faulty cells — anticipate the failure, bound the retry, degrade
into a structured result instead of dying:

* **Deterministic seed-sharding.**  A campaign is split into
  independently seeded shards via ``np.random.SeedSequence.spawn``;
  shard *i* always receives the child sequence with
  ``spawn_key == (i,)``, so aggregates are bit-identical across
  ``workers=1``, ``workers=N``, and a kill-then-resume run.
* **Supervised workers.**  ``workers`` dispatch threads each run one
  shard's attempt loop at a time over one
  :class:`~repro.runtime.supervision.SupervisedPool` (per-shard
  timeouts, solo re-flight of crash suspects, quarantine of a shard
  that keeps killing workers).  A shard that raises is retried with
  exponential backoff (the policy shape of
  :class:`~repro.bisr.escalation.EscalationPolicy`).  Whatever ends a
  run, no worker outlives it.
* **Journaled checkpoints.**  Finalised shards are appended to a
  :class:`~repro.runtime.journal.CheckpointJournal`; an interrupted
  campaign resumes by adopting journaled outcomes and running only the
  rest.
* **Graceful degradation.**  The runner never raises for anticipated
  shard failures: it returns a :class:`CampaignResult` carrying partial
  aggregates, per-taxonomy error counts (the
  :mod:`repro.core.errors` taxonomy plus runner-side ``timeout`` and
  ``crash``), and a one-line diagnosis — the campaign-level mirror of
  :class:`~repro.bisr.escalation.DegradedResult`.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigError
from repro.runtime.journal import CheckpointJournal, fingerprint_digest
from repro.runtime.supervision import (
    RetryPolicy,
    SupervisedPool,
    classify_error,
)

# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """What one task unit receives: its identity and its RNG lineage.

    ``seed_seq`` is the ``SeedSequence`` child with
    ``spawn_key == (index,)`` — the sole randomness a shard may use, so
    results do not depend on worker count or completion order.  Retries
    of a shard receive the same stream (``attempt`` tells the task
    which try this is, should it want to vary strategy, not seeds).
    """

    index: int
    n_shards: int
    seed_seq: np.random.SeedSequence
    attempt: int = 1

    def rng(self) -> np.random.Generator:
        """The shard's numpy generator."""
        return np.random.default_rng(self.seed_seq)

    def py_rng(self) -> random.Random:
        """A stdlib ``random.Random`` on the same deterministic lineage
        (for the :mod:`repro.memsim` fault machinery)."""
        state = self.seed_seq.generate_state(4)
        return random.Random(int.from_bytes(state.tobytes(), "little"))


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign: a picklable task fanned over ``n_shards`` seeds.

    Attributes:
        name: campaign identity (goes into the journal fingerprint).
        task: module-level callable ``task(params, shard) -> dict``
            returning a JSON-serializable result; must be picklable by
            name for process-pool dispatch.
        n_shards: task units the campaign is split into.
        seed: root entropy for ``SeedSequence.spawn``.
        params: JSON-serializable mapping handed to every shard.
        reduce: ``reduce(results) -> dict`` aggregating the *ordered*
            per-shard results (``None`` where a shard was lost); called
            once, on the main process, independent of completion order.
    """

    name: str
    task: Callable
    n_shards: int
    seed: int
    params: Mapping = field(default_factory=dict)
    reduce: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign name must be non-empty")
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if not callable(self.task):
            raise ConfigError("task must be callable")
        if "<locals>" in getattr(self.task, "__qualname__", ""):
            raise ConfigError(
                "task must be a module-level callable (process-pool "
                "dispatch pickles it by name)"
            )

    def fingerprint(self) -> dict:
        """Identity of this campaign for the checkpoint journal."""
        return {
            "campaign": self.name,
            "n_shards": self.n_shards,
            "seed": self.seed,
            "task": f"{self.task.__module__}.{self.task.__qualname__}",
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardOutcome:
    """Final state of one shard.

    ``status`` is ``ok`` (result present), ``failed`` (retries
    exhausted; taxonomy/message say why), or ``quarantined`` (the shard
    kept killing workers and was banned from the pool).
    """

    index: int
    status: str
    attempts: int = 1
    taxonomy: Optional[str] = None
    message: Optional[str] = None
    progress: Optional[float] = None
    result: Optional[dict] = None
    from_journal: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def journal_payload(self) -> dict:
        data = asdict(self)
        data.pop("from_journal")
        return data


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a supervised campaign — possibly degraded, never lost.

    The campaign-level mirror of
    :class:`~repro.bisr.escalation.DegradedResult`: partial aggregates
    over the shards that completed, an error-taxonomy census of the
    ones that did not, and a one-line ``reason`` when degraded.
    """

    name: str
    n_shards: int
    completed: int
    failed: int
    quarantined: int
    resumed: int
    aggregates: dict
    error_counts: Dict[str, int]
    reason: str
    shards: Tuple[ShardOutcome, ...]

    @property
    def degraded(self) -> bool:
        return self.completed < self.n_shards

    @property
    def coverage(self) -> float:
        """Fraction of shards whose results made it into aggregates."""
        return self.completed / self.n_shards

    def to_dict(self) -> dict:
        data = asdict(self)
        data["degraded"] = self.degraded
        data["coverage"] = self.coverage
        return data

    def summary(self) -> str:
        import json

        head = (f"campaign {self.name}: {self.completed}/{self.n_shards} "
                f"shard(s) completed")
        if self.failed:
            head += f", {self.failed} failed"
        if self.quarantined:
            head += f", {self.quarantined} quarantined"
        if self.resumed:
            head += f", {self.resumed} resumed from checkpoint"
        lines = [head,
                 "aggregates: " + json.dumps(self.aggregates,
                                             sort_keys=True)]
        if self.error_counts:
            lines.append("errors: " + json.dumps(self.error_counts,
                                                 sort_keys=True))
        if self.reason:
            lines.append(f"DEGRADED: {self.reason}")
        return "\n".join(lines)


def _diagnose(outcomes: Tuple[ShardOutcome, ...], n_shards: int) -> str:
    """One line saying what was lost and to what, mirroring
    :meth:`RepairSupervisor._diagnose`."""
    lost = [o for o in outcomes if not o.ok]
    if not lost:
        return ""
    counts = Counter(o.taxonomy or "unexpected" for o in lost)
    parts = []
    for taxonomy in sorted(counts):
        part = f"{counts[taxonomy]} {taxonomy}"
        if taxonomy == "convergence":
            progresses = [o.progress for o in lost
                          if o.taxonomy == "convergence"
                          and o.progress is not None]
            if progresses:
                mean = sum(progresses) / len(progresses)
                part += f" (mean progress {100 * mean:.0f}%)"
        parts.append(part)
    return (f"{len(lost)}/{n_shards} shard(s) lost: "
            + ", ".join(parts))


# ---------------------------------------------------------------------------
# the worker entry point (top level: pickled by name)
# ---------------------------------------------------------------------------


def _execute_shard(task: Callable, params: dict, shard: ShardSpec) -> dict:
    """Run one shard in a worker; anticipated failures return, never
    raise, so typed error details survive the pickle boundary."""
    try:
        result = task(params, shard)
        return {"status": "ok", "result": result}
    except Exception as error:
        payload = {
            "status": "failed",
            "taxonomy": classify_error(error),
            "message": f"{type(error).__name__}: {error}",
        }
        progress = getattr(error, "progress", None)
        if isinstance(progress, float):
            payload["progress"] = progress
        return payload


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class CampaignRunner:
    """Executes a :class:`CampaignSpec` under supervision.

    Args:
        workers: process-pool size (>= 1), and as many dispatch
            threads.
        timeout_s: per-shard wall-clock budget, or None for unbounded.
            Enforcing a timeout on a hung worker requires killing the
            pool, so innocent in-flight shards are requeued (their
            results are deterministic; only wall-clock is lost).
        retry: bounded-retry/backoff/quarantine policy.
        checkpoint: path of the JSONL journal, or None to run
            journal-free.
        resume: adopt finalised shards from an existing journal instead
            of starting over (requires a matching fingerprint).
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")
        self.workers = workers
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.checkpoint = checkpoint
        self.resume = resume

    # -- public API ---------------------------------------------------------

    def run(self, spec: CampaignSpec) -> CampaignResult:
        """Run (or resume) the campaign; never raises for shard
        failures.  Anything else (a configuration error, a journal
        write, an interrupt) propagates after the workers are killed."""
        children = np.random.SeedSequence(spec.seed).spawn(spec.n_shards)
        outcomes: Dict[int, ShardOutcome] = {}
        journal = None
        if self.checkpoint is not None:
            journal = CheckpointJournal(self.checkpoint)
            prior = journal.open(spec.fingerprint(), resume=self.resume)
            for index, payload in prior.items():
                if 0 <= index < spec.n_shards:
                    outcomes[index] = ShardOutcome(from_journal=True,
                                                   **payload)
        resumed = len(outcomes)
        todo = deque(i for i in range(spec.n_shards) if i not in outcomes)
        try:
            if todo:
                self._run_shards(spec, children, todo, outcomes, journal)
        finally:
            if journal is not None:
                journal.close()

        ordered = tuple(outcomes[i] for i in range(spec.n_shards))
        results = [o.result if o.ok else None for o in ordered]
        aggregates = spec.reduce(results) if spec.reduce else {}
        completed = sum(o.ok for o in ordered)
        quarantined = sum(o.status == "quarantined" for o in ordered)
        error_counts = dict(Counter(o.taxonomy or "unexpected"
                                    for o in ordered if not o.ok))
        return CampaignResult(
            name=spec.name,
            n_shards=spec.n_shards,
            completed=completed,
            failed=spec.n_shards - completed - quarantined,
            quarantined=quarantined,
            resumed=resumed,
            aggregates=aggregates,
            error_counts=error_counts,
            reason=_diagnose(ordered, spec.n_shards),
            shards=ordered,
        )

    # -- supervision --------------------------------------------------------

    def _run_shards(self, spec, children, todo, outcomes, journal) -> None:
        """Drain ``todo`` on ``workers`` dispatch threads over one pool.

        The first exception a thread meets stops the others and is
        re-raised here; the pool is shut down on every exit.
        """
        pool = SupervisedPool(self.workers, self.retry.crash_retries)
        lock = threading.Lock()  # todo, outcomes, the journal, errors
        errors: List[BaseException] = []

        def dispatcher() -> None:
            while True:
                with lock:
                    if errors or not todo:
                        return
                    index = todo.popleft()
                try:
                    outcome = self._run_shard(pool, spec, children[index],
                                              index)
                    with lock:
                        outcomes[index] = outcome
                        if journal is not None:
                            journal.record(outcome.journal_payload())
                except BaseException as error:  # re-raised by the caller
                    with lock:
                        errors.append(error)
                    pool.shutdown()
                    return

        threads = [threading.Thread(target=dispatcher, daemon=True)
                   for _ in range(min(self.workers, len(todo)))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.shutdown()
            for thread in threads:
                if thread.is_alive():
                    thread.join()
        if errors:
            raise errors[0]

    def _run_shard(self, pool: SupervisedPool, spec: CampaignSpec,
                   seed_seq, index: int) -> ShardOutcome:
        """One shard's attempt loop; every dispatch is an attempt."""
        attempt = 0
        while True:
            shard = ShardSpec(index=index, n_shards=spec.n_shards,
                              seed_seq=seed_seq, attempt=attempt + 1)
            outcome, payload = pool.call(
                index, _execute_shard, spec.task, dict(spec.params), shard,
                deadline_s=self.timeout_s)
            if outcome == "quarantined":
                return ShardOutcome(
                    index=index, status="quarantined", attempts=attempt,
                    taxonomy="crash",
                    message=(f"worker died {pool.crashes(index)} "
                             f"time(s) running this shard"),
                )
            attempt += 1
            if outcome == "ok":
                return ShardOutcome(index=index, status="ok",
                                    attempts=attempt,
                                    result=payload["result"])
            if outcome in ("crashed", "innocent"):
                continue  # re-flown; a crash suspect flies alone
            if outcome == "timeout":
                payload = {"taxonomy": "timeout",
                           "message": (f"shard exceeded the "
                                       f"{self.timeout_s:g}s wall-clock "
                                       f"budget")}
            if (payload["taxonomy"] == "config"
                    or attempt >= self.retry.max_attempts):
                return ShardOutcome(
                    index=index, status="failed", attempts=attempt,
                    taxonomy=payload["taxonomy"],
                    message=payload["message"],
                    progress=payload.get("progress"),
                )
            time.sleep(self.retry.backoff_s(attempt))
