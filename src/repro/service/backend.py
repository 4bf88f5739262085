"""The supervised process-pool build backend of the macro server.

The thread-pool server (PR 4) executes builds on threads, so every
concurrent compile fights the GIL and a worker that dies, hangs, or
corrupts an artifact mid-publish takes the process (or the truth) with
it.  This backend moves builds onto supervised *worker processes*,
reusing the supervision primitives proven by
:mod:`repro.runtime.supervision`:

* **Per-request deadlines** — a hung worker cannot be joined; past its
  deadline the pool is terminated and the request retried (innocent
  co-flighted builds are re-dispatched without blame or attempt cost).
* **Bounded-backoff retry** — transient failures re-fly up to
  ``RetryPolicy.max_attempts`` with exponential backoff; ``config``
  and ``signoff`` failures are deterministic and never retry.
* **Solo-reflight crash blame** — when a worker dies, every in-flight
  request is a suspect; suspects re-fly strictly alone so the next
  death identifies its killer, and a request that exceeds its crash
  budget is **quarantined** as a poison config
  (:class:`~repro.core.errors.BuildCrashed`, raised fast on every
  later attempt).
* **Store-mediated results** — workers *publish to the artifact
  store* and return only a status; the parent then serves the
  integrity-checked bytes from disk.  Megabytes never cross the pickle
  boundary, and a torn or corrupt publish is detected (and rebuilt)
  instead of served.
* **Cross-process single-flight** — per-digest claim files in the
  store (``O_EXCL``; stale claims from dead builders are broken and
  adopted) mean N servers sharing one store still build each bundle
  once.

Deterministic fault injection for all of the above is plumbed through
``chaos``: an object with ``spec_for(key, attempt) -> Optional[dict]``
(see :mod:`repro.service.chaos`) whose spec rides into the worker and
fires at named points.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bist.march import IFA_9, MarchTest
from repro.core.config import RamConfig
from repro.core.errors import (
    BuildCrashed,
    ConfigError,
    ReproError,
    ServiceUnavailable,
    SignoffError,
)
from repro.runtime.supervision import (
    CrashBlame,
    RetryPolicy,
    classify_error,
    terminate_pool,
)
from repro.service.bundle import build_bundle
from repro.service.store import ArtifactStore

#: Requeues a request tolerates for pool deaths it did not cause
#: (someone else's timeout or crash) before giving up.  Generous: it
#: exists only to bound a pathological kill loop, not to police load.
MAX_INNOCENT_REQUEUES = 32


# ---------------------------------------------------------------------------
# the worker side (top level: pickled by name)
# ---------------------------------------------------------------------------

_STAGE_CACHE = None


def _worker_stage_cache():
    """One StageCache per worker process, reused across its builds."""
    global _STAGE_CACHE
    if _STAGE_CACHE is None:
        from repro.core.stages import StageCache

        _STAGE_CACHE = StageCache()
    return _STAGE_CACHE


def build_in_worker(
    store_root: str,
    byte_budget: Optional[int],
    config_dict: dict,
    march: MarchTest,
    signoff: Optional[str],
    key: str,
    attempt: int,
    chaos_spec: Optional[dict],
    claim_stale_s: float,
    claim_poll_s: float,
    wait_timeout_s: float,
) -> dict:
    """Build (or await) one bundle inside a worker process.

    Returns a small status payload — never artifact bytes; the parent
    reads those from the store with integrity checks.  Anticipated
    failures return (never raise) so typed details survive the pickle
    boundary, mirroring the campaign runner's worker contract.
    """
    try:
        if chaos_spec is not None:
            from repro.service.chaos import apply_chaos

            apply_chaos("spawn", chaos_spec, None, key)
        store = ArtifactStore(store_root, byte_budget=byte_budget)
        if store.contains(key) and store.verify(key):
            return {"status": "ok", "source": "store"}
        config = RamConfig.from_dict(config_dict)

        # Cross-process single-flight: one claim holder builds, the
        # rest wait for its publish (and adopt the claim if it dies).
        deadline = time.monotonic() + wait_timeout_s
        claimed = store.try_claim(key, stale_s=claim_stale_s)
        while not claimed:
            if store.contains(key) and store.verify(key):
                return {"status": "ok", "source": "waited"}
            if time.monotonic() > deadline:
                return {
                    "status": "failed", "taxonomy": "timeout",
                    "message": (
                        "timed out waiting for the claim holder "
                        f"of {key[:16]} to publish"),
                }
            time.sleep(claim_poll_s)
            claimed = store.try_claim(key, stale_s=claim_stale_s)
        try:
            # The claim may have been won only after the previous
            # holder published and released.
            if store.contains(key) and store.verify(key):
                return {"status": "ok", "source": "store"}
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("pre_build", chaos_spec, store, key)
            bundle = build_bundle(config, march, signoff=signoff,
                                  stage_cache=_worker_stage_cache())
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("pre_publish", chaos_spec, store, key)
                if apply_chaos("publish", chaos_spec, store, key,
                               bundle=bundle):
                    return {"status": "ok", "source": "built"}
            store.put(key, bundle)
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("post_publish", chaos_spec, store, key)
            return {"status": "ok", "source": "built"}
        finally:
            store.release_claim(key)
    except SignoffError as error:
        return {
            "status": "failed", "taxonomy": "signoff",
            "message": str(error), "report": error.report,
            "failure_class": error.failure_class,
        }
    except Exception as error:
        return {
            "status": "failed", "taxonomy": classify_error(error),
            "message": f"{type(error).__name__}: {error}",
        }


# ---------------------------------------------------------------------------
# results and stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildResult:
    """What :meth:`ProcessPoolBackend.build` hands the server."""

    artifacts: Dict[str, bytes]
    cached: bool
    elapsed_s: float
    source: str  # "store" | "waited" | "built"
    attempts: int


@dataclass
class BackendStats:
    """JSON-serializable counters for one backend instance."""

    builds: int = 0
    store_hits: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    quarantined: int = 0
    innocent_requeues: int = 0
    post_build_misses: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class ProcessPoolBackend:
    """Supervised multi-process build executor (see module docstring).

    Args:
        store: the shared :class:`ArtifactStore` — mandatory, because
            workers return results *through* it.
        workers: worker processes.
        deadline_s: per-attempt wall-clock budget for one build.
        retry: bounded-retry/backoff/quarantine policy (the
            :class:`~repro.runtime.supervision.RetryPolicy` shared
            with the campaign runner).
        chaos: optional deterministic fault injector — an object with
            ``spec_for(key, attempt) -> Optional[dict]``.
        claim_stale_s: age past which another process's claim file is
            presumed abandoned (its holder is also declared dead the
            moment its pid vanishes).  Defaults to ``2 * deadline_s``.
        poll_s: claim-wait poll interval inside workers.
    """

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        deadline_s: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        claim_stale_s: Optional[float] = None,
        poll_s: float = 0.02,
    ) -> None:
        if store is None:
            raise ConfigError(
                "the process-pool backend needs an artifact store: "
                "workers publish results through it")
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")
        self.store = store
        self.workers = workers
        self.deadline_s = deadline_s
        self.retry = retry or RetryPolicy()
        self.chaos = chaos
        self.claim_stale_s = claim_stale_s if claim_stale_s is not None \
            else max(2.0 * deadline_s, 10.0)
        self.poll_s = poll_s
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._retired: Dict[int, str] = {}  # generation -> cause
        self._inflight: Dict[str, int] = {}  # key -> generation
        self._blame = CrashBlame(self.retry.crash_retries)
        self._solo_pending: set = set()
        self._active = 0
        self._solo_waiting = 0
        self._solo_active = False
        self._shutdown = False
        self.stats = BackendStats()

    # -- public API ---------------------------------------------------------

    def build(self, key: str, config: RamConfig,
              march: MarchTest = IFA_9,
              signoff: Optional[str] = None) -> BuildResult:
        """Execute one build under full supervision; thread-safe.

        Raises:
            BuildCrashed: the request was quarantined as a poison
                config (it kept killing workers).
            ConfigError / SignoffError: deterministic failures,
                reconstructed from the worker payload, never retried.
            ReproError: retries exhausted (taxonomy in the message).
            ServiceUnavailable: the backend is shut down.
        """
        t0 = time.monotonic()
        attempts = 0
        innocents = 0
        failure = ("unknown", "never dispatched")
        while True:
            self._check_dispatchable(key)
            solo = self._acquire_slot(key)
            try:
                attempts += 1
                outcome, payload = self._dispatch(key, config, march,
                                                  signoff, attempts)
            finally:
                self._release_slot(key, solo)
            if outcome == "crashed":
                # Blame was assigned under the lock by whichever
                # thread retired the pool; quarantine check happens at
                # the top of the loop.  A crash retry does not consume
                # a regular attempt: the crash budget bounds it.
                attempts -= 1
                continue
            if outcome == "innocent":
                attempts -= 1
                innocents += 1
                with self._lock:
                    self.stats.innocent_requeues += 1
                if innocents > MAX_INNOCENT_REQUEUES:
                    raise ReproError(
                        f"build of {key[:16]} was re-queued "
                        f"{innocents} times by other requests' pool "
                        f"failures; giving up")
                continue
            if outcome == "ok":
                artifacts = self.store.get(key)
                if artifacts is not None:
                    with self._lock:
                        if payload["source"] == "built":
                            self.stats.builds += 1
                        else:
                            self.stats.store_hits += 1
                    return BuildResult(
                        artifacts=artifacts,
                        cached=payload["source"] != "built",
                        elapsed_s=time.monotonic() - t0,
                        source=payload["source"],
                        attempts=attempts,
                    )
                # Published, then lost before we could read it back
                # (eviction race, torn disk): a retryable failure.
                with self._lock:
                    self.stats.post_build_misses += 1
                failure = ("store_miss",
                           "bundle vanished between publish and "
                           "read-back (evicted or torn)")
            elif outcome == "timeout":
                failure = ("timeout",
                           f"build exceeded its {self.deadline_s:g}s "
                           f"deadline (worker killed)")
            else:  # worker-reported failure payload
                failure = (payload["taxonomy"], payload["message"])
                if payload["taxonomy"] == "config":
                    raise ConfigError(payload["message"])
                if payload["taxonomy"] == "signoff":
                    raise SignoffError(
                        payload["message"],
                        report=payload.get("report"),
                        failure_class=payload.get("failure_class", ""))
            if attempts >= self.retry.max_attempts:
                raise ReproError(
                    f"build of {key[:16]} failed after {attempts} "
                    f"attempt(s) [{failure[0]}]: {failure[1]}")
            with self._lock:
                self.stats.retries += 1
            time.sleep(self.retry.backoff_s(attempts))

    def shutdown(self) -> None:
        """Stop the pool; subsequent builds raise ServiceUnavailable."""
        with self._lock:
            self._shutdown = True
            pool = self._pool
            self._pool = None
            self._cond.notify_all()
        terminate_pool(pool)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def quarantined_keys(self) -> frozenset:
        with self._lock:
            return self._blame.quarantined

    def stats_dict(self) -> dict:
        with self._lock:
            data = self.stats.to_dict()
            data["workers"] = self.workers
            data["quarantined"] = len(self._blame.quarantined)
            return data

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, key, config, march, signoff, attempt):
        """One attempt on the pool; returns (outcome, payload)."""
        chaos_spec = (self.chaos.spec_for(key, attempt)
                      if self.chaos is not None else None)
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailable(
                    "build backend is shut down", reason="draining")
            if self._pool is None:
                self._generation += 1
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers)
            generation, pool = self._generation, self._pool
            self._inflight[key] = generation
        try:
            try:
                future = pool.submit(
                    build_in_worker,
                    os.fspath(self.store.root), self.store.byte_budget,
                    config.to_dict(), march, signoff, key, attempt,
                    chaos_spec, self.claim_stale_s, self.poll_s,
                    self.deadline_s,
                )
            except (BrokenExecutor, RuntimeError) as error:
                # The pool died before (or while) accepting the task.
                return self._on_break(key, generation,
                                      default_cause="crash"), None
            try:
                payload = future.result(timeout=self.deadline_s)
            except FutureTimeout:
                self._retire(generation, "timeout", overdue_key=key)
                with self._lock:
                    self.stats.timeouts += 1
                return "timeout", None
            except BrokenExecutor:
                return self._on_break(key, generation,
                                      default_cause="crash"), None
            if payload["status"] == "ok":
                return "ok", payload
            return "failed", payload
        finally:
            with self._lock:
                if self._inflight.get(key) == generation:
                    del self._inflight[key]

    def _on_break(self, key: str, generation: int,
                  default_cause: str) -> str:
        """Classify a BrokenExecutor: my crash, or collateral damage?"""
        cause = self._retire(generation, default_cause)
        if cause == "crash":
            with self._lock:
                if self._blame.is_quarantined(key):
                    return "crashed"  # loop re-checks and raises
                if key in self._solo_pending or \
                        self._blame.crashes(key) > 0:
                    return "crashed"
            return "innocent"
        # Someone else's deadline killed the pool under us.
        return "innocent"

    def _retire(self, generation: int, cause: str,
                overdue_key: Optional[str] = None) -> str:
        """Tear down one pool generation exactly once; returns the
        recorded cause (first claimant wins)."""
        with self._lock:
            recorded = self._retired.get(generation)
            if recorded is not None:
                return recorded
            self._retired[generation] = cause
            pool = None
            if self._generation == generation:
                pool = self._pool
                self._pool = None
            if cause == "crash":
                suspects = [k for k, g in self._inflight.items()
                            if g == generation]
                quarantined, resuspects = self._blame.accuse(suspects)
                self._solo_pending.update(resuspects)
                self._solo_pending.difference_update(quarantined)
                self.stats.crashes += 1
                self.stats.quarantined += len(quarantined)
        terminate_pool(pool)
        return cause

    # -- quarantine + solo gate ---------------------------------------------

    def _check_dispatchable(self, key: str) -> None:
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailable(
                    "build backend is shut down", reason="draining")
            if self._blame.is_quarantined(key):
                raise BuildCrashed(
                    f"request {key[:16]} killed "
                    f"{self._blame.crashes(key)} worker(s) and is "
                    f"quarantined as a poison config",
                    key=key, crashes=self._blame.crashes(key))

    def _acquire_slot(self, key: str) -> bool:
        """Admit one dispatch; crash suspects fly strictly alone."""
        with self._cond:
            solo = key in self._solo_pending
            if solo:
                self._solo_waiting += 1
                while self._active > 0 or self._solo_active:
                    self._cond.wait()
                self._solo_waiting -= 1
                self._solo_active = True
            else:
                while self._solo_active or self._solo_waiting > 0:
                    self._cond.wait()
            self._active += 1
            return solo

    def _release_slot(self, key: str, solo: bool) -> None:
        with self._cond:
            self._active -= 1
            if solo:
                self._solo_active = False
                # The solo flight is over; whatever happened, the key
                # either survived (innocent), got re-accused (back in
                # solo_pending via _retire), or was quarantined.
                self._solo_pending.discard(key)
            self._cond.notify_all()
