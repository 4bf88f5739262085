"""The supervised process-pool build backend of the macro server.

The thread-pool server (PR 4) executes builds on threads, so every
concurrent compile fights the GIL and a worker that dies, hangs, or
corrupts an artifact mid-publish takes the process (or the truth) with
it.  This backend moves builds onto the worker processes of one
:class:`~repro.runtime.supervision.SupervisedPool` (the pool the
campaign runner runs on too: per-call deadlines, solo-reflight crash
blame, quarantine) and keeps the build's attempt loop on top:

* **Bounded-backoff retry** — transient failures and deadline kills
  re-fly up to ``RetryPolicy.max_attempts`` with exponential backoff;
  ``config`` and ``signoff`` failures are deterministic and never
  retry.  Crash re-flights and innocent requeues (another request's
  pool death) cost no attempt.
* **Poison configs** — a request the pool quarantined for killing
  workers raises :class:`~repro.core.errors.BuildCrashed` fast on
  every later attempt.
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
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.bist.march import IFA_9, MarchTest
from repro.core.config import RamConfig
from repro.core.errors import (
    BuildCrashed,
    ConfigError,
    ReproError,
    SignoffError,
)
from repro.runtime.supervision import (
    RetryPolicy,
    SupervisedPool,
    classify_error,
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
    def chaos(point, store, **kwargs) -> bool:
        if chaos_spec is None:
            return False
        from repro.service.chaos import apply_chaos

        return apply_chaos(point, chaos_spec, store, key, **kwargs)

    try:
        chaos("spawn", None)
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
            chaos("pre_build", store)
            bundle = build_bundle(config, march, signoff=signoff,
                                  stage_cache=_worker_stage_cache())
            chaos("pre_publish", store)
            if chaos("publish", store, bundle=bundle):
                return {"status": "ok", "source": "built"}
            store.put(key, bundle)
            chaos("post_publish", store)
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
        if deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")
        self.store = store
        self.deadline_s = deadline_s
        self.retry = retry or RetryPolicy()
        self.pool = SupervisedPool(workers, self.retry.crash_retries)
        self.chaos = chaos
        self.claim_stale_s = claim_stale_s if claim_stale_s is not None \
            else max(2.0 * deadline_s, 10.0)
        self.poll_s = poll_s
        self._lock = threading.Lock()
        self._stats = BackendStats()

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
        while True:
            attempt = attempts + 1
            chaos_spec = (self.chaos.spec_for(key, attempt)
                          if self.chaos is not None else None)
            outcome, payload = self.pool.call(
                key, build_in_worker,
                os.fspath(self.store.root), self.store.byte_budget,
                config.to_dict(), march, signoff, key, attempt,
                chaos_spec, self.claim_stale_s, self.poll_s,
                self.deadline_s, deadline_s=self.deadline_s)
            if outcome == "quarantined":
                crashes = self.pool.crashes(key)
                raise BuildCrashed(
                    f"request {key[:16]} killed {crashes} worker(s) and "
                    f"is quarantined as a poison config",
                    key=key, crashes=crashes)
            if outcome == "crashed":
                continue  # costs no attempt: the crash budget bounds it
            if outcome == "innocent":
                innocents += 1
                with self._lock:
                    self._stats.innocent_requeues += 1
                if innocents > MAX_INNOCENT_REQUEUES:
                    raise ReproError(
                        f"build of {key[:16]} was re-queued "
                        f"{innocents} times by other requests' pool "
                        f"failures; giving up")
                continue
            attempts = attempt
            if outcome == "ok":
                artifacts = self.store.get(key)
                if artifacts is not None:
                    with self._lock:
                        if payload["source"] == "built":
                            self._stats.builds += 1
                        else:
                            self._stats.store_hits += 1
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
                    self._stats.post_build_misses += 1
                failure = ("store_miss",
                           "bundle vanished between publish and "
                           "read-back (evicted or torn)")
            elif outcome == "timeout":
                with self._lock:
                    self._stats.timeouts += 1
                failure = ("timeout",
                           f"build exceeded its {self.deadline_s:g}s "
                           f"deadline (worker killed)")
            else:  # failed: the worker's (or the pool's) payload
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
                self._stats.retries += 1
            time.sleep(self.retry.backoff_s(attempts))

    def shutdown(self) -> None:
        """Stop the pool; subsequent builds raise ServiceUnavailable."""
        self.pool.shutdown()

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def quarantined_keys(self) -> frozenset:
        return self.pool.quarantined

    @property
    def stats(self) -> BackendStats:
        """A snapshot; pool deaths and quarantines come from the pool."""
        with self._lock:
            return replace(self._stats, crashes=self.pool.deaths,
                           quarantined=len(self.pool.quarantined))

    def stats_dict(self) -> dict:
        return dict(self.stats.to_dict(), workers=self.pool.workers)
