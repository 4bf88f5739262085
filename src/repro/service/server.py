"""The concurrent macro server: compile-as-a-service in one process.

A :class:`MacroServer` turns the compiler into a long-lived service
the way the ROADMAP's serving story demands: a thread pool executes
builds, the artifact store absorbs repeats across time, and three
mechanisms absorb repeats and overload *in the moment*:

* **Single-flight deduplication** — concurrent requests for the same
  bundle key coalesce onto one in-flight build; N identical requests
  cost exactly one compilation (then all N are served its artifacts).
* **Bounded queue with backpressure** — at most ``queue_limit``
  requests may be queued-or-running; beyond that, ``submit`` raises
  :class:`~repro.core.errors.ServiceUnavailable` immediately instead
  of letting latency grow without bound.
* **Graceful drain** — ``shutdown(drain=True)`` stops admissions,
  lets every in-flight build finish (they are expensive; killing them
  wastes the work), then stops the pool.

Metrics are first-class: per-request latency percentiles, hit/build/
coalesce/reject counts, plus the store's and stage cache's own stats,
all JSON-serializable for the HTTP ``/stats`` endpoint
(:mod:`repro.service.http`).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bist.march import IFA_9, MarchTest, parse_march
from repro.core.config import RamConfig
from repro.core.errors import ConfigError, ServiceUnavailable
from repro.core.stages import StageCache
from repro.service.bundle import bundle_key, compile_cached
from repro.service.store import ArtifactStore


@dataclass(frozen=True)
class CompileResponse:
    """What the server returns for one request.

    Attributes:
        key: the bundle's content address.
        cached: True when the bytes came from the artifact store.
        elapsed_s: wall time of the underlying build (shared across
            coalesced requests; per-caller latency lives in the
            server's metrics).
        artifacts: artifact name -> bytes.
    """

    key: str
    cached: bool
    elapsed_s: float
    artifacts: Dict[str, bytes]

    def manifest(self) -> dict:
        """Hash/size summary, safe to serialise without the payload."""
        return {
            name: {
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
            for name, data in sorted(self.artifacts.items())
        }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def latency_summary(latencies: Sequence[float]) -> dict:
    """p50/p90/p99/max/mean summary of a latency sample, in seconds.

    An empty sample returns every key zeroed rather than a bare
    ``{"count": 0}``: consumers (dashboards, the bench harness, tests)
    index ``p50_s`` unconditionally, and scraping ``/stats`` before the
    first request completes must not crash them.
    """
    if not latencies:
        return {"count": 0, "mean_s": 0.0, "p50_s": 0.0,
                "p90_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "mean_s": round(sum(ordered) / len(ordered), 6),
        "p50_s": round(percentile(ordered, 0.50), 6),
        "p90_s": round(percentile(ordered, 0.90), 6),
        "p99_s": round(percentile(ordered, 0.99), 6),
        "max_s": round(ordered[-1], 6),
    }


class MacroServer:
    """Thread-pool compile service with single-flight and backpressure.

    Args:
        store: optional :class:`ArtifactStore` consulted before (and
            fed after) every build.
        workers: build threads.
        queue_limit: max requests queued-or-running before
            :class:`ServiceUnavailable` backpressure kicks in
            (coalesced joins never count — they add no work).
        stage_cache: optional shared :class:`StageCache`; defaults to
            a private instance so different-policy requests for the
            same geometry share stage products.
        builder: the cached-compile callable, signature-compatible
            with :func:`repro.service.bundle.compile_cached`
            (injectable for tests and benchmarks).
        backend: optional
            :class:`~repro.service.backend.ProcessPoolBackend`; when
            given, builds run on supervised worker *processes* (the
            thread pool then only coordinates), warm store hits are
            still served from this process, and the server owns the
            backend's shutdown.  Mutually exclusive with ``builder``.
        wal: optional :class:`~repro.service.wal.RequestLog`; when
            given, every admitted request is journaled before its
            build starts, and requests left pending by a crashed
            predecessor are replayed in the background at startup
            (the server serves normally while replaying; ``ready``
            flips true when the backlog drains).
        batch_limit: max items one :meth:`submit_batch` may carry.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        workers: int = 4,
        queue_limit: int = 64,
        stage_cache: Optional[StageCache] = None,
        builder: Optional[Callable] = None,
        backend=None,
        wal=None,
        batch_limit: int = 64,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if batch_limit < 1:
            raise ConfigError("batch_limit must be >= 1")
        if builder is not None and backend is not None:
            raise ConfigError(
                "builder and backend are mutually exclusive")
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.batch_limit = batch_limit
        self.stage_cache = stage_cache if stage_cache is not None \
            else StageCache()
        self._builder = builder or compile_cached
        self._backend = backend
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="macroserver")
        # Reentrant: done-callbacks registered under the lock can fire
        # synchronously in this thread when the future is already done.
        self._lock = threading.RLock()
        self._inflight: Dict[str, Future] = {}
        self._admitted = 0  # queued + running (coalesced joins excluded)
        self._draining = False
        # -- metrics --
        self._request_latencies: List[float] = []
        self._build_latencies: List[float] = []
        self._requests = 0
        self._builds = 0
        self._store_hits = 0
        self._coalesced = 0
        self._rejected = 0
        self._failures = 0
        self._endpoints: Counter = Counter()
        self._started = time.monotonic()
        # -- write-ahead log + crash recovery --
        self._wal = wal
        self._wal_replayed = 0
        self._wal_replay_failures = 0
        self._ready = threading.Event()
        self._replay_thread: Optional[threading.Thread] = None
        backlog = wal.open() if wal is not None else []
        if backlog:
            self._replay_thread = threading.Thread(
                target=self._replay, args=(backlog,),
                name="macroserver-wal-replay", daemon=True)
            self._replay_thread.start()
        else:
            self._ready.set()

    # -- request path -------------------------------------------------------

    def submit(self, config: RamConfig, march: MarchTest = IFA_9,
               signoff: Optional[str] = None) -> "Future[CompileResponse]":
        """Admit one request; returns the (possibly shared) future.

        Raises:
            ServiceUnavailable: when draining, or when admitting would
                exceed ``queue_limit`` (backpressure — retry later).
        """
        key = bundle_key(config, march, signoff)
        t_submit = time.monotonic()
        with self._lock:
            if self._draining:
                self._rejected += 1
                raise ServiceUnavailable(
                    "macro server is draining for shutdown",
                    reason="draining")
            self._requests += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self._coalesced += 1
                self._observe_request(existing, t_submit)
                return existing
            if self._admitted >= self.queue_limit:
                self._requests -= 1
                self._rejected += 1
                raise ServiceUnavailable(
                    f"macro server saturated "
                    f"({self.queue_limit} request(s) queued or "
                    f"running); retry later", reason="saturated")
            self._admitted += 1
            request_id = None
            if self._wal is not None:
                # Journaled (and fsynced) before any work is
                # dispatched: an admitted request survives a kill.
                request_id = self._wal.admit(
                    key=key, config=config.to_dict(),
                    march_name=march.name,
                    march_notation=str(march), signoff=signoff)
            future: "Future[CompileResponse]" = self._pool.submit(
                self._run, key, config, march, signoff)
            self._inflight[key] = future
            future.add_done_callback(
                lambda f, key=key: self._retire(key, f))
            if request_id is not None:
                future.add_done_callback(
                    lambda f, rid=request_id: self._wal_done(rid, f))
            self._observe_request(future, t_submit)
            return future

    def compile(self, config: RamConfig, march: MarchTest = IFA_9,
                signoff: Optional[str] = None) -> CompileResponse:
        """Blocking submit: the response, or the build's exception."""
        return self.submit(config, march, signoff=signoff).result()

    def submit_batch(
        self, items: Sequence[Tuple[RamConfig, MarchTest,
                                    Optional[str]]],
    ) -> List[Tuple[str, object]]:
        """Admit many requests; partial-failure semantics.

        Each item is a ``(config, march, signoff)`` triple.  Returns a
        list aligned with ``items`` whose entries are ``("future", f)``
        for admitted (possibly coalesced) requests or ``("error", e)``
        for ones refused at admission — one rejected item never fails
        the rest of the batch.  Every admitted item is an individual
        WAL admit and coalesces against in-flight singles via the same
        single-flight map.

        Raises:
            ConfigError: the batch itself exceeds ``batch_limit``
                (the HTTP layer maps this to 413 before calling).
        """
        if len(items) > self.batch_limit:
            raise ConfigError(
                f"batch of {len(items)} item(s) exceeds the batch "
                f"limit of {self.batch_limit}")
        results: List[Tuple[str, object]] = []
        for config, march, signoff in items:
            try:
                results.append(
                    ("future", self.submit(config, march,
                                           signoff=signoff)))
            except Exception as error:
                results.append(("error", error))
        return results

    def count_endpoint(self, name: str) -> None:
        """Bump the per-endpoint request counter (HTTP layer hook)."""
        with self._lock:
            self._endpoints[name] += 1

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server.

        ``drain=True`` (the default) refuses new admissions, waits for
        every in-flight build, then stops the pool; ``drain=False``
        additionally cancels whatever has not started running.
        """
        with self._lock:
            self._draining = True
            inflight = list(self._inflight.values())
        if drain:
            if self._replay_thread is not None:
                self._replay_thread.join()
            for future in inflight:
                try:
                    future.result()
                except Exception:
                    pass  # the submitter owns the failure
            self._pool.shutdown(wait=True)
        else:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._backend is not None:
            self._backend.shutdown()
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "MacroServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=True)

    # -- observability ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """False while a WAL replay backlog is still being rebuilt.

        A not-ready server still serves requests (warm store hits
        especially); readiness is load-balancer advice, not a gate.
        """
        return self._ready.is_set()

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until WAL replay has drained; True when ready."""
        return self._ready.wait(timeout)

    def stats(self) -> dict:
        """JSON-serializable server + store + stage-cache metrics."""
        with self._lock:
            data = {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "batch_limit": self.batch_limit,
                "draining": self._draining,
                "ready": self.ready,
                "inflight": len(self._inflight),
                "requests": self._requests,
                "builds": self._builds,
                "store_hits": self._store_hits,
                "coalesced": self._coalesced,
                "rejected": self._rejected,
                "failures": self._failures,
                "endpoints": dict(self._endpoints),
                "request_latency": latency_summary(
                    self._request_latencies),
                "build_latency": latency_summary(self._build_latencies),
                "stage_cache": self.stage_cache.stats(),
            }
            if self._wal is not None:
                data["wal"] = {
                    "replayed": self._wal_replayed,
                    "replay_failures": self._wal_replay_failures,
                    "pending": len(self._wal.pending()),
                }
        if self._backend is not None:
            data["backend"] = self._backend.stats_dict()
        if self.store is not None:
            data["store"] = self.store.stats.to_dict()
        return data

    # -- internals ----------------------------------------------------------

    def _run(self, key: str, config: RamConfig, march: MarchTest,
             signoff: Optional[str]) -> CompileResponse:
        t0 = time.monotonic()
        try:
            if self._backend is not None:
                artifacts, hit = self._backend_build(
                    key, config, march, signoff)
            else:
                artifacts, hit, _ = self._builder(
                    config, march, signoff=signoff, store=self.store,
                    stage_cache=self.stage_cache)
        except Exception:
            with self._lock:
                self._failures += 1
            raise
        elapsed = time.monotonic() - t0
        with self._lock:
            if hit:
                self._store_hits += 1
            else:
                self._builds += 1
            self._build_latencies.append(elapsed)
        return CompileResponse(
            key=key, cached=hit, elapsed_s=elapsed,
            artifacts=artifacts,
        )

    def _backend_build(self, key, config, march, signoff):
        """Build via the process backend; warm hits stay in-process.

        The store read is integrity-checked, so a torn or evicted
        entry falls through to the backend, which rebuilds it.
        """
        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                return cached, True
        result = self._backend.build(key, config, march,
                                     signoff=signoff)
        return result.artifacts, result.cached

    def _replay(self, backlog) -> None:
        """Re-execute requests a dead predecessor admitted but never
        finished.  Runs once, in the background, off the request pool
        (replay must not eat queue_limit slots); the server serves
        normally throughout.  Idempotent: content addressing turns
        already-published work into store hits."""
        for record in backlog:
            status = "failed"
            try:
                config = RamConfig.from_dict(record["config"])
                march = parse_march(record["march_name"],
                                    record["march_notation"])
                self._run(record["key"], config, march,
                          record.get("signoff"))
                status = "ok"
            except Exception:
                # A request that cannot replay (config rejected by a
                # newer validator, signoff now failing) is retired as
                # failed: replaying it forever would be a crash loop.
                with self._lock:
                    self._wal_replay_failures += 1
            if status == "ok":
                with self._lock:
                    self._wal_replayed += 1
            try:
                self._wal.done(record["id"], status)
            except Exception:
                pass  # bookkeeping only; never kill the replay loop
        self._ready.set()

    def _wal_done(self, request_id: str, future: Future) -> None:
        try:
            status = "ok" if future.exception() is None else "failed"
        except Exception:  # cancelled during a non-drain shutdown
            status = "failed"
        try:
            self._wal.done(request_id, status)
        except Exception:
            pass  # a full disk must not break the response path

    def _retire(self, key: str, future: Future) -> None:
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
            self._admitted -= 1

    def _observe_request(self, future: Future, t_submit: float) -> None:
        """Record this caller's own admission-to-completion latency."""
        def record(_f: Future) -> None:
            latency = time.monotonic() - t_submit
            with self._lock:
                self._request_latencies.append(latency)

        future.add_done_callback(record)
