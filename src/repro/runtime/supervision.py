"""The supervised worker pool and its policies.

Two subsystems run CPU-bound work on worker processes: the batch
:class:`~repro.runtime.runner.CampaignRunner` (finite shard sets, run
to completion) and the long-lived
:class:`~repro.service.backend.ProcessPoolBackend` behind the macro
server (requests arrive forever).  Both run on one
:class:`SupervisedPool`, which owns everything a pool of workers needs
to survive its workers:

* :class:`SupervisedPool` — a blocking, thread-safe
  :meth:`~SupervisedPool.call` that dispatches one task to a pool
  *generation*, kills the generation when a task overruns its deadline,
  and rebuilds it after a worker dies.  Each caller keeps its own
  attempt loop on top and learns only how its call ended.
* :class:`CrashBlame` — solo-reflight crash accounting.  When a worker
  process dies, every task in flight is a *suspect*; suspects are
  re-flown alone so the next death identifies its killer, and a task
  that exceeds its crash budget is quarantined — it can never take a
  pool down again.
* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  plus the crash-retry budget that separates "try again" from
  "quarantine"; the callers' attempt loops read it.
* :func:`terminate_pool` — the only reliable way to stop hung or
  half-dead ``ProcessPoolExecutor`` workers.

Also home to :func:`classify_error`, the error-taxonomy mapper the
campaign journal and the service WAL both persist.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.errors import (
    ConfigError,
    RepairExhausted,
    ReproError,
    ServiceUnavailable,
    SpiceConvergenceError,
)

# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

_TAXONOMY = (
    (ConfigError, "config"),
    (SpiceConvergenceError, "convergence"),
    (RepairExhausted, "repair_exhausted"),
    (ReproError, "repro"),
    (TimeoutError, "timeout"),
    (OSError, "io"),
)


def classify_error(error: BaseException) -> str:
    """Map an exception onto the supervision error taxonomy."""
    for errtype, name in _TAXONOMY:
        if isinstance(error, errtype):
            return name
    return "unexpected"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, per task.

    The same policy shape as
    :class:`~repro.bisr.escalation.EscalationPolicy`, applied one level
    up: attempts instead of test/repair cycles, seconds instead of
    simulated maintenance cycles.

    Attributes:
        max_attempts: dispatches per task before it is finalised as
            failed (``config`` errors never retry — they are
            deterministic misuse, not weather).
        backoff_base: seconds waited before the second attempt.
        backoff_factor: multiplier applied to the wait per attempt.
        crash_retries: times a task may take a worker down with it
            before being quarantined.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    crash_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.crash_retries < 0:
            raise ConfigError("crash_retries must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt``."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


# ---------------------------------------------------------------------------
# crash blame
# ---------------------------------------------------------------------------


class CrashBlame:
    """Solo-reflight crash accounting of a :class:`SupervisedPool`.

    When a pool breaks, guilt is ambiguous — several tasks were in
    flight.  :meth:`accuse` charges every suspect one crash and splits
    them into *quarantined* (budget exceeded; never dispatch again)
    and *suspects* (re-fly, but strictly alone, so the next death has
    exactly one candidate killer).

    Not thread-safe by itself; the pool holds its lock around it.
    """

    def __init__(self, crash_retries: int) -> None:
        if crash_retries < 0:
            raise ConfigError("crash_retries must be >= 0")
        self.crash_retries = crash_retries
        self._crashes: Counter = Counter()
        self._quarantined: set = set()

    def accuse(self, keys) -> Tuple[List[Hashable], List[Hashable]]:
        """Charge each key one crash; -> (quarantined, solo_suspects)."""
        quarantined: List[Hashable] = []
        suspects: List[Hashable] = []
        for key in keys:
            self._crashes[key] += 1
            if self._crashes[key] > self.crash_retries:
                self._quarantined.add(key)
                quarantined.append(key)
            else:
                suspects.append(key)
        return quarantined, suspects

    def crashes(self, key: Hashable) -> int:
        """How many worker deaths this key has been charged with."""
        return self._crashes[key]

    def is_quarantined(self, key: Hashable) -> bool:
        return key in self._quarantined

    @property
    def quarantined(self) -> frozenset:
        return frozenset(self._quarantined)


# ---------------------------------------------------------------------------
# the supervised pool
# ---------------------------------------------------------------------------


class SupervisedPool:
    """One ``ProcessPoolExecutor`` that outlives its workers.

    :meth:`call` runs ``fn(*args)`` on a worker and blocks until it
    ends; any number of threads may call at once.  The pool behind it
    is rebuilt on demand, one *generation* at a time:

    * a call past its ``deadline_s`` retires the generation (a hung
      worker cannot be joined, only killed), and every other call in
      flight on it comes back ``innocent``;
    * a worker death retires the generation too, and every call in
      flight on it is accused in :class:`CrashBlame`: it comes back
      ``crashed`` and its next call flies strictly alone, until its
      crash budget runs out and the key is ``quarantined``.

    ``fn`` must be picklable by name and return a dict whose
    ``"status"`` is ``"ok"`` on success; workers report anticipated
    failures as such dicts (with ``taxonomy`` and ``message``) rather
    than raise.  An exception that crosses the pickle boundary anyway
    (say, an unpicklable result) becomes a failed payload of the
    :func:`classify_error` taxonomy.
    """

    def __init__(self, workers: int, crash_retries: int) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers = workers
        #: Pool generations lost to a worker death.
        self.deaths = 0
        self._blame = CrashBlame(crash_retries)
        self._cond = threading.Condition()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._inflight: Dict[Hashable, int] = {}  # key -> generation
        self._solo_pending: set = set()  # accused, not yet re-flown
        self._active = 0  # calls dispatching
        self._solo = 0  # solo calls waiting or dispatching
        self._closed = False

    def call(self, key: Hashable, fn: Callable, *args,
             deadline_s: Optional[float] = None) -> Tuple[str, Optional[dict]]:
        """Run ``fn(*args)`` for ``key`` on a worker; blocking.

        Returns ``(outcome, payload)``: ``ok`` or ``failed`` with the
        task's payload, or, with no payload, ``timeout`` (the call
        overran ``deadline_s``), ``crashed`` (accused of killing a
        worker), ``innocent`` (its pool was killed for another call)
        or ``quarantined`` (not dispatched: the key kills workers).

        Raises:
            ServiceUnavailable: the pool is shut down.
        """
        with self._cond:
            solo = key in self._solo_pending
            if solo:  # crash suspects fly strictly alone
                # A crash during this flight accuses the key afresh.
                self._solo_pending.discard(key)
                self._solo += 1
                while self._active:
                    self._cond.wait()
            else:
                while self._solo:
                    self._cond.wait()
            self._active += 1
        try:
            return self._dispatch(key, fn, args, deadline_s)
        finally:
            with self._cond:
                self._active -= 1
                self._solo -= solo
                self._cond.notify_all()

    def crashes(self, key: Hashable) -> int:
        """How many worker deaths ``key`` has been charged with."""
        with self._cond:
            return self._blame.crashes(key)

    @property
    def quarantined(self) -> frozenset:
        with self._cond:
            return self._blame.quarantined

    def shutdown(self) -> None:
        """Kill the workers; later calls raise ServiceUnavailable and
        calls in flight come back ``innocent``."""
        with self._cond:
            self._closed = True
            generation = self._generation
            self._cond.notify_all()
        self._retire(generation, "shutdown")

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, key, fn, args, deadline_s):
        with self._cond:
            if self._closed:
                raise ServiceUnavailable("worker pool is shut down",
                                         reason="draining")
            if self._blame.is_quarantined(key):
                return "quarantined", None
            if self._pool is None:
                self._generation += 1
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            generation, pool = self._generation, self._pool
            self._inflight[key] = generation
        try:
            try:
                future = pool.submit(fn, *args)
            except RuntimeError:  # BrokenExecutor, or shut down under us
                return self._on_break(key, generation), None
            try:
                payload = future.result(timeout=deadline_s)
            except FutureTimeout:
                self._retire(generation, "timeout")
                return "timeout", None
            except BrokenExecutor:
                return self._on_break(key, generation), None
            except Exception as error:
                return "failed", {
                    "status": "failed", "taxonomy": classify_error(error),
                    "message": f"{type(error).__name__}: {error}",
                }
            return ("ok" if payload["status"] == "ok" else "failed"), payload
        finally:
            with self._cond:
                if self._inflight.get(key) == generation:
                    del self._inflight[key]

    def _on_break(self, key: Hashable, generation: int) -> str:
        self._retire(generation, "crash")
        with self._cond:  # accused if its generation died of a crash
            accused = (key in self._solo_pending
                       or self._blame.is_quarantined(key))
        return "crashed" if accused else "innocent"

    def _retire(self, generation: int, cause: str) -> None:
        """Tear down one pool generation, once: the first caller names
        the cause."""
        with self._cond:
            if generation != self._generation or self._pool is None:
                return
            pool, self._pool = self._pool, None
            if cause == "crash":
                suspects = [k for k, g in self._inflight.items()
                            if g == generation]
                quarantined, resuspects = self._blame.accuse(suspects)
                self._solo_pending.update(resuspects)
                self._solo_pending.difference_update(quarantined)
                self.deaths += 1
        terminate_pool(pool)


# ---------------------------------------------------------------------------
# pool teardown
# ---------------------------------------------------------------------------


#: Seconds a signalled worker gets to exit.
_REAP_GRACE_S = 5.0


def terminate_pool(pool) -> None:
    """Terminate a ``ProcessPoolExecutor`` and its workers, hung ones
    included, and return once every worker has an exit code.

    ``shutdown()`` alone leaves hung/killed workers running; the
    private-but-stable ``_processes`` map is the only way to reclaim
    them without abandoning ``ProcessPoolExecutor``.  A worker still
    running ``_REAP_GRACE_S`` after SIGTERM is sent SIGKILL.
    """
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.terminate()  # a no-op once the worker is reaped
    pool.shutdown(wait=False, cancel_futures=True)
    stragglers = _reap(processes)
    for process in stragglers:
        process.kill()
    _reap(stragglers)


def _reap(processes) -> List:
    """Wait, at most ``_REAP_GRACE_S`` in all, until each process has
    an exit code; returns those that still have none."""
    deadline = time.monotonic() + _REAP_GRACE_S
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
        # The executor's manager thread may have reaped the worker
        # first; its exit code is set once that thread records it.
        while process.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.005)
    return [process for process in processes if process.exitcode is None]
