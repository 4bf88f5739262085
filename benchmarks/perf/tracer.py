"""Benchmark-side span tracer over public callables.

The tracer never edits the program: it replaces a public callable on
its owner (a module or a class) with a timing wrapper and puts the
original back on :meth:`Tracer.close`.  Each wrapped callable gets a
count, a total time and a *self* time -- its duration minus the time of
the wrapped calls it made -- so the self times of all wrapped callables
plus the root span's own residue add up to the root span's duration.

Coarse callables (a floorplan build, one DRC leaf check, one store
read) also leave one Chrome trace event per call.  Hot callables (a
TRPLA evaluation or an array read, called tens of thousands of times
per operation) leave no event per call; their running totals are
emitted as counter events whenever a coarse span ends, which keeps the
trace small and the per-call cost low.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Union

#: How a span name is chosen: a fixed string, or a function of the
#: call's ``(args, kwargs)`` for callables whose role depends on an
#: argument (``build_floorplan(with_bisr=False)`` is the baseline).
SpanName = Union[str, Callable[[tuple, dict], str]]


class CallStats:
    """Aggregates of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "max_s": self.max_s}


class Tracer:
    """Wraps public callables and keeps their spans in memory.

    Use :meth:`wrap` for each callable, :meth:`call` to run the traced
    operation, then :meth:`close` to restore the originals.  Spans are
    kept in memory and written by :meth:`write_chrome` once the run is
    over, so the file write never lands inside a measured span.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stats: Dict[str, CallStats] = {}
        self.events: List[dict] = []
        #: Child-time accumulators of the open spans, above a bottom
        #: frame that is never read.
        self._stack: List[List[float]] = [[0.0]]
        self._hot: List[str] = []
        self._hot_seen: Dict[str, int] = {}
        self._restore: List[tuple] = []
        self._t0 = self.clock()

    # -- instrumentation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: SpanName, hot: bool = False,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``on_result(args, kwargs, result)`` runs after the timed call, so
        counting work there (shapes checked, bytes read) costs the
        parent span, never the wrapped one.
        """
        original = vars(owner)[attr]
        if hot and not isinstance(name, str):
            raise ValueError("hot spans need a fixed name")
        if hot:
            self._hot.append(name)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, hot, on_result))

    def _timed(self, fn, name: SpanName, hot: bool, on_result,
               root: bool = False):
        stack = self._stack
        clock = self.clock
        fixed = self._stats_for(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if len(stack) == 1 and not root:
                # Outside the traced operation (set-up, building the
                # next request): not part of any span.
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                label = name if fixed is not None else name(args, kwargs)
                stats = fixed or self._stats_for(label)
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if duration > stats.max_s:
                    stats.max_s = duration
                if not hot:
                    self._event(label, start, duration)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced operation.

        Wrapped callables are timed only inside a root span, so the
        per-span times cover the traced operations and nothing else.
        """
        return self._timed(fn, name, False, None, root=True)(*args)

    def close(self) -> None:
        """Put every wrapped callable back, most recent first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- bookkeeping ----------------------------------------------------------

    def _stats_for(self, name: str) -> CallStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = CallStats()
        return stats

    def _event(self, name: str, start: float, duration: float) -> None:
        ts = (start - self._t0) * 1e6
        self.events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": ts, "dur": duration * 1e6, "pid": 1, "tid": 1,
        })
        end = ts + duration * 1e6
        for hot in self._hot:
            stats = self.stats.get(hot)
            if stats is None or self._hot_seen.get(hot) == stats.calls:
                continue
            self._hot_seen[hot] = stats.calls
            self.events.append({
                "name": hot, "ph": "C", "ts": end, "pid": 1,
                "args": {"calls": stats.calls,
                         "total_ms": stats.total_s * 1e3},
            })

    def summary(self) -> Dict[str, dict]:
        """``{span name: {calls, total_s, self_s, max_s}}``."""
        return {name: s.to_dict() for name, s in sorted(self.stats.items())}

    def write_chrome(self, path, metadata: Optional[dict] = None) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        doc = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "bisramgen-bench"}},
                *self.events,
            ],
            "displayTimeUnit": "ms",
            "otherData": {"summary": self.summary(), **(metadata or {})},
        }
        with open(path, "w") as stream:
            json.dump(doc, stream)

