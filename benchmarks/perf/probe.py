"""Host-speed probe: times operations against a fixed reference workload.

The benchmark runs on a shared VM whose speed moves by up to 1.9x for
seconds to minutes at a time, as other tenants load the host.  CPU time
moves with wall time, so the slow spells are contention, not
descheduling, and no statistic of wall time over a measurement of tens
of seconds escapes them: between measurements of identical code the
median operation spread 5-38 %, and the fastest operation 14-44 %.

A :class:`Probe` measures the host's speed from inside the timed child.
A CPU-time timer (``SIGPROF``) interrupts the child every ``EVERY_S`` of
CPU it uses, and the handler times one run of :func:`reference`, a
fixed piece of interpreted work of the kinds the program does: a JSON
round trip, a sort, regular-expression matches, string formatting,
method calls on small geometry objects and dictionary updates.  The
operation's wall time, less the probes that ran inside it, is then
scaled by ``NOMINAL_S`` over the probes' mean duration around it.  An
operation that took 1.5x as long because the host ran at two-thirds
speed reads the same as before; one that took 1.5x as long because the
program did more work reads 1.5x.  The reference is benchmark code, so
no change to the program moves it.

Measured on the 2-vCPU VM the baseline ran on, with one self-test
operation after another for five minutes, the log of an operation's
time rose 0.99 times as fast as the log of the probe's (correlation
0.95), and the scaled median of 20-40 s windows spread 4 % where the
wall-time median spread 21-32 %.  A tight pointer chase tracked the
host less well: depending on the hour, operations slowed 1.0 to 1.7
times as much as it did.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import signal
import time
from typing import List

#: CPU seconds between probes (about 1 % of the child's time).
EVERY_S = 0.05
#: :func:`reference`'s duration at full host speed on the baseline VM,
#: the speed that scaled times are given at.
NOMINAL_S = 0.0004
#: Probes that start this long before or after an operation count
#: toward its host speed, so that sub-millisecond operations get some.
WINDOW_S = 0.25

_DOC = json.dumps({"cells": [
    {"name": f"c{i}", "w": i * 3, "h": i % 7, "tags": ["a", "b", str(i)]}
    for i in range(40)]})
_NAME = re.compile(r"c(\d+)")


class _Box:
    def __init__(self, x: int, y: int, w: int, h: int) -> None:
        self.x, self.y, self.w, self.h = x, y, w, h

    def area(self) -> int:
        return self.w * self.h

    def overlaps(self, other: "_Box") -> bool:
        return (self.x < other.x + other.w and other.x < self.x + self.w
                and self.y < other.y + other.h
                and other.y < self.y + self.h)


class _Rect(_Box):
    def area(self) -> int:
        return super().area()


_rng = random.Random(0)
_BOXES = [_Rect(_rng.randrange(100), _rng.randrange(100),
                _rng.randrange(1, 20), _rng.randrange(1, 20))
          for _ in range(60)]
del _rng


def reference() -> int:
    """The fixed work one probe times."""
    cells = json.loads(_DOC)["cells"]
    total = 0
    for h, w, name in sorted(((c["h"], c["w"], c["name"]) for c in cells),
                             reverse=True):
        total += int(_NAME.match(name).group(1)) + len(f"{h}:{w}:{name}")
    for box in _BOXES:
        total += box.area()
        total += sum(box.overlaps(other) for other in _BOXES[:25])
    counts: dict = {}
    for i in range(400):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    return total + len(counts) + sum(x * x for x in range(300))


class Probe:
    """Times :func:`reference` on a CPU-time timer while it runs.

    ``start()`` installs the timer, ``stop()`` removes it, ``spent_s``
    is the time the probes took so far (to subtract from anything timed
    around them), and ``scaled(start, end, seconds)`` converts a time
    measured between ``start`` and ``end`` to seconds at nominal speed.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.spent_s = 0.0

    def _run(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.spent_s += duration

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._run)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        """Remove the timer, then probe once more, so that the last
        operation has a probe after it and there is always one."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._run(signal.SIGPROF, None)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """``seconds``, measured between ``start`` and ``end``, at the
        nominal host speed of the probes around that interval (the
        nearest probe when none falls in the window).  Call it after
        :meth:`stop`, which guarantees a probe."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.starts) - 1)
            if lo and start - self.starts[lo - 1] < self.starts[lo] - end:
                lo -= 1
            hi = lo + 1
        near = self.durations[lo:hi]
        return seconds * sum(NOMINAL_S / d for d in near) / len(near)
