"""Pid-liveness with recycled-pid detection.

``os.kill(pid, 0)`` answers "does some process with this pid exist?",
which is the wrong question for crash recovery: on a busy host a pid
is recycled in minutes, and a claim file whose owner died can then point at an unrelated live process forever.  The robust
identity of a process is the pair ``(pid, start time)`` — Linux exposes
the start time (in clock ticks since boot) as field 22 of
``/proc/<pid>/stat``, and a recycled pid necessarily has a different
one.

Every file-based ownership record in the repo (the artifact store's
claim files) stamps :func:`process_start_time` at
creation and checks :func:`same_process` at adoption time.  On
platforms without ``/proc`` the start time reads as None and liveness
degrades gracefully to the plain pid probe.

Must stay stdlib-only and import-light: it is pulled in from the
lowest layers.
"""

from __future__ import annotations

import os
from typing import Optional


def process_start_time(pid: int) -> Optional[int]:
    """The process's start time in clock ticks since boot, or None.

    None means "unknown" (no ``/proc``, permission denied, pid gone),
    never "dead" — callers must combine it with :func:`pid_alive`.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
        # The comm field is parenthesised and may itself contain
        # spaces or parens; everything after the *last* ')' is
        # whitespace-separated.  starttime is field 22 overall, i.e.
        # index 19 of the post-comm fields (state is field 3).
        return int(stat.rpartition(")")[2].split()[19])
    except (OSError, ValueError, IndexError):
        return None


def pid_alive(pid: int) -> bool:
    """Whether *some* process with this pid exists on this host.

    EPERM counts as alive (the pid exists, it just is not ours to
    signal) — exactly the semantics the claim files relied on.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. EPERM: exists but not ours
    return True


def same_process(pid: int, start: Optional[int]) -> bool:
    """Whether the process that recorded ``(pid, start)`` still runs.

    False when the pid is gone *or* when it is alive but started at a
    different time — a recycled pid wearing a dead owner's number.  An
    unknown start time (either side) falls back to the pid probe, so
    records written on platforms without ``/proc`` stay adoptable only
    by age.
    """
    if not pid_alive(pid):
        return False
    if start is None:
        return True
    observed = process_start_time(pid)
    return observed is None or observed == start
