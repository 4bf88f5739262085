"""Request-lifecycle write-ahead log for the macro server.

A server that is SIGKILLed mid-build loses its queue.  The artifact
store already guarantees no *corrupt* result survives, but the killed
requests themselves would simply vanish — a client that fire-and-forgot
a warm-up sweep, or a replicated front-end that acked admission, has
lost work.  The WAL closes that hole with the same append-only JSONL
log as the campaign journal, :class:`~repro.core.durability.JsonLog`:

* An ``admit`` record — the full request (bundle key, canonical config
  dict, march name + notation, signoff policy) — is appended and
  **fsynced before the build is dispatched**, so an admitted request is
  durable by the time any work happens.
* A ``done`` record retires it on completion (``ok`` / ``failed``);
  deterministic failures are done too — replaying a config error
  forever would be a crash loop, not recovery.
* On restart, :meth:`RequestLog.open` replays the file — forgiving a
  torn *final* line (the record a kill interrupted mid-append),
  refusing corruption anywhere earlier — and returns every admitted-
  but-not-done request for the server to re-execute.  Replay is
  idempotent by construction: requests are content-addressed, so a
  build that actually published before the crash becomes a store hit.
* The file is **compacted** on open and periodically afterwards
  (rewritten atomically with only the still-pending admits, then
  directory-fsynced), so the log tracks the in-flight set instead of
  growing with traffic.

The format is deliberately self-contained: a WAL can be replayed by a
*different* server process pointed at the same store, which is exactly
what the chaos harness's kill-and-restart scenario does.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.durability import JsonLog
from repro.core.errors import ConfigError

WAL_VERSION = 1

#: ``done`` records absorbed since the last compaction before the log
#: is rewritten.  Chosen so steady-state traffic compacts a few times a
#: minute at worst while a burst never grows the file unboundedly.
COMPACT_EVERY = 256


class RequestLog:
    """One macro server's write-ahead log of admitted requests.

    Usage::

        wal = RequestLog(path)
        pending = wal.open()          # replayable requests, oldest first
        rid = wal.admit(key=..., config=..., march_name=...,
                        march_notation=..., signoff=...)
        ...build...
        wal.done(rid, "ok")
        wal.close()

    Thread-safe: the server appends from many request threads.
    """

    def __init__(self, path) -> None:
        self._log = JsonLog(path, "request log", WAL_VERSION)
        self.path = self._log.path
        self._lock = threading.RLock()
        self._pending: Dict[str, dict] = {}
        self._sequence = 0
        self._finished_since_compact = 0

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> List[dict]:
        """Load (or create) the log; return pending admits, oldest
        first, and compact the file down to exactly those.  An empty
        or header-less file (a log that died mid-header) is fresh."""
        with self._lock:
            _header, records = self._log.open()
            for record in records:
                kind, rid = record.pop("type", None), record.get("id")
                if not isinstance(rid, str):
                    continue
                if kind == "admit":
                    self._pending[rid] = record
                    if rid[1:].isdigit():
                        self._sequence = max(self._sequence, int(rid[1:]))
                elif kind == "done":
                    self._pending.pop(rid, None)
            self.compact()
            return list(self._pending.values())

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "RequestLog":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request lifecycle ----------------------------------------------

    def admit(self, key: str, config: dict, march_name: str,
              march_notation: str,
              signoff: Optional[str] = None) -> str:
        """Record one admitted request; durable once this returns."""
        with self._lock:
            rid = f"r{self._sequence + 1:08d}"
            request = dict(id=rid, key=key, config=dict(config),
                           march_name=march_name,
                           march_notation=march_notation, signoff=signoff)
            self._log.append({"type": "admit", **request})
            self._sequence += 1
            self._pending[rid] = request
            return rid

    def done(self, request_id: str, status: str = "ok") -> None:
        """Retire one admitted request (idempotent for unknown ids —
        e.g. a replayed request that was also compacted away)."""
        if status not in ("ok", "failed"):
            raise ConfigError(
                f"done status must be 'ok' or 'failed', got {status!r}")
        with self._lock:
            if request_id not in self._pending:
                return
            self._log.append({"type": "done", "id": request_id,
                              "status": status})
            del self._pending[request_id]
            self._finished_since_compact += 1
            if self._finished_since_compact >= COMPACT_EVERY:
                self.compact()

    def pending(self) -> List[dict]:
        """Still-admitted requests, oldest first."""
        with self._lock:
            return list(self._pending.values())

    def compact(self) -> None:
        """Rewrite the file down to the header + pending admits.

        Refused before :meth:`open`: compacting an unloaded log would
        rewrite the file from an *empty* pending set, destroying a
        live server's journal out from under it.
        """
        with self._lock:
            self._log.rewrite({}, ({"type": "admit", **request}
                                   for request in self._pending.values()))
            self._finished_since_compact = 0
