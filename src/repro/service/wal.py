"""Request-lifecycle write-ahead log for the macro server.

A server that is SIGKILLed mid-build loses its queue.  The artifact
store already guarantees no *corrupt* result survives, but the killed
requests themselves would simply vanish — a client that fire-and-forgot
a warm-up sweep, or a replicated front-end that acked admission, has
lost work.  The WAL closes that hole with the same append-only JSONL
discipline as the campaign :class:`~repro.runtime.journal.CheckpointJournal`:

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

import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.durability import fsync_dir, fsync_file
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
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()
        self._pending: Dict[str, dict] = {}
        self._sequence = 0
        self._finished_since_compact = 0

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> List[dict]:
        """Load (or create) the log; return pending admits, oldest
        first, and compact the file down to exactly those."""
        with self._lock:
            if self._handle is not None:
                raise ConfigError("request log is already open")
            if self.path.exists():
                self._load()
            self._compact_locked()
            return list(self._pending.values())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

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
            if self._handle is None:
                raise ConfigError("admit() before open()")
            self._sequence += 1
            record = {
                "type": "admit",
                "id": f"r{self._sequence:08d}",
                "key": key,
                "config": dict(config),
                "march_name": march_name,
                "march_notation": march_notation,
                "signoff": signoff,
            }
            self._append(record)
            self._pending[record["id"]] = {
                k: v for k, v in record.items() if k != "type"}
            return record["id"]

    def done(self, request_id: str, status: str = "ok") -> None:
        """Retire one admitted request (idempotent for unknown ids —
        e.g. a replayed request that was also compacted away)."""
        if status not in ("ok", "failed"):
            raise ConfigError(
                f"done status must be 'ok' or 'failed', got {status!r}")
        with self._lock:
            if self._handle is None:
                raise ConfigError("done() before open()")
            if request_id not in self._pending:
                return
            self._append({"type": "done", "id": request_id,
                          "status": status})
            del self._pending[request_id]
            self._finished_since_compact += 1
            if self._finished_since_compact >= COMPACT_EVERY:
                self._compact_locked()

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
            if self._handle is None:
                raise ConfigError("compact() before open()")
            self._compact_locked()

    # -- internals ----------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        fsync_file(self._handle)

    def _load(self) -> None:
        """Parse an existing log into ``self._pending``.

        The same tolerance contract as the checkpoint journal: a torn
        *final* line is the record a kill interrupted and is forgiven;
        corruption anywhere earlier means the file was damaged, not
        interrupted, and is refused.
        """
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return  # torn header write; treat as a fresh log
        header = self._parse_json(lines[0], 1, len(lines))
        if header is None:
            return  # single torn line: a fresh log that died mid-header
        if (not isinstance(header, dict)
                or header.get("type") != "header"):
            raise ConfigError(
                f"request log {self.path} does not start with a header")
        if header.get("version") != WAL_VERSION:
            raise ConfigError(
                f"request log {self.path} is WAL version "
                f"{header.get('version')!r}; this server reads "
                f"version {WAL_VERSION}")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = self._parse_json(line, lineno, len(lines))
            if record is None:
                break  # torn final line from the interrupted run
            rid = record.get("id")
            if record.get("type") == "admit" and isinstance(rid, str):
                self._pending[rid] = {
                    k: v for k, v in record.items() if k != "type"}
                self._sequence = max(self._sequence,
                                     self._sequence_of(rid))
            elif record.get("type") == "done" and isinstance(rid, str):
                self._pending.pop(rid, None)

    def _parse_json(self, line: str, lineno: int,
                    total: int) -> Optional[dict]:
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            if lineno == total:
                return None
            raise ConfigError(
                f"request log {self.path} is corrupt at line {lineno} "
                f"(not a torn tail; refusing to guess)") from None

    @staticmethod
    def _sequence_of(rid: str) -> int:
        try:
            return int(rid.lstrip("r"))
        except ValueError:
            return 0

    def _compact_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        header = {"type": "header", "version": WAL_VERSION}
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self._pending.values():
                handle.write(json.dumps({"type": "admit", **record},
                                        sort_keys=True) + "\n")
            fsync_file(handle)
        os.replace(tmp, self.path)
        fsync_dir(self.path.parent)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._finished_since_compact = 0
