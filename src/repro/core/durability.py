"""Power-loss durability helpers and the one append-only JSONL log.

An ``fsync`` on a file makes its *bytes* durable; it does not make the
file's *directory entry* durable.  After an atomic
``tmp -> final`` rename, a power cut can therefore still lose the file
(the data blocks survive, the name does not) unless the parent
directory is fsynced too.  Every atomic-publish site in the repo — the
artifact store, and :meth:`JsonLog.rewrite` of the one append-only log
behind the campaign checkpoint journal and the service WAL — funnels
through :func:`fsync_dir` after its rename.

Must stay import-light (stdlib and :mod:`repro.core.errors` only): it
is pulled in from the lowest layers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ConfigError


def fsync_dir(path) -> None:
    """fsync a directory so renames/creates inside it survive power
    loss.

    Best-effort: platforms (and some filesystems) that cannot open a
    directory for reading simply skip the sync — the rename is still
    atomic, only its crash-durability window widens, which is the
    pre-existing behaviour everywhere this helper is called.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_file(handle) -> None:
    """Flush + fsync an open file handle (bytes, not directory entry)."""
    handle.flush()
    os.fsync(handle.fileno())


class JsonLog:
    """An append-only JSONL file whose first line is a versioned header.

    One JSON object per line, keys sorted; the header is
    ``{"type": "header", "version": N, ...}``.  ``label`` names the
    file in errors.  Callers appending from many threads hold a lock.
    """

    def __init__(self, path, label: str, version: int) -> None:
        self.path = Path(path)
        self.label = label
        self.version = version
        self._opened = False
        self._end: Optional[int] = None  # last loaded record's end byte

    def open(self, load: bool = True
             ) -> Tuple[Optional[dict], List[dict]]:
        """Claim the log; return ``(header, records)`` from disk.

        Blank lines are skipped, a torn *final* line (a kill's
        interrupted append) is dropped, earlier corruption is refused.
        ``header`` is None if the file has none; ``load=False`` skips
        reading a file the caller is about to :meth:`rewrite`.
        """
        if self._opened:
            raise ConfigError(f"{self.label} {self.path} is already open")
        loaded = self._load() if load else (None, [])
        self._opened = True
        return loaded

    def append(self, record: Mapping) -> None:
        """Append one record; durable once this returns.  The first
        append after a load cuts a torn tail and ends the last good
        line, so the record never fuses with old bytes."""
        self._require_open()
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            if self._end is not None:  # cut to the last good record
                handle.truncate(self._end)
                line = "\n" + line
                self._end = None
            handle.write(line)
            fsync_file(handle)

    def rewrite(self, header: Mapping, records: Iterable = ()) -> None:
        """Atomically replace the file with a header plus ``records``:
        tmp, fsync, ``os.replace``, fsync of the directory."""
        self._require_open()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in ({"type": "header", "version": self.version,
                          **header}, *records):
                handle.write(json.dumps(line, sort_keys=True) + "\n")
            fsync_file(handle)
        os.replace(tmp, self.path)
        fsync_dir(self.path.parent)
        self._end = None

    def close(self) -> None:
        self._opened = False

    def _require_open(self) -> None:
        if not self._opened:
            raise ConfigError(
                f"{self.label} {self.path} written before open()")

    def _load(self) -> Tuple[Optional[dict], List[dict]]:
        self._end = None
        try:
            lines = self.path.read_bytes().rstrip().split(b"\n")
        except FileNotFoundError:
            return None, []
        records, offset = [], 0
        for number, line in enumerate(lines, start=1):
            offset += len(line) + 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                if number < len(lines):
                    raise ConfigError(
                        f"{self.label} {self.path} is corrupt at line "
                        f"{number} (not a torn tail; refusing to guess)")
                break  # torn final write
            records.append(record)
            self._end = offset - 1
        if not records:
            return None, []
        header = records[0]
        found = (header.get("type"), header.get("version"))
        if found != ("header", self.version):
            raise ConfigError(
                f"{self.label} {self.path} does not start with a version "
                f"{self.version} header (found type {found[0]!r}, "
                f"version {found[1]!r})")
        return header, records[1:]
