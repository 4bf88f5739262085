"""Content-addressed on-disk artifact store for compiled macros.

One compiled configuration — CIF layout, TRPLA plane files, datasheet,
area report, signoff report — is a *bundle* of named artifacts keyed
by a canonical digest over everything that determines its bytes (the
:class:`~repro.core.config.RamConfig`, the march test, the process
rule deck, the signoff policy; see :func:`repro.service.bundle.bundle_key`).

On disk::

    <root>/objects/<k0k1>/<key>/manifest.json   per-artifact sha256 + size
    <root>/objects/<k0k1>/<key>/<artifact>      the raw bytes
    <root>/tmp/                                 staging for atomic publish

Guarantees:

* **Atomic writes** — a bundle is staged under ``tmp/`` and published
  with one ``os.rename``, so readers (including concurrent campaign
  worker processes) never observe a half-written entry; losing a
  publish race to another writer is silently fine because content
  addressing makes both copies identical.
* **Integrity on read** — every artifact is re-hashed against its
  manifest entry; any mismatch, truncation, or missing file deletes
  the entry and reports a *miss* (the caller rebuilds), never a crash
  or a silently corrupt artifact.
* **LRU eviction** — an optional byte budget; least-recently-used
  bundles are dropped first (access order is tracked in-process and
  falls back to manifest mtimes for entries created by other
  processes).  Eviction unlinks the manifest *first*, so a concurrent
  reader in another process observes a clean miss, never a
  half-deleted bundle.
* **Crash durability** — after the publish rename the parent
  directories are fsynced, so a power cut cannot lose the directory
  entry of a bundle whose bytes were already durable.
* **Claims** — per-digest claim files (``claims/<key>.claim``,
  created with ``O_EXCL``) give builders multi-process single-flight:
  one worker builds, the rest wait for the publish.  A claim whose
  owning pid is dead (or recycled: same pid, different process start
  time), or older than its staleness budget, can be broken and
  adopted — a crashed builder never wedges its digest.
* **Observability** — :class:`StoreStats` counts hits, misses,
  writes, evictions, corruption events, and current footprint, all
  JSON-serializable for the server's ``/stats`` endpoint.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.durability import fsync_dir, fsync_file
from repro.core.errors import ConfigError
from repro.core.liveness import process_start_time, same_process

MANIFEST = "manifest.json"
STORE_VERSION = 1

#: Process-wide staging counter so concurrent threads never collide on
#: a staging directory name.
_STAGING_IDS = itertools.count()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class StoreStats:
    """JSON-serializable counters for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt: int = 0
    #: Filled in by :meth:`ArtifactStore.stats` at read time.
    bytes: int = 0
    entries: int = 0
    byte_budget: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes": self.bytes,
            "entries": self.entries,
            "byte_budget": self.byte_budget,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class _Entry:
    """One published bundle as seen during an eviction scan."""

    key: str
    path: Path
    size: int
    last_access: float


class ArtifactStore:
    """Content-addressed bundle store (see the module docstring).

    Args:
        root: store directory (created if missing).
        byte_budget: optional cap on the summed artifact bytes; when
            exceeded after a write, least-recently-used bundles are
            evicted until the store fits.

    Thread-safe within a process; safe against concurrent writers in
    other processes thanks to atomic publish (their entries simply
    appear; eviction races at worst delete a bundle the other process
    re-creates on its next miss).
    """

    def __init__(self, root, byte_budget: Optional[int] = None) -> None:
        if byte_budget is not None and byte_budget < 1:
            raise ConfigError("byte_budget must be positive (or None)")
        self.root = Path(root)
        self.byte_budget = byte_budget
        self._objects = self.root / "objects"
        self._staging = self.root / "tmp"
        self._claims = self.root / "claims"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._staging.mkdir(parents=True, exist_ok=True)
        self._claims.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._stats = StoreStats(byte_budget=byte_budget)
        #: In-process access ordering (monotone counter per key); the
        #: tie-breaker above manifest mtimes, whose resolution is too
        #: coarse to order a test's back-to-back accesses.
        self._access: Dict[str, int] = {}
        self._access_clock = itertools.count(1)

    # -- public API ---------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a published entry exists (no integrity check, no
        hit/miss accounting) — the cheap existence probe builders use
        while waiting on another process's publish."""
        self._check_key(key)
        return (self._entry_dir(key) / MANIFEST).is_file()

    def verify(self, key: str) -> bool:
        """Integrity-check one bundle without returning its bytes.

        A corrupt or torn entry is deleted (and counted) exactly as in
        :meth:`get`, so a False answer means "gone; rebuild".  Neither
        outcome counts as a hit or a miss.
        """
        self._check_key(key)
        with self._lock:
            entry = self._entry_dir(key)
            manifest_path = entry / MANIFEST
            if not manifest_path.is_file():
                return False
            if self._verified_read(key, entry, manifest_path) is None:
                self._stats.corrupt += 1
                return False
            return True

    def get(self, key: str) -> Optional[Dict[str, bytes]]:
        """The bundle for ``key``, or None (miss *or* corruption).

        A corrupt entry — bad hash, wrong size, missing artifact,
        unreadable manifest — is deleted and counted, and the call
        reports a miss so the caller rebuilds.
        """
        self._check_key(key)
        with self._lock:
            entry = self._entry_dir(key)
            manifest_path = entry / MANIFEST
            if not manifest_path.is_file():
                self._stats.misses += 1
                return None
            artifacts = self._verified_read(key, entry, manifest_path)
            if artifacts is None:
                self._stats.corrupt += 1
                self._stats.misses += 1
                return None
            self._stats.hits += 1
            self._touch(key, manifest_path)
            return artifacts

    def put(self, key: str, artifacts: Mapping[str, bytes]) -> bool:
        """Publish a bundle atomically; True if this call stored it.

        Returns False when the key already exists (another thread,
        process, or an earlier call won the race) — content addressing
        makes the existing entry equivalent, so losing is success.
        """
        self._check_key(key)
        if not artifacts:
            raise ConfigError("refusing to store an empty bundle")
        for name in artifacts:
            if (not name or name == MANIFEST or "/" in name
                    or "\\" in name or name.startswith(".")):
                raise ConfigError(f"invalid artifact name {name!r}")
        with self._lock:
            final = self._entry_dir(key)
            if (final / MANIFEST).is_file():
                self._touch(key, final / MANIFEST)
                return False
            staged = self._staging / \
                f"{key[:16]}.{os.getpid()}.{next(_STAGING_IDS)}"
            staged.mkdir(parents=True)
            try:
                manifest = {
                    "version": STORE_VERSION,
                    "key": key,
                    "artifacts": {},
                }
                for name, data in sorted(artifacts.items()):
                    self._write_file(staged / name, data)
                    manifest["artifacts"][name] = {
                        "sha256": _sha256(data),
                        "bytes": len(data),
                    }
                # Manifest last: its presence marks the entry complete.
                self._write_file(
                    staged / MANIFEST,
                    json.dumps(manifest, sort_keys=True,
                               indent=1).encode("utf-8"),
                )
                final.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.rename(staged, final)
                except OSError:
                    # Lost the publish race; the surviving copy is
                    # byte-identical by construction.
                    shutil.rmtree(staged, ignore_errors=True)
                    return False
                # Artifact bytes are fsynced above; syncing the parent
                # directories makes the *entry* survive power loss too
                # (the rename alone does not).
                fsync_dir(final.parent)
                fsync_dir(self._objects)
            except Exception:
                shutil.rmtree(staged, ignore_errors=True)
                raise
            self._stats.writes += 1
            self._touch(key, final / MANIFEST)
            if self.byte_budget is not None:
                self._evict_to_budget()
            return True

    def delete(self, key: str) -> bool:
        """Drop one bundle; True if it existed."""
        self._check_key(key)
        with self._lock:
            entry = self._entry_dir(key)
            existed = entry.exists()
            self._remove_entry(key, entry)
            return existed

    def keys(self) -> List[str]:
        """Keys of every published bundle, sorted."""
        with self._lock:
            return sorted(e.key for e in self._scan())

    def total_bytes(self) -> int:
        """Summed artifact bytes across published bundles."""
        with self._lock:
            return sum(e.size for e in self._scan())

    # -- claims: multi-process single-flight --------------------------------

    def try_claim(self, key: str, stale_s: float = 120.0) -> bool:
        """Try to become the builder for ``key``; True on success.

        The claim is a file created with ``O_EXCL`` — the atomic
        cross-process mutex — recording owner pid, host, and wall
        time.  A claim is *stale* (and silently broken, then re-taken)
        when its owning pid no longer exists on this host or it is
        older than ``stale_s``: a builder that died mid-compile must
        never wedge its digest forever.
        """
        self._check_key(key)
        if stale_s <= 0:
            raise ConfigError("stale_s must be positive")
        path = self._claim_path(key)
        for _ in range(2):  # second try after breaking a stale claim
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                holder = self.claim_holder(key)
                if holder is None:
                    # Exists but unreadable: a live writer between its
                    # O_EXCL open and the flushed holder stamp, not a
                    # corpse.  Only file age may prove it abandoned —
                    # breaking it on sight double-admits the builder.
                    try:
                        age = time.time() - os.path.getmtime(path)
                    except OSError:
                        continue  # vanished underneath us: re-race
                    if age <= stale_s:
                        return False
                elif not self._claim_stale(holder, stale_s):
                    return False
                # Stale (or abandoned-unreadable) claim: break, re-race.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(),
                           "start": process_start_time(os.getpid()),
                           "host": socket.gethostname(),
                           "time": time.time(), "key": key}, handle)
                fsync_file(handle)
            return True
        return False

    def release_claim(self, key: str) -> None:
        """Drop this process's claim (idempotent; unowned is a no-op)."""
        self._check_key(key)
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def claim_holder(self, key: str) -> Optional[dict]:
        """The claim record for ``key``, or None (no claim / torn)."""
        self._check_key(key)
        try:
            return json.loads(self._claim_path(key).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def _claim_path(self, key: str) -> Path:
        return self._claims / f"{key}.claim"

    @staticmethod
    def _claim_stale(holder: dict, stale_s: float) -> bool:
        age = time.time() - holder.get("time", 0.0)
        if age > stale_s:
            return True
        pid = holder.get("pid")
        if (holder.get("host") == socket.gethostname()
                and isinstance(pid, int)):
            # Dead pid — or a *recycled* one: same number, different
            # process start time.  Either way the owner is gone and
            # the claim is adoptable immediately.
            if not same_process(pid, holder.get("start")):
                return True
        return False

    @property
    def stats(self) -> StoreStats:
        """Counters with the current footprint filled in."""
        with self._lock:
            entries = list(self._scan())
            self._stats.bytes = sum(e.size for e in entries)
            self._stats.entries = len(entries)
            return self._stats

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _check_key(key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ConfigError(
                f"store keys are lowercase hex digests, got {key!r}"
            )

    def _entry_dir(self, key: str) -> Path:
        return self._objects / key[:2] / key

    @staticmethod
    def _write_file(path: Path, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            fsync_file(handle)

    def _verified_read(self, key: str, entry: Path,
                       manifest_path: Path) -> Optional[Dict[str, bytes]]:
        """Read + integrity-check one bundle; None deletes the entry."""
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
            if (manifest.get("version") != STORE_VERSION
                    or manifest.get("key") != key):
                raise ValueError("manifest identity mismatch")
            artifacts: Dict[str, bytes] = {}
            for name, meta in manifest["artifacts"].items():
                data = (entry / name).read_bytes()
                if (len(data) != meta["bytes"]
                        or _sha256(data) != meta["sha256"]):
                    raise ValueError(f"artifact {name} fails its hash")
                artifacts[name] = data
            return artifacts
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError):
            shutil.rmtree(entry, ignore_errors=True)
            self._access.pop(key, None)
            return None

    def _touch(self, key: str, manifest_path: Path) -> None:
        self._access[key] = next(self._access_clock)
        try:
            os.utime(manifest_path)
        except OSError:
            pass  # LRU freshness only; never worth failing a read

    def _scan(self) -> Iterator[_Entry]:
        for shard in self._objects.iterdir() if \
                self._objects.exists() else ():
            if not shard.is_dir():
                continue
            for entry in shard.iterdir():
                manifest_path = entry / MANIFEST
                try:
                    manifest = json.loads(
                        manifest_path.read_text("utf-8"))
                    size = sum(int(m["bytes"]) for m in
                               manifest["artifacts"].values())
                    mtime = manifest_path.stat().st_mtime
                except (OSError, ValueError, KeyError, TypeError,
                        json.JSONDecodeError):
                    continue  # unpublished or torn; ignore
                yield _Entry(key=entry.name, path=entry, size=size,
                             last_access=mtime)

    def _evict_to_budget(self) -> None:
        """Drop LRU bundles until the store fits its byte budget."""
        entries = list(self._scan())
        total = sum(e.size for e in entries)
        if total <= self.byte_budget:
            return
        # In-process access order wins; mtime orders foreign entries.
        entries.sort(key=lambda e: (self._access.get(e.key, 0),
                                    e.last_access))
        for entry in entries:
            if total <= self.byte_budget:
                break
            self._remove_entry(entry.key, entry.path)
            total -= entry.size
            self._stats.evictions += 1

    def _remove_entry(self, key: str, entry: Path) -> None:
        """Drop a bundle manifest-first.

        The manifest's presence is what marks an entry published, so
        unlinking it before the artifacts turns a concurrent reader's
        view into a clean miss; deleting artifacts first would let a
        reader load the manifest and then find bytes missing —
        indistinguishable from corruption.
        """
        try:
            os.unlink(entry / MANIFEST)
        except OSError:
            pass
        shutil.rmtree(entry, ignore_errors=True)
        self._access.pop(key, None)
