"""Append-only JSONL checkpoint journal for campaign runs.

A campaign that takes hours must survive a Ctrl-C, an OOM kill, or a
power cut with nothing worse than losing the shard that was mid-write.
The journal is a :class:`~repro.core.durability.JsonLog` — one
fsynced JSON object per line, a torn final line forgiven and repaired
before the next append, earlier corruption refused — plus campaign
policy:

* The **header** is written atomically and carries a digest of the
  campaign fingerprint — name, shard count, seed, parameters, task
  identity.  Resuming against a journal whose digest disagrees, or
  one with no header at all, is refused with a
  :class:`~repro.core.errors.ConfigError`: silently mixing shards from
  two different campaigns is the one corruption this format cannot
  detect after the fact.
* Each **shard** line is appended only when the shard reaches a final
  state (ok / failed / quarantined).

The journal never stores derived aggregates: resume re-reduces from the
per-shard results, so a resumed campaign is bit-identical to an
uninterrupted one by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.canonical import stable_digest
from repro.core.durability import JsonLog
from repro.core.errors import ConfigError

JOURNAL_VERSION = 1


def fingerprint_digest(fingerprint: Mapping) -> str:
    """Stable short digest of a campaign fingerprint mapping.

    The same canonical-JSON -> SHA-256 recipe as
    :meth:`~repro.core.config.RamConfig.digest` and the artifact
    store's bundle keys (:func:`repro.core.canonical.stable_digest`),
    truncated to the journal header's historical 16 characters.
    """
    return stable_digest(dict(fingerprint), 16)


class CheckpointJournal:
    """One campaign's checkpoint file.

    Usage: ``prior = journal.open(fingerprint, resume=...)`` returns the
    already-final shard payloads keyed by shard index (empty unless
    resuming), then ``journal.record(payload)`` appends each newly
    finalised shard, and ``journal.close()`` releases the log.
    """

    def __init__(self, path) -> None:
        self._log = JsonLog(path, "checkpoint", JOURNAL_VERSION)
        self.path = self._log.path

    def open(self, fingerprint: Mapping,
             resume: bool = False) -> Dict[int, dict]:
        """Create (or reopen) the journal; return journaled shards."""
        digest = fingerprint_digest(fingerprint)
        resume = resume and self.path.exists()
        header, records = self._log.open(load=resume)
        if not resume:
            self._log.rewrite({"digest": digest,
                               "campaign": dict(fingerprint)})
            return {}
        if header is None:
            raise ConfigError(
                f"checkpoint {self.path} has no header; rerun without "
                f"--resume")
        if header.get("digest") != digest:
            raise ConfigError(
                f"checkpoint {self.path} belongs to a different campaign "
                f"(digest {header.get('digest')!r}, expected {digest!r}); "
                f"refusing to resume"
            )
        prior: Dict[int, dict] = {}
        for record in records:
            kind, index = record.pop("type", None), record.get("index")
            if kind == "shard" and isinstance(index, int):
                prior[index] = record  # the last record for an index wins
        return prior

    def record(self, payload: Mapping) -> None:
        """Append one finalised shard; durable once this returns."""
        self._log.append({"type": "shard", **payload})

    def close(self) -> None:
        self._log.close()
