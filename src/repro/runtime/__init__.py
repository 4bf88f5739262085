"""Crash-safe parallel campaign runtime.

* :mod:`~repro.runtime.runner` — the supervised runner:
  seed-sharded task units on a process pool, per-shard timeouts,
  bounded retry with exponential backoff, worker-crash quarantine,
  and graceful degradation into a :class:`CampaignResult`,
* :mod:`~repro.runtime.journal` — the append-only JSONL checkpoint
  journal behind ``--checkpoint`` / ``--resume``,
* :mod:`~repro.runtime.drivers` — the sharded workloads: Monte-Carlo
  yield, supervised fault-injection repair, SPICE sizing sweeps,
* :mod:`~repro.runtime.supervision` — the supervised worker pool
  (dispatch, deadlines, crash blame, pool teardown) and retry policy
  shared with the service tier's process-pool build backend.
"""

from repro.runtime.journal import CheckpointJournal, fingerprint_digest
from repro.runtime.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    ShardOutcome,
    ShardSpec,
)
from repro.runtime.supervision import (
    CrashBlame,
    RetryPolicy,
    SupervisedPool,
    classify_error,
    terminate_pool,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CheckpointJournal",
    "CrashBlame",
    "RetryPolicy",
    "ShardOutcome",
    "ShardSpec",
    "SupervisedPool",
    "classify_error",
    "fingerprint_digest",
    "terminate_pool",
]
