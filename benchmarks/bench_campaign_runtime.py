"""The campaign runtime's two quantitative promises.

* **Parallel speedup** — sharded Monte-Carlo yield on a process pool
  must beat the serial run while producing bit-identical aggregates
  (seed-sharded via ``SeedSequence.spawn``, so parallelism is free of
  statistical cost).  The >=2x-at-4-workers assertion only fires on
  machines that actually have 4 cores; everywhere we assert equality.
* **Resume overhead** — replaying a finished checkpoint journal must
  cost <10% of the original run: the runner adopts journaled shards
  without ever creating a worker pool.
"""

import os
import time

from conftest import print_table
from repro.runtime import CampaignRunner
from repro.runtime.drivers import montecarlo_campaign

ROWS = 1024
SPARES = 4
DEFECTS = 5.0
TRIALS = 400_000
SHARDS = 8


def spec():
    return montecarlo_campaign(ROWS, SPARES, 4, 4, defects=DEFECTS,
                               trials=TRIALS, n_shards=SHARDS, seed=42)


def timed(runner):
    start = time.perf_counter()
    result = runner.run(spec())
    return result, time.perf_counter() - start


def test_parallel_speedup():
    # The shards import the yield model (scipy) on first use.  Import it
    # here, so the workers of both runs fork from the same warm parent
    # and neither timed run pays for the import alone.
    import repro.yieldmodel.montecarlo  # noqa: F401

    serial, t1 = timed(CampaignRunner(workers=1))
    parallel, t4 = timed(CampaignRunner(workers=4))
    speedup = t1 / t4
    print_table(
        "campaign speedup (Monte-Carlo yield, "
        f"{TRIALS} trials / {SHARDS} shards)",
        ("workers", "wall s", "speedup", "yield"),
        [(1, f"{t1:.2f}", "1.00", f"{serial.aggregates['yield']:.4f}"),
         (4, f"{t4:.2f}", f"{speedup:.2f}",
          f"{parallel.aggregates['yield']:.4f}")],
    )
    # Determinism is unconditional; the speedup floor only applies
    # where the hardware can deliver it.
    assert serial.aggregates == parallel.aggregates
    assert serial.completed == parallel.completed == SHARDS
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0


def test_resume_overhead(tmp_path):
    checkpoint = tmp_path / "campaign.jsonl"
    full, t_full = timed(CampaignRunner(workers=1,
                                        checkpoint=str(checkpoint)))
    resumed, t_resume = timed(CampaignRunner(workers=1,
                                             checkpoint=str(checkpoint),
                                             resume=True))
    overhead = t_resume / t_full
    print_table(
        "checkpoint resume overhead",
        ("run", "wall s", "fraction"),
        [("full", f"{t_full:.3f}", "1.000"),
         ("resume", f"{t_resume:.3f}", f"{overhead:.3f}")],
    )
    assert resumed.resumed == SHARDS
    assert resumed.aggregates == full.aggregates
    assert overhead < 0.10
