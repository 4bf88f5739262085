"""Compile-as-a-service economics: store payoff and server throughput.

Three claims back the service subsystem:

* A **warm** compile — same configuration, artifact store populated —
  must be at least 5x faster than the cold build it replaces, and must
  hand back byte-identical artifacts (the store is an optimisation,
  never an approximation).
* The macro server must scale request throughput with client
  concurrency when requests hit the store, because warm requests are
  I/O-bound reads behind a thread pool, not compiles.
* The **batch endpoint** amortizes HTTP round-trips: N warm items
  through one ``/compile_batch`` stream must not be slower than N
  sequential ``/compile`` calls (and should win clearly at depth).
"""

import threading
import time

from conftest import print_table
from repro.core.config import RamConfig
from repro.core.stages import StageCache
from repro.service import ArtifactStore, MacroServer, compile_cached
from repro.service.http import (
    ServiceClient,
    make_http_server,
    serve_forever_in_thread,
)

CONFIG = RamConfig(words=64, bpw=8, bpc=4, strap_every=8)
CLIENT_THREADS = (1, 4, 8)
REQUESTS_PER_CLIENT = 25
BATCH_DEPTHS = (1, 8, 32)


def test_cold_vs_warm_compile(tmp_path):
    """The acceptance bar: warm >= 5x cold, byte-identical bundles."""
    store = ArtifactStore(tmp_path / "store")

    t0 = time.perf_counter()
    cold_bundle, cold_hit, key = compile_cached(CONFIG, store=store)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm_bundle, warm_hit, warm_key = compile_cached(CONFIG,
                                                     store=store)
    warm_s = time.perf_counter() - t0

    assert not cold_hit and warm_hit
    assert warm_key == key
    assert warm_bundle == cold_bundle  # byte-identical, every artifact
    speedup = cold_s / warm_s if warm_s else float("inf")

    # Stage memoization is the middle ground: no store, but a warm
    # stage cache skips every producer.
    cache = StageCache()
    compile_cached(CONFIG, stage_cache=cache, use_cache=False)
    t0 = time.perf_counter()
    staged_bundle, _, _ = compile_cached(CONFIG, stage_cache=cache,
                                         use_cache=False)
    staged_s = time.perf_counter() - t0
    assert staged_bundle == cold_bundle

    print_table(
        "Cold vs. warm compile, 64x8 macro (bundle of "
        f"{len(cold_bundle)} artifacts)",
        ["path", "seconds", "speedup"],
        [
            ["cold build", f"{cold_s:.3f}", "1x"],
            ["warm stage cache", f"{staged_s:.3f}",
             f"{cold_s / staged_s:.0f}x" if staged_s else "inf"],
            ["warm artifact store", f"{warm_s:.4f}",
             f"{speedup:.0f}x"],
        ],
    )
    assert speedup >= 5.0, (
        f"warm path only {speedup:.1f}x faster than cold"
    )


def _hammer(server, n_clients, requests_per_client):
    """``n_clients`` threads, each issuing blocking compiles."""
    errors = []

    def client():
        for _ in range(requests_per_client):
            try:
                server.compile(CONFIG)
            except Exception as error:  # pragma: no cover
                errors.append(error)

    threads = [threading.Thread(target=client)
               for _ in range(n_clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    assert not errors, errors[:1]
    return elapsed


def test_server_throughput_scales_with_clients(tmp_path):
    """Warm-store requests through the server at 1/4/8 client threads."""
    store = ArtifactStore(tmp_path / "store")
    compile_cached(CONFIG, store=store)  # pre-warm

    rows = []
    throughputs = {}
    for n_clients in CLIENT_THREADS:
        server = MacroServer(store=store, workers=8, queue_limit=256)
        elapsed = _hammer(server, n_clients, REQUESTS_PER_CLIENT)
        stats = server.stats()
        server.shutdown()
        total = n_clients * REQUESTS_PER_CLIENT
        throughputs[n_clients] = total / elapsed
        rows.append([
            n_clients, total, f"{elapsed:.3f}",
            f"{total / elapsed:.0f}",
            f"{stats['request_latency']['p50_s'] * 1e3:.1f}",
            f"{stats['request_latency']['p99_s'] * 1e3:.1f}",
            stats["builds"],
        ])
        assert stats["builds"] == 0  # pre-warmed: store served all
        # Every request either read the store itself or coalesced
        # onto a request that did.
        assert stats["store_hits"] + stats["coalesced"] == total

    print_table(
        "Macro server throughput, warm store (25 req/client)",
        ["clients", "requests", "seconds", "req/s", "p50 ms",
         "p99 ms", "builds"],
        rows,
    )
    # Warm serving must not collapse under concurrency: 8 clients
    # should clear at least as much as a single client does.
    assert throughputs[8] >= throughputs[1] * 0.8


def test_single_flight_absorbs_a_thundering_herd(tmp_path):
    """8 concurrent cold requests for one key cost one build."""
    store = ArtifactStore(tmp_path / "store")
    server = MacroServer(store=store, workers=8)
    barrier = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def client():
        barrier.wait()
        response = server.compile(CONFIG)
        with lock:
            results.append(response)

    threads = [threading.Thread(target=client) for _ in range(8)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    stats = server.stats()
    server.shutdown()

    print_table(
        "Thundering herd: 8 concurrent identical cold requests",
        ["requests", "builds", "coalesced", "store hits", "seconds"],
        [[stats["requests"], stats["builds"], stats["coalesced"],
          stats["store_hits"], f"{elapsed:.3f}"]],
    )
    assert len(results) == 8
    assert stats["builds"] + stats["store_hits"] == 1
    assert stats["coalesced"] == 7


def _distinct_configs(count):
    """``count`` configurations with distinct bundle keys (cold work
    that cannot coalesce or hit the store)."""
    configs = [RamConfig(words=64, bpw=8, bpc=4, strap_every=8,
                         gate_size=gate, spares=spares)
               for gate in range(1, 9) for spares in (4, 8)]
    assert count <= len(configs)
    return configs[:count]


def test_process_backend_cold_throughput_scales(tmp_path):
    """Cold builds through the supervised process backend must scale
    with client concurrency — that is the whole point of moving off
    the GIL-bound thread pool.

    The bar is core-aware: builds are CPU-bound, so an N-core box can
    only deliver ~N-fold scaling.  On >= 6 cores we demand the full
    3x at 8 clients vs 1; on smaller boxes we demand proportionally
    less (and on one core only that concurrency does not collapse)."""
    import os

    from repro.service.backend import ProcessPoolBackend
    from repro.service.bundle import bundle_key

    cores = os.cpu_count() or 1
    requests_per_client = 2
    rows = []
    throughputs = {}
    for n_clients in (1, 8):
        configs = _distinct_configs(n_clients * requests_per_client)
        store = ArtifactStore(tmp_path / f"store-{n_clients}")
        backend = ProcessPoolBackend(store, workers=8, poll_s=0.01)
        server = MacroServer(store=store, workers=8,
                             queue_limit=256, backend=backend)
        errors = []

        def client(index, server=server, configs=configs):
            for j in range(requests_per_client):
                config = configs[index * requests_per_client + j]
                try:
                    response = server.compile(config)
                    assert response.key == bundle_key(config)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        stats = server.stats()
        server.shutdown()
        assert not errors, errors[:1]
        total = n_clients * requests_per_client
        assert stats["backend"]["builds"] == total  # all cold, no dupes
        throughputs[n_clients] = total / elapsed
        rows.append([n_clients, total, f"{elapsed:.3f}",
                     f"{total / elapsed:.2f}"])

    print_table(
        f"Process-backend cold-build throughput ({cores} core(s))",
        ["clients", "cold builds", "seconds", "builds/s"],
        rows,
    )
    ratio = throughputs[8] / throughputs[1]
    if cores >= 6:
        floor = 3.0
    elif cores >= 2:
        floor = 1.2
    else:
        floor = 0.5  # single core: no parallel speedup to be had
    assert ratio >= floor, (
        f"8-client throughput only {ratio:.2f}x the single-client "
        f"rate on {cores} core(s); floor {floor}x")


def test_batch_amortizes_http_roundtrips(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    compile_cached(CONFIG, store=store)  # pre-warm
    server = MacroServer(store=store, workers=8, queue_limit=256,
                         batch_limit=64)
    httpd = make_http_server(server, port=0)
    serve_forever_in_thread(httpd)
    host, port = httpd.server_address[:2]
    client = ServiceClient(host, port)
    rows = []
    ratios = {}
    try:
        for depth in BATCH_DEPTHS:
            t0 = time.perf_counter()
            for _ in range(depth):
                client.compile(CONFIG)
            sequential_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            records = list(client.compile_batch([CONFIG] * depth))
            batch_s = time.perf_counter() - t0
            assert len(records) == depth
            assert all(r["status"] == "ok" for r in records)

            ratios[depth] = sequential_s / batch_s if batch_s else 1.0
            rows.append([depth, f"{sequential_s * 1e3:.1f}",
                         f"{batch_s * 1e3:.1f}",
                         f"{ratios[depth]:.2f}x"])
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()
    print_table(
        "Batch endpoint vs sequential /compile (warm store)",
        ["items", "sequential ms", "batch ms", "amortization"],
        rows,
    )
    # At depth 32 one streamed connection must beat 32 round-trips
    # (allowing scheduling noise on loaded CI boxes).
    assert ratios[32] >= 0.8, (
        f"batch of 32 ran {1 / ratios[32]:.2f}x slower than "
        f"sequential round-trips")
