"""Tests for the concurrent macro server and its HTTP front-end."""

import threading
import time

import pytest

from repro.core.config import RamConfig
from repro.core.errors import ConfigError, ReproError, ServiceUnavailable
from repro.service import (
    ArtifactStore,
    MacroServer,
    bundle_key,
    latency_summary,
    percentile,
)

CFG = RamConfig(words=64, bpw=8, bpc=4)
CFG2 = RamConfig(words=64, bpw=8, bpc=4, spares=8)


def counting_builder(calls, gate=None, delay_s=0.0):
    """A fake compile_cached: records invocations, optionally blocks
    on ``gate`` so tests control exactly when builds finish."""
    lock = threading.Lock()

    def build(config, march, signoff=None, store=None, stage_cache=None):
        with lock:
            calls.append(config)
        if gate is not None:
            assert gate.wait(10.0), "test gate never opened"
        if delay_s:
            time.sleep(delay_s)
        return ({"out.txt": b"payload"}, False,
                bundle_key(config, march, signoff))

    return build


class TestSingleFlight:
    def test_n_concurrent_identical_requests_build_once(self):
        """The acceptance bar: N >= 8 identical requests, 1 build."""
        calls = []
        gate = threading.Event()
        server = MacroServer(workers=8,
                             builder=counting_builder(calls, gate))
        barrier = threading.Barrier(8)
        futures = []
        futures_lock = threading.Lock()

        def request():
            barrier.wait()
            future = server.submit(CFG)
            with futures_lock:
                futures.append(future)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gate.set()

        results = [f.result(10.0) for f in futures]
        server.shutdown()
        assert len(calls) == 1
        assert len(results) == 8
        assert all(r.artifacts == {"out.txt": b"payload"}
                   for r in results)
        stats = server.stats()
        assert stats["requests"] == 8
        assert stats["coalesced"] == 7
        assert stats["builds"] == 1

    def test_different_configs_do_not_coalesce(self):
        calls = []
        server = MacroServer(workers=2,
                             builder=counting_builder(calls))
        server.compile(CFG)
        server.compile(CFG2)
        server.shutdown()
        assert len(calls) == 2

    def test_sequential_repeats_rebuild_after_retire(self):
        """Single-flight is about *concurrent* requests only: once a
        build retires, the next request runs again (the artifact
        store, not the inflight table, handles repeats over time)."""
        calls = []
        server = MacroServer(workers=1,
                             builder=counting_builder(calls))
        server.compile(CFG)
        server.compile(CFG)
        server.shutdown()
        assert len(calls) == 2


class TestBackpressure:
    def test_saturated_queue_rejects(self):
        calls = []
        gate = threading.Event()
        server = MacroServer(workers=1, queue_limit=1,
                             builder=counting_builder(calls, gate))
        first = server.submit(CFG)
        with pytest.raises(ServiceUnavailable) as info:
            server.submit(CFG2)
        assert info.value.reason == "saturated"
        gate.set()
        first.result(10.0)
        server.shutdown()
        assert server.stats()["rejected"] == 1

    def test_coalesced_joins_bypass_the_limit(self):
        """Joining an in-flight build adds no work, so it must never
        be rejected no matter how full the queue is."""
        calls = []
        gate = threading.Event()
        server = MacroServer(workers=1, queue_limit=1,
                             builder=counting_builder(calls, gate))
        first = server.submit(CFG)
        joined = server.submit(CFG)  # same key: allowed at the limit
        assert joined is first
        gate.set()
        first.result(10.0)
        server.shutdown()

    def test_capacity_frees_after_completion(self):
        calls = []
        server = MacroServer(workers=1, queue_limit=1,
                             builder=counting_builder(calls))
        server.compile(CFG)
        server.compile(CFG2)  # would raise if capacity leaked
        server.shutdown()

    def test_draining_rejects_new_requests(self):
        server = MacroServer(workers=1,
                             builder=counting_builder([]))
        server.shutdown()
        with pytest.raises(ServiceUnavailable) as info:
            server.submit(CFG)
        assert info.value.reason == "draining"

    def test_bad_construction(self):
        with pytest.raises(ConfigError):
            MacroServer(workers=0)
        with pytest.raises(ConfigError):
            MacroServer(queue_limit=0)


class TestDrainAndFailures:
    def test_drain_finishes_inflight_builds(self):
        calls = []
        server = MacroServer(workers=2,
                             builder=counting_builder(calls,
                                                      delay_s=0.05))
        futures = [server.submit(CFG), server.submit(CFG2)]
        server.shutdown(drain=True)
        assert all(f.done() for f in futures)
        assert [f.result() for f in futures]

    def test_build_failure_propagates_and_is_counted(self):
        def broken(config, march, signoff=None, store=None,
                   stage_cache=None):
            raise ReproError("melted")

        server = MacroServer(workers=1, builder=broken)
        with pytest.raises(ReproError, match="melted"):
            server.compile(CFG)
        # The failed key retired, so a retry is admitted (and fails
        # again) rather than being served the poisoned future forever.
        with pytest.raises(ReproError, match="melted"):
            server.compile(CFG)
        server.shutdown()
        assert server.stats()["failures"] == 2

    def test_context_manager_drains(self):
        calls = []
        with MacroServer(workers=1,
                         builder=counting_builder(calls)) as server:
            server.compile(CFG)
        assert server.draining


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 1.0) == 10.0
        assert percentile([], 0.5) == 0.0

    def test_latency_summary_shape(self):
        summary = latency_summary([0.2, 0.1, 0.3])
        assert summary["count"] == 3
        assert summary["p50_s"] == 0.2
        assert summary["max_s"] == 0.3
        assert summary["mean_s"] == pytest.approx(0.2)
        empty = latency_summary([])
        # Full shape even with no samples: /stats consumers index
        # p50_s unconditionally and must not crash on a fresh server.
        assert empty["count"] == 0
        assert set(empty) == set(summary)
        assert all(value == 0 for value in empty.values())

    def test_stats_track_store_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        server = MacroServer(store=store, workers=2)
        first = server.compile(CFG)
        second = server.compile(CFG)
        server.shutdown()
        assert first.cached is False
        assert second.cached is True
        assert second.artifacts == first.artifacts
        stats = server.stats()
        assert stats["builds"] == 1
        assert stats["store_hits"] == 1
        assert stats["request_latency"]["count"] == 2
        assert stats["store"]["writes"] == 1


class TestHttp:
    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service.http import (
            ServiceClient,
            make_http_server,
            serve_forever_in_thread,
        )

        server = MacroServer(store=ArtifactStore(tmp_path), workers=2)
        httpd = make_http_server(server, port=0)
        serve_forever_in_thread(httpd)
        host, port = httpd.server_address[:2]
        yield ServiceClient(host, port)
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()

    def test_compile_roundtrip_with_artifact_bytes(self, service):
        payload = service.compile(CFG, include=("macro.cif",))
        assert payload["cached"] is False
        assert payload["datasheet"]["config"]["words"] == 64
        cif = service.artifact(payload, "macro.cif")
        assert cif.startswith(b"DS ") or b"DS " in cif
        manifest = payload["artifacts"]["macro.cif"]
        assert manifest["bytes"] == len(cif)

        again = service.compile(CFG)
        assert again["cached"] is True
        assert again["key"] == payload["key"]

    def test_missing_include_raises(self, service):
        payload = service.compile(CFG)
        with pytest.raises(ConfigError, match="include"):
            service.artifact(payload, "macro.cif")

    def test_bad_config_maps_to_config_error(self, service):
        with pytest.raises(ConfigError):
            service.compile(_UnvalidatedConfig())

    def test_stats_and_healthz(self, service):
        service.compile(CFG)
        stats = service.stats()
        assert stats["requests"] >= 1
        assert "store" in stats
        assert stats["endpoints"]["compile"] == 1
        assert service.healthz() == {"status": "ok"}


class TestSignoffDriverCache:
    def test_shard_serves_from_preseeded_store(self, tmp_path):
        """The campaign driver's store path: a shard whose bundle is
        already published never touches the compiler."""
        import json

        import numpy as np

        from repro.bist.march import IFA_9
        from repro.runtime.drivers import signoff_campaign, signoff_shard
        from repro.runtime.runner import ShardSpec
        from repro.verify.report import SignoffReport

        spec = signoff_campaign(words=64, bpw=8, bpc=4, spares=4,
                                processes=["cda07"],
                                cache_dir=str(tmp_path))
        config = RamConfig(words=64, bpw=8, bpc=4, spares=4,
                           process="cda07")
        report = SignoffReport(config_label="preseeded",
                               process="cda07")
        ArtifactStore(tmp_path).put(
            bundle_key(config, IFA_9, "degrade"),
            {"signoff.json":
                json.dumps(report.to_dict()).encode("utf-8")})

        result = signoff_shard(spec.params, ShardSpec(
            index=0, n_shards=1,
            seed_seq=np.random.SeedSequence(0)))
        assert result["cache_hit"] is True
        assert result["clean"] is True
        assert result["process"] == "cda07"
        assert result["report"]["config"] == "preseeded"


class _UnvalidatedConfig:
    """Quacks like a RamConfig but serialises an invalid geometry, so
    only the *server-side* validation can reject it."""

    def to_dict(self):
        return {"words": 63, "bpw": 8, "bpc": 4}


class TestHttpRobustness:
    @pytest.fixture()
    def stack(self, tmp_path):
        from repro.service.http import (
            ServiceClient,
            make_http_server,
            serve_forever_in_thread,
        )

        server = MacroServer(store=ArtifactStore(tmp_path), workers=2)
        httpd = make_http_server(server, port=0)
        serve_forever_in_thread(httpd)
        host, port = httpd.server_address[:2]
        yield server, ServiceClient(host, port)
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()

    @pytest.mark.parametrize("path, body", [
        ("/compile", []),
        ("/compile", {"config": CFG.to_dict(), "include": 5}),
        ("/compile", {"config": CFG.to_dict(), "include": [["x"]]}),
        ("/compile_batch", [1]),
        ("/compile_batch", {"items": [1], "include": 5}),
    ], ids=["list-body", "int-include", "nested-include",
            "batch-list-body", "batch-int-include"])
    def test_malformed_body_is_400(self, stack, path, body):
        """A body that is not a JSON object, or an ``include`` that is
        not a list of names, is a client error: 400, never a 500 or a
        dropped connection."""
        from repro.service.http import ServiceClient

        _, client = stack
        fail_fast = ServiceClient(client.host, client.port, retries=0)
        status, payload, _ = fail_fast._request("POST", path, body)
        assert status == 400
        assert "ConfigError" in payload["error"]

    def test_readyz_reports_ready(self, stack):
        _, client = stack
        assert client.readyz() == {"status": "ready"}

    def test_readyz_503_while_replaying(self, stack):
        server, client = stack
        server._ready.clear()  # simulate an in-progress WAL replay
        try:
            status, payload, headers = client._request(
                "GET", "/readyz")
            assert status == 503
            assert payload["reason"] == "not_ready"
            assert float(headers["Retry-After"]) > 0
        finally:
            server._ready.set()
        assert client.readyz() == {"status": "ready"}

    def test_compile_503_carries_retry_after(self, stack):
        server, client = stack
        server.shutdown(drain=True)  # draining rejects everything
        status, payload, headers = client._request(
            "POST", "/compile", {"config": CFG.to_dict()})
        assert status == 503
        assert payload["reason"] == "draining"
        assert "Retry-After" in headers
        assert payload["retry_after_s"] > 0

    def test_client_gives_up_with_retry_after_attached(self, stack):
        from repro.service.http import ServiceClient

        server, client = stack
        server.shutdown(drain=True)
        fast = ServiceClient(client.host, client.port, retries=1,
                             backoff_cap_s=0.01)
        with pytest.raises(ServiceUnavailable) as excinfo:
            fast.compile(CFG)
        assert excinfo.value.reason == "draining"
        assert excinfo.value.retry_after_s > 0

    def test_client_honors_retry_after_backoff(self, monkeypatch):
        """Two 503s, then success: the client must sleep the server's
        (capped) Retry-After advice between attempts."""
        from repro.service import http as http_module
        from repro.service.http import ServiceClient

        replies = [
            (503, {"error": "busy", "reason": "saturated",
                   "retry_after_s": 2.0}, {"Retry-After": "2"}),
            (503, {"error": "busy", "reason": "saturated",
                   "retry_after_s": 2.0}, {"Retry-After": "2"}),
            (200, {"key": "k", "cached": False}, {}),
        ]
        slept = []
        client = ServiceClient("127.0.0.1", 1, retries=3,
                               backoff_cap_s=0.5)
        monkeypatch.setattr(
            client, "_request",
            lambda method, path, body=None: replies.pop(0))
        monkeypatch.setattr(http_module.time, "sleep", slept.append)
        payload = client.compile(CFG)
        assert payload == {"key": "k", "cached": False}
        assert len(slept) == 2
        for delay in slept:
            # Capped at backoff_cap_s, jittered at most +25%.
            assert 0.5 <= delay <= 0.625

    def test_client_fail_fast_mode_never_sleeps(self, monkeypatch):
        from repro.service import http as http_module
        from repro.service.http import ServiceClient

        client = ServiceClient("127.0.0.1", 1, retries=0)
        monkeypatch.setattr(
            client, "_request",
            lambda method, path, body=None:
                (503, {"error": "busy", "reason": "saturated"}, {}))
        slept = []
        monkeypatch.setattr(http_module.time, "sleep", slept.append)
        with pytest.raises(ServiceUnavailable):
            client.compile(CFG)
        assert slept == []

    def test_client_validates_retry_settings(self):
        from repro.service.http import ServiceClient

        with pytest.raises(ConfigError):
            ServiceClient(retries=-1)
        with pytest.raises(ConfigError):
            ServiceClient(backoff_cap_s=0)


class TestProcessBackendServer:
    def test_server_over_process_backend(self, tmp_path):
        from repro.service.backend import ProcessPoolBackend

        store = ArtifactStore(tmp_path)
        backend = ProcessPoolBackend(store, workers=2, poll_s=0.01)
        server = MacroServer(store=store, workers=2, backend=backend)
        try:
            first = server.compile(CFG)
            second = server.compile(CFG)
            assert first.cached is False
            assert second.cached is True
            assert second.artifacts == first.artifacts
            stats = server.stats()
            assert stats["backend"]["builds"] == 1
            assert stats["builds"] == 1
            assert stats["store_hits"] == 1
        finally:
            server.shutdown()

    def test_builder_and_backend_are_exclusive(self, tmp_path):
        from repro.service.backend import ProcessPoolBackend

        store = ArtifactStore(tmp_path)
        backend = ProcessPoolBackend(store, workers=1)
        try:
            with pytest.raises(ConfigError, match="exclusive"):
                MacroServer(store=store, builder=lambda *a, **k: None,
                            backend=backend)
        finally:
            backend.shutdown()


class TestBatchSubmit:
    def test_submit_batch_returns_futures_in_order(self):
        from repro.bist.march import IFA_9

        calls = []
        server = MacroServer(workers=4,
                             builder=counting_builder(calls))
        try:
            outcomes = server.submit_batch(
                [(CFG, IFA_9, None), (CFG2, IFA_9, None)])
            assert [kind for kind, _ in outcomes] == ["future", "future"]
            responses = [value.result(timeout=60.0)
                         for _, value in outcomes]
            assert responses[0].key != responses[1].key
        finally:
            server.shutdown()

    def test_submit_batch_coalesces_duplicates(self):
        from repro.bist.march import IFA_9

        calls = []
        gate = threading.Event()
        server = MacroServer(workers=4,
                             builder=counting_builder(calls, gate=gate))
        try:
            outcomes = server.submit_batch(
                [(CFG, IFA_9, None), (CFG, IFA_9, None)])
            gate.set()
            first = outcomes[0][1].result(timeout=60.0)
            second = outcomes[1][1].result(timeout=60.0)
            assert outcomes[0][1] is outcomes[1][1]
            assert first is second
            assert len(calls) == 1
            assert server.stats()["coalesced"] == 1
        finally:
            server.shutdown()

    def test_submit_batch_over_limit_is_refused(self):
        from repro.bist.march import IFA_9

        server = MacroServer(workers=1, batch_limit=2,
                             builder=counting_builder([]))
        try:
            with pytest.raises(ConfigError, match="batch"):
                server.submit_batch([(CFG, IFA_9, None)] * 3)
        finally:
            server.shutdown()

    def test_submit_batch_partial_admission(self):
        """One item tripping admission control must not sink the rest."""
        from repro.bist.march import IFA_9

        calls = []
        gate = threading.Event()
        server = MacroServer(workers=1, queue_limit=1,
                             builder=counting_builder(calls, gate=gate))
        try:
            outcomes = server.submit_batch(
                [(CFG, IFA_9, None), (CFG2, IFA_9, None)])
            kinds = [kind for kind, _ in outcomes]
            assert kinds == ["future", "error"]
            assert isinstance(outcomes[1][1], ServiceUnavailable)
            gate.set()
            assert outcomes[0][1].result(timeout=60.0).key
        finally:
            gate.set()
            server.shutdown()

    def test_bad_batch_limit_is_refused(self):
        with pytest.raises(ConfigError, match="batch_limit"):
            MacroServer(workers=1, batch_limit=0,
                        builder=counting_builder([]))


class TestBatchHttp:
    @pytest.fixture()
    def stack(self, tmp_path):
        from repro.service.http import (
            ServiceClient,
            make_http_server,
            serve_forever_in_thread,
        )

        server = MacroServer(store=ArtifactStore(tmp_path), workers=2,
                             batch_limit=4)
        httpd = make_http_server(server, port=0)
        serve_forever_in_thread(httpd)
        host, port = httpd.server_address[:2]
        yield server, ServiceClient(host, port)
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()

    def test_batch_roundtrip_streams_every_item(self, stack):
        server, client = stack
        records = list(client.compile_batch([CFG, CFG2]))
        assert len(records) == 2
        assert {r["index"] for r in records} == {0, 1}
        assert all(r["status"] == "ok" for r in records)
        keys = {r["key"] for r in records}
        assert len(keys) == 2
        stats = server.stats()
        assert stats["endpoints"]["compile_batch"] == 1

    def test_batch_partial_failure_reports_per_item(self, stack):
        _, client = stack
        records = {r["index"]: r
                   for r in client.compile_batch(
                       [_UnvalidatedConfig(), CFG])}
        assert records[0]["status"] == "failed"
        assert records[0]["kind"] == "config"
        assert records[1]["status"] == "ok"

    def test_batch_deduplicates_identical_items(self, stack):
        server, client = stack
        records = list(client.compile_batch([CFG, CFG, CFG]))
        assert len(records) == 3
        assert len({r["key"] for r in records}) == 1
        assert all(r["status"] == "ok" for r in records)
        assert server.stats()["builds"] == 1

    def test_oversized_batch_is_413(self, stack):
        _, client = stack
        with pytest.raises(ConfigError, match="batch"):
            list(client.compile_batch([CFG] * 5))

    def test_empty_batch_is_400(self, stack):
        _, client = stack
        with pytest.raises(ConfigError):
            list(client.compile_batch([]))

    def test_artifact_endpoint_serves_store_bytes(self, stack):
        from repro.service.http import ServiceClient

        _, client = stack
        payload = client.compile(CFG, include=("macro.cif",))
        raw = client.fetch_artifact(payload["key"], "macro.cif")
        assert raw == client.artifact(payload, "macro.cif")
        with pytest.raises(ConfigError):
            client.fetch_artifact("f" * 64, "macro.cif")
        # A malformed key is a 400 reply, not a dropped connection.
        fail_fast = ServiceClient(client.host, client.port, retries=0)
        with pytest.raises(ConfigError, match="hex"):
            fail_fast.fetch_artifact("ZZ", "macro.cif")

    def test_endpoint_counters_cover_all_routes(self, stack):
        server, client = stack
        payload = client.compile(CFG, include=("macro.cif",))
        list(client.compile_batch([CFG]))
        client.fetch_artifact(payload["key"], "macro.cif")
        counts = server.stats()["endpoints"]
        assert counts["compile"] == 1
        assert counts["compile_batch"] == 1
        assert counts["artifact"] == 1


class TestClientFailover:
    def test_all_endpoints_down_is_unreachable(self, monkeypatch):
        from repro.service import http as http_module
        from repro.service.http import ServiceClient

        slept = []
        monkeypatch.setattr(http_module.time, "sleep", slept.append)
        client = ServiceClient("127.0.0.1", _claim_dead_port(),
                               retries=2, backoff_cap_s=0.01)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.compile(CFG)
        assert excinfo.value.reason == "unreachable"
        assert len(slept) == 2  # bounded: one backoff per retry

    def test_reset_mid_request_is_retried(self, monkeypatch):
        """A ConnectionResetError on the first attempt must be retried,
        not surfaced to the caller."""
        from repro.service import http as http_module
        from repro.service.http import ServiceClient

        client = ServiceClient("127.0.0.1", 1, retries=2,
                               backoff_cap_s=0.01)
        attempts = []

        class _Reply:
            status = 200

            def read(self):
                return b'{"key": "k", "cached": true}'

        class _Conn:
            def close(self):
                pass

        def fake_attempt(method, path, body):
            attempts.append(path)
            if len(attempts) == 1:
                raise ConnectionResetError(104, "peer reset")
            return 200, _Reply(), _Conn(), {}

        monkeypatch.setattr(client, "_attempt", fake_attempt)
        monkeypatch.setattr(http_module.time, "sleep", lambda s: None)
        status, payload, headers = client._request("POST", "/compile",
                                                   {"config": {}})
        assert status == 200
        assert payload["key"] == "k"
        assert len(attempts) == 2


def _claim_dead_port():
    """A port that was just bound and released: connecting to it gets
    ECONNREFUSED (nothing is listening any more)."""
    import socket

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port
