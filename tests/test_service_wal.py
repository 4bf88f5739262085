"""Tests for the request-lifecycle WAL and server crash recovery."""

import json

import pytest

from repro.bist.march import IFA_9
from repro.core.config import RamConfig
from repro.core.errors import ConfigError
from repro.service.bundle import bundle_key
from repro.service.server import MacroServer
from repro.service.store import ArtifactStore
from repro.service.wal import RequestLog

CFG = RamConfig(words=64, bpw=8, bpc=4, strap_every=8)
KEY = bundle_key(CFG, IFA_9)


def admit_one(log, key=KEY, config=None):
    return log.admit(key=key,
                     config=config or CFG.to_dict(),
                     march_name=IFA_9.name,
                     march_notation=str(IFA_9),
                     signoff=None)


class TestRequestLog:
    def test_fresh_log_has_no_backlog(self, tmp_path):
        with RequestLog(tmp_path / "wal.jsonl") as log:
            assert log.pending() == []

    def test_admit_then_done_round_trip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            rid = admit_one(log)
            assert [r["id"] for r in log.pending()] == [rid]
            log.done(rid, "ok")
            assert log.pending() == []
        assert RequestLog(path).open() == []

    def test_unfinished_requests_survive_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            rid = admit_one(log)
        backlog = RequestLog(path).open()
        assert [r["id"] for r in backlog] == [rid]
        assert backlog[0]["key"] == KEY
        assert backlog[0]["config"] == CFG.to_dict()
        assert backlog[0]["march_notation"] == str(IFA_9)

    def test_torn_final_line_is_forgiven(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            rid = admit_one(log)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "id": "r000')  # the kill
        backlog = RequestLog(path).open()
        assert [r["id"] for r in backlog] == [rid]

    def test_mid_file_corruption_is_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            admit_one(log)
        lines = path.read_text("utf-8").splitlines()
        lines.insert(1, "garbage not json")
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(ConfigError, match="corrupt at line 2"):
            RequestLog(path).open()

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(json.dumps(
            {"type": "header", "version": 999}) + "\n", "utf-8")
        with pytest.raises(ConfigError, match="version"):
            RequestLog(path).open()

    def test_open_compacts_done_records_away(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            done_rid = admit_one(log, key="a" * 64)
            admit_one(log, key="b" * 64)
            log.done(done_rid, "ok")
        RequestLog(path).open()
        lines = path.read_text("utf-8").splitlines()
        assert len(lines) == 2  # header + the one pending admit
        assert json.loads(lines[1])["key"] == "b" * 64

    def test_done_is_idempotent_for_unknown_ids(self, tmp_path):
        with RequestLog(tmp_path / "wal.jsonl") as log:
            log.done("r99999999", "ok")  # no-op, no raise

    def test_done_rejects_bad_status(self, tmp_path):
        with RequestLog(tmp_path / "wal.jsonl") as log:
            rid = admit_one(log)
            with pytest.raises(ConfigError, match="status"):
                log.done(rid, "maybe")

    def test_sequence_continues_across_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as log:
            first = admit_one(log)
        log = RequestLog(path)
        log.open()
        second = admit_one(log, key="c" * 64)
        log.close()
        assert second != first

    def test_compact_before_open_is_refused(self, tmp_path):
        """Compacting an unloaded log would rewrite the file from an
        empty pending set — destroying a live server's journal."""
        path = tmp_path / "wal.jsonl"
        with RequestLog(path) as owner:
            admit_one(owner)
            stranger = RequestLog(path)
            with pytest.raises(ConfigError, match="before open"):
                stranger.compact()
        # The owner's admit survived the refused compaction.
        assert [r["key"] for r in RequestLog(path).open()] == [KEY]

    def test_compaction_racing_admits(self, tmp_path):
        """Admits from request threads racing the periodic compaction
        must never be lost or duplicated: after the dust settles the
        pending set is exactly the admitted-minus-done ids."""
        import threading

        path = tmp_path / "wal.jsonl"
        log = RequestLog(path)
        log.open()
        admitted = [[] for _ in range(4)]
        errors = []
        start = threading.Barrier(5)

        def admitter(slot):
            try:
                start.wait(10.0)
                for index in range(50):
                    rid = admit_one(
                        log, key=f"{slot}{index:03d}".ljust(64, "e"))
                    admitted[slot].append(rid)
                    if index % 3 == 0:
                        log.done(rid, "ok")
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def compactor():
            try:
                start.wait(10.0)
                for _ in range(25):
                    log.compact()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=admitter, args=(slot,))
                   for slot in range(4)]
        threads.append(threading.Thread(target=compactor))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        survivors = {rid for slot in admitted for rid in slot}
        # Every third admit per thread was retired inline above.
        retired = {rid for slot in admitted for rid in slot[::3]}
        expected = survivors - retired
        assert {r["id"] for r in log.pending()} == expected
        log.close()
        # The on-disk file replays to the same pending set.
        assert {r["id"]
                for r in RequestLog(path).open()} == expected


class TestServerRecovery:
    def test_requests_are_journaled_and_retired(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = ArtifactStore(tmp_path / "store")
        server = MacroServer(store=store, workers=2,
                             wal=RequestLog(path))
        try:
            server.compile(CFG)
        finally:
            server.shutdown()
        assert RequestLog(path).open() == []

    def test_killed_server_replays_its_backlog(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = ArtifactStore(tmp_path / "store")
        # The "killed" predecessor: admit journaled, done never was.
        with RequestLog(path) as dead:
            admit_one(dead)
        server = MacroServer(store=store, workers=2,
                             wal=RequestLog(path))
        try:
            assert server.wait_ready(timeout=300.0)
            stats = server.stats()
            assert stats["wal"]["replayed"] == 1
            assert stats["wal"]["pending"] == 0
            assert store.verify(KEY)
        finally:
            server.shutdown()
        assert RequestLog(path).open() == []

    def test_server_serves_while_replaying(self, tmp_path):
        """Readiness is advice, not a gate: requests (especially warm
        hits) are served during replay."""
        path = tmp_path / "wal.jsonl"
        store = ArtifactStore(tmp_path / "store")
        with RequestLog(path) as dead:
            admit_one(dead)
        server = MacroServer(store=store, workers=2,
                             wal=RequestLog(path))
        try:
            response = server.compile(CFG)  # during or after replay
            assert response.key == KEY
            assert server.wait_ready(timeout=300.0)
        finally:
            server.shutdown()

    def test_unreplayable_request_is_retired_as_failed(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = ArtifactStore(tmp_path / "store")
        with RequestLog(path) as dead:
            admit_one(dead, config={"words": -1, "bpw": 8, "bpc": 4})
        server = MacroServer(store=store, workers=2,
                             wal=RequestLog(path))
        try:
            assert server.wait_ready(timeout=60.0)
            stats = server.stats()
            assert stats["wal"]["replayed"] == 0
            assert stats["wal"]["replay_failures"] == 1
        finally:
            server.shutdown()
        # Retired, not retried forever: a fresh start has no backlog.
        assert RequestLog(path).open() == []

    def test_server_without_wal_is_ready_immediately(self, tmp_path):
        server = MacroServer(store=ArtifactStore(tmp_path), workers=2)
        try:
            assert server.ready
            assert server.stats().get("wal") is None
        finally:
            server.shutdown()
