"""The shared append-only JSONL log and the byte format of its users.

The golden strings below are the exact bytes the campaign checkpoint
journal and the request WAL wrote before they shared
:class:`~repro.core.durability.JsonLog`.  Existing ``--checkpoint``
files and server WALs must stay readable, and the same call sequence
must keep writing the same bytes.
"""

import pytest

from repro.core.durability import JsonLog
from repro.core.errors import ConfigError
from repro.runtime import CheckpointJournal
from repro.service.wal import RequestLog

FP = {"campaign": "g", "n_shards": 2, "seed": 3, "params": {"w": 4},
      "task": "t"}

JOURNAL_GOLDEN = (
    '{"campaign": {"campaign": "g", "n_shards": 2, "params": {"w": 4}, '
    '"seed": 3, "task": "t"}, "digest": "acb8773919f1f0f9", '
    '"type": "header", "version": 1}\n'
    '{"attempts": 1, "index": 0, "result": {"y": 0.5}, "status": "ok", '
    '"type": "shard"}\n'
    '{"error": "boom", "index": 1, "status": "failed", "type": "shard"}\n'
)

ADMIT_A = (
    '{"config": {"bpw": 8, "words": 64}, "id": "r00000001", '
    '"key": "' + "a" * 64 + '", "march_name": "IFA-9", '
    '"march_notation": "{M0}", "signoff": null, "type": "admit"}\n'
)
ADMIT_B = (
    '{"config": {"bpw": 8, "words": 128}, "id": "r00000002", '
    '"key": "' + "b" * 64 + '", "march_name": "IFA-9", '
    '"march_notation": "{M0}", "signoff": "strict", "type": "admit"}\n'
)
WAL_HEADER = '{"type": "header", "version": 1}\n'
WAL_BEFORE_COMPACTION = (WAL_HEADER + ADMIT_A + ADMIT_B
                         + '{"id": "r00000001", "status": "ok", '
                           '"type": "done"}\n')
WAL_AFTER_COMPACTION = WAL_HEADER + ADMIT_B

PENDING_B = {"config": {"bpw": 8, "words": 128}, "id": "r00000002",
             "key": "b" * 64, "march_name": "IFA-9",
             "march_notation": "{M0}", "signoff": "strict"}


class TestJournalBytes:
    def test_reads_golden(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(JOURNAL_GOLDEN, "utf-8")
        prior = CheckpointJournal(path).open(FP, resume=True)
        assert prior == {
            0: {"attempts": 1, "index": 0, "result": {"y": 0.5},
                "status": "ok"},
            1: {"error": "boom", "index": 1, "status": "failed"},
        }

    def test_writes_golden(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.open(FP, resume=False)
        journal.record({"index": 0, "status": "ok",
                        "result": {"y": 0.5}, "attempts": 1})
        journal.record({"index": 1, "status": "failed", "error": "boom"})
        journal.close()
        assert path.read_text("utf-8") == JOURNAL_GOLDEN

    def test_resumed_append_on_a_clean_file_adds_only_its_line(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(JOURNAL_GOLDEN, "utf-8")
        journal = CheckpointJournal(path)
        journal.open(FP, resume=True)
        journal.record({"index": 1, "status": "ok"})
        journal.close()
        assert path.read_text("utf-8") == (
            JOURNAL_GOLDEN + '{"index": 1, "status": "ok", '
                             '"type": "shard"}\n')

    def test_resume_of_headerless_file_is_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("\n", "utf-8")
        with pytest.raises(ConfigError, match="no header"):
            CheckpointJournal(path).open(FP, resume=True)


class TestWalBytes:
    @pytest.mark.parametrize("golden", [WAL_BEFORE_COMPACTION,
                                        WAL_AFTER_COMPACTION])
    def test_reads_golden_and_compacts_to_golden(self, tmp_path, golden):
        path = tmp_path / "w.jsonl"
        path.write_text(golden, "utf-8")
        with RequestLog(path) as log:
            assert log.pending() == [PENDING_B]
        assert path.read_text("utf-8") == WAL_AFTER_COMPACTION

    def test_writes_golden(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with RequestLog(path) as log:
            first = log.admit(key="a" * 64,
                              config={"words": 64, "bpw": 8},
                              march_name="IFA-9", march_notation="{M0}",
                              signoff=None)
            log.admit(key="b" * 64, config={"words": 128, "bpw": 8},
                      march_name="IFA-9", march_notation="{M0}",
                      signoff="strict")
            log.done(first, "ok")
        assert path.read_text("utf-8") == WAL_BEFORE_COMPACTION
        RequestLog(path).open()
        assert path.read_text("utf-8") == WAL_AFTER_COMPACTION


class TestJsonLog:
    def test_header_only_file_without_newline_gets_one(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(WAL_HEADER.rstrip("\n"), "utf-8")
        log = JsonLog(path, "x", 1)
        assert log.open() == ({"type": "header", "version": 1}, [])
        log.append({"n": 1})
        assert path.read_text("utf-8") == WAL_HEADER + '{"n": 1}\n'

    def test_trailing_blank_lines_do_not_hide_a_torn_tail(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(WAL_HEADER + '{"n": 1}\n{"n": \n\n', "utf-8")
        log = JsonLog(path, "x", 1)
        assert log.open()[1] == [{"n": 1}]
        log.append({"n": 2})
        log.close()
        assert JsonLog(path, "x", 1).open()[1] == [{"n": 1}, {"n": 2}]

    def test_non_object_line_is_corruption(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(WAL_HEADER + '42\n{"n": 1}\n', "utf-8")
        with pytest.raises(ConfigError, match="corrupt at line 2"):
            JsonLog(path, "x", 1).open()

    def test_writes_before_open_are_refused(self, tmp_path):
        log = JsonLog(tmp_path / "x.jsonl", "x", 1)
        with pytest.raises(ConfigError, match="before open"):
            log.append({"n": 1})
        with pytest.raises(ConfigError, match="before open"):
            log.rewrite({})
