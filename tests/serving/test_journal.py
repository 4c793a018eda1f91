"""Unit tests for the crash-safe run journal."""

import json

import pytest

from repro.integrity import decode_line
from repro.serving import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalError,
    JournalMismatchError,
    RunJournal,
)

pytestmark = pytest.mark.serving

FP = "abc123"


def entry(i):
    return {"index": i, "outcome": "completed", "complete": 0.001 * i + 0.25}


class TestFreshJournal:
    def test_header_written(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.begin(FP)
        journal.close()
        header = decode_line(path.read_bytes().splitlines()[0], expected_seq=0)
        assert header["format"] == JOURNAL_FORMAT
        assert header["version"] == JOURNAL_VERSION
        assert header["fingerprint"] == FP

    def test_entries_append_one_line_each(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.begin(FP)
            for i in range(3):
                journal.record(entry(i))
            assert journal.appended == 3
        lines = path.read_bytes().splitlines()
        assert len(lines) == 4
        assert decode_line(lines[1], expected_seq=1) == entry(0)

    def test_fresh_begin_truncates_old_content(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("garbage\n")
        journal = RunJournal(path)
        journal.begin(FP)
        journal.close()
        assert len(path.read_text().splitlines()) == 1

    def test_record_before_begin_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        with pytest.raises(JournalError):
            journal.record(entry(0))

    def test_appends_are_durable_before_record_returns(self, tmp_path):
        # The durability contract: when record() returns, an independent
        # reader (here: a second open of the same path — what a resume
        # after SIGKILL sees) observes the committed line without any
        # close() or flush from the writer.
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.begin(FP)
        try:
            for i in range(3):
                journal.record(entry(i))
                lines = path.read_bytes().splitlines()
                assert len(lines) == i + 2
                assert decode_line(lines[-1], expected_seq=i + 1) == entry(i)
        finally:
            journal.close()

    def test_crash_marker_is_durable_and_not_an_entry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.begin(FP)
        journal.record(entry(0))
        journal.crash(0.125)
        # Durable like any record...
        assert len(path.read_bytes().splitlines()) == 3
        assert journal.markers == 1
        # ...but filtered from the entry view.
        assert journal.entries() == [json.loads(json.dumps(entry(0)))]
        # crash() ends the run: the journal takes no more writes.
        with pytest.raises(JournalError):
            journal.record(entry(1))


class TestResume:
    def write_journal(self, path, n=3, fingerprint=FP):
        with RunJournal(path) as journal:
            journal.begin(fingerprint)
            for i in range(n):
                journal.record(entry(i))

    def test_replay_verifies_then_appends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=2)
        journal = RunJournal(path)
        assert journal.begin(FP, resume=True) == 2
        journal.record(entry(0))
        journal.record(entry(1))
        assert journal.verified == 2 and journal.pending == 0
        journal.record(entry(2))
        journal.close()
        assert journal.appended == 1
        assert len(path.read_text().splitlines()) == 4

    def test_finish_refuses_a_longer_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=2)
        journal = RunJournal(path)
        journal.begin(FP, resume=True)
        journal.record(entry(0))
        with pytest.raises(JournalMismatchError, match="longer run"):
            journal.finish()
        # finish() closed the journal even though it raised.
        with pytest.raises(JournalError):
            journal.record(entry(1))

    def test_divergent_replay_detected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=1)
        journal = RunJournal(path)
        journal.begin(FP, resume=True)
        bad = dict(entry(0), outcome="failed")
        with pytest.raises(JournalMismatchError):
            journal.record(bad)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, fingerprint="other")
        with pytest.raises(JournalMismatchError):
            RunJournal(path).begin(FP, resume=True)

    def test_torn_final_line_discarded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=2)
        with open(path, "a") as fh:
            fh.write('{"index": 2, "outco')  # interrupted write
        journal = RunJournal(path)
        assert journal.begin(FP, resume=True) == 2
        journal.close()
        # The rewrite dropped the torn line from disk.
        assert len(path.read_text().splitlines()) == 3

    def test_corruption_in_the_middle_is_quarantined(self, tmp_path):
        # With checksummed envelopes, mid-file corruption no longer
        # poisons the run: the valid prefix before the bad record
        # survives, everything after it is quarantined to the sidecar,
        # and replay regenerates the dropped suffix.
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=2)
        lines = path.read_bytes().splitlines()
        lines[1] = b'{"truncated'
        path.write_bytes(b"\n".join(lines) + b"\n")
        journal = RunJournal(path)
        assert journal.begin(FP, resume=True) == 0
        assert journal.recovery.mid_file_corruption
        assert journal.recovery.first_invalid_line == 2
        sidecar = tmp_path / "run.jsonl.quarantine"
        assert sidecar.exists() and sidecar.stat().st_size > 0
        journal.record(entry(0))
        journal.record(entry(1))
        journal.close()
        assert journal.appended == 2
        assert journal.entries() == [entry(0), entry(1)]

    def test_single_byte_flip_detected_and_recovered_past(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path, n=3)
        pristine = path.read_bytes()
        # Flip one payload byte in the middle record.
        offset = pristine.index(b'"index": 1') + 9
        data = bytearray(pristine)
        data[offset] ^= 0x40
        path.write_bytes(bytes(data))
        journal = RunJournal(path)
        assert journal.begin(FP, resume=True) == 1  # record 0 survived
        assert journal.recovery.corruption_reason == "checksum mismatch"
        for i in range(3):
            journal.record(entry(i))
        journal.close()
        # Replay + re-append converged back to the uninterrupted bytes.
        assert path.read_bytes() == pristine

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(tmp_path / "absent.jsonl").begin(FP, resume=True)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(JournalError):
            RunJournal(path).begin(FP, resume=True)

    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "run.jsonl"
        value = 0.1 + 0.2  # classic repr-sensitive float
        with RunJournal(path) as journal:
            journal.begin(FP)
            journal.record({"index": 0, "complete": value})
        journal = RunJournal(path)
        journal.begin(FP, resume=True)
        journal.record({"index": 0, "complete": value})  # must verify
        assert journal.verified == 1
        journal.close()
