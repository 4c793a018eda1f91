"""Replayable traces: round-trips, integrity rejection, crash-resume."""

import pytest

from repro.core.streaming import Arrival
from repro.integrity.record import MARKER_KEY, decode_line, encode_line
from repro.serving import JournalError, JournalMismatchError, RunJournal
from repro.sim.errors import HarnessCrash
from repro.workload import (
    CURSOR_FORMAT,
    TraceError,
    arrival_payload,
    payload_arrival,
    read_trace,
    record_trace,
)

from .conftest import BASELINES

pytestmark = pytest.mark.workload

FP = "trace-test-fingerprint"
LIMIT = 220
EVERY = 16


def stream(model):
    return model.stream(BASELINES, limit=LIMIT)


def key(a):
    return (a.index, a.time, a.type_name, a.tenant, a.tenant_id, a.deadline,
            a.priority)


class TestPayloads:
    def test_roundtrip_full(self):
        a = Arrival(index=3, time=0.5, type_name="nn", tenant="interactive",
                    tenant_id=41, deadline=0.9, priority=2)
        assert payload_arrival(arrival_payload(a)) == a

    def test_defaults_omitted(self):
        a = Arrival(index=0, time=0.1, type_name="srad")
        payload = arrival_payload(a)
        assert set(payload) == {"i", "t", "a"}
        assert payload_arrival(payload) == a


class TestRoundTrip:
    def test_record_then_replay_identical(self, model, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = record_trace(stream(model), path, FP)
        assert count == LIMIT
        with read_trace(path) as reader:
            assert reader.fingerprint == FP
            replayed = [key(a) for a in reader]
        assert replayed == [key(a) for a in stream(model)]

    def test_recording_is_deterministic(self, model, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record_trace(stream(model), a, FP)
        record_trace(stream(model), b, FP)
        assert a.read_bytes() == b.read_bytes()


class TestReaderRejection:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "other.jsonl"
        line = encode_line({"format": "something-else", "fingerprint": FP}, 0)
        path.write_text(line)
        with pytest.raises(TraceError, match="not a traffic trace"):
            read_trace(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(b"not an envelope\n")
        with pytest.raises(TraceError, match="header"):
            read_trace(path)

    def test_corrupt_record_raises_at_line(self, model, tmp_path):
        path = tmp_path / "trace.jsonl"
        record_trace(stream(model), path, FP)
        data = bytearray(path.read_bytes())
        # Flip a byte well past the header.
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        reader = read_trace(path)
        with pytest.raises(TraceError, match="corrupt trace record"):
            for _ in reader:
                pass


class TestCrashResume:
    def reference(self, model, base):
        ref_trace = base / "ref-trace.jsonl"
        ref_cursor = base / "ref-cursor.jsonl"
        record_trace(
            stream(model), ref_trace, FP, cursor_path=ref_cursor,
            cursor_every=EVERY,
        )
        return ref_trace.read_bytes(), ref_cursor.read_bytes()

    def test_fast_path_resume_is_byte_identical(self, model, tmp_path):
        ref_trace, ref_cursor = self.reference(model, tmp_path)
        trace, cursor = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        with pytest.raises(HarnessCrash):
            record_trace(
                stream(model), trace, FP, cursor_path=cursor,
                cursor_every=EVERY, crash_after_cursors=3,
            )
        # Simulate a torn trace tail past the last durable cursor.
        with open(trace, "ab") as fh:
            fh.write(b"I1 deadbeef torn")
        count = record_trace(
            stream(model), trace, FP, cursor_path=cursor,
            cursor_every=EVERY, resume=True,
        )
        assert count == LIMIT
        assert trace.read_bytes() == ref_trace
        assert cursor.read_bytes() == ref_cursor

    def test_regeneration_resume_is_byte_identical(self, model, tmp_path):
        """Trace destroyed, cursors survive: full replay-verified regen."""
        ref_trace, ref_cursor = self.reference(model, tmp_path)
        trace, cursor = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        with pytest.raises(HarnessCrash):
            record_trace(
                stream(model), trace, FP, cursor_path=cursor,
                cursor_every=EVERY, crash_after_cursors=2,
            )
        trace.unlink()
        count = record_trace(
            stream(model), trace, FP, cursor_path=cursor,
            cursor_every=EVERY, resume=True,
        )
        assert count == LIMIT
        assert trace.read_bytes() == ref_trace
        assert cursor.read_bytes() == ref_cursor

    def test_resume_after_completion_is_byte_identical(self, model, tmp_path):
        ref_trace, ref_cursor = self.reference(model, tmp_path)
        trace, cursor = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        record_trace(
            stream(model), trace, FP, cursor_path=cursor, cursor_every=EVERY
        )
        count = record_trace(
            stream(model), trace, FP, cursor_path=cursor,
            cursor_every=EVERY, resume=True,
        )
        assert count == LIMIT
        assert trace.read_bytes() == ref_trace
        assert cursor.read_bytes() == ref_cursor

    def test_crash_marks_the_cursor_journal(self, model, tmp_path):
        trace, cursor = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        with pytest.raises(HarnessCrash) as crash:
            record_trace(
                stream(model), trace, FP, cursor_path=cursor,
                cursor_every=EVERY, crash_after_cursors=2,
            )
        lines = cursor.read_bytes().splitlines()
        assert len(lines) == 4  # header, two cursors, crash marker
        assert decode_line(lines[-1], expected_seq=3) == {
            MARKER_KEY: "crash", "t": crash.value.time,
        }

    def test_resume_with_wrong_fingerprint_refused(self, model, tmp_path):
        trace, cursor = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        with pytest.raises(HarnessCrash):
            record_trace(
                stream(model), trace, FP, cursor_path=cursor,
                cursor_every=EVERY, crash_after_cursors=1,
            )
        with pytest.raises(JournalMismatchError, match="different run"):
            record_trace(
                stream(model), trace, "other-fingerprint", cursor_path=cursor,
                cursor_every=EVERY, resume=True,
            )

    def test_resume_without_cursor_store_refused(self, model, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            record_trace(
                stream(model), tmp_path / "t.jsonl", FP,
                cursor_path=tmp_path / "missing.jsonl", resume=True,
            )

    def test_resume_requires_cursor_path(self, model, tmp_path):
        with pytest.raises(ValueError, match="cursor_path"):
            record_trace(stream(model), tmp_path / "t.jsonl", FP, resume=True)

    def test_cursor_every_validated(self, model, tmp_path):
        with pytest.raises(ValueError, match="cursor_every"):
            record_trace(
                stream(model), tmp_path / "t.jsonl", FP, cursor_every=0
            )


def cursor_journal(path):
    return RunJournal(path, format=CURSOR_FORMAT, version=1)


class TestCursorStore:
    def test_non_cursor_file_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(encode_line({"format": "something-else"}, 0))
        store = cursor_journal(path)
        with pytest.raises(JournalError, match=f"not a {CURSOR_FORMAT} file"):
            store.begin(FP, resume=True)

    def test_replay_divergence_detected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = cursor_journal(path)
        store.begin(FP)
        store.record({"i": 16, "t": 0.5, "off": 100, "state": {}})
        store.close()
        resumed = cursor_journal(path)
        assert resumed.begin(FP, resume=True) == 1
        with pytest.raises(JournalMismatchError, match="diverged"):
            resumed.record({"i": 16, "t": 0.6, "off": 100, "state": {}})
        resumed.close()
