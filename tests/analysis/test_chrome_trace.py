"""Tests for the Chrome Trace Event exporter."""

import json

import pytest

from repro.analysis.chrome_trace import (
    GPU_PID,
    _track_sort_key,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.trace import TraceRecorder


@pytest.fixture
def trace():
    t = TraceRecorder()
    t.record("stream-1", "kernel", "Fan2", 1e-3, 2e-3, blocks=1024)
    t.record("stream-0", "memcpy_htod", "a", 0.0, 1e-3, bytes=4096)
    t.mark("stream-0", "launch", "submit", 5e-4)
    return t


class TestConversion:
    def test_span_events(self, trace):
        doc = to_chrome_trace(trace)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        fan2 = next(e for e in spans if e["name"] == "Fan2")
        assert fan2["ts"] == pytest.approx(1000.0)   # us
        assert fan2["dur"] == pytest.approx(1000.0)
        assert fan2["cat"] == "kernel"
        assert fan2["args"]["blocks"] == 1024
        assert fan2["pid"] == GPU_PID

    def test_instant_events(self, trace):
        doc = to_chrome_trace(trace)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["ts"] == pytest.approx(500.0)

    def test_thread_metadata_natural_order(self, trace):
        doc = to_chrome_trace(trace, process_name="Test GPU")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = [
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        ]
        assert names == ["stream-0", "stream-1"]
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["args"]["name"] == "Test GPU"

    def test_numeric_tracks_sort_numerically(self):
        t = TraceRecorder()
        for i in (10, 2, 1):
            t.record(f"stream-{i}", "kernel", "k", 0.0, 1e-3)
        doc = to_chrome_trace(t)
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["stream-1", "stream-2", "stream-10"]

    def test_mixed_tracks_never_compare_int_to_str(self):
        # The typed key must stay totally ordered for any track mix —
        # bare prefixes, numbered siblings, and digit-leading names
        # (where the split's piece parity differs) all in one sort.
        tracks = ["stream-", "stream-2", "dma-htod", "stream-extra", "2nd"]
        ordered = sorted(tracks, key=_track_sort_key)
        assert ordered[0] == "2nd"  # digit pieces sort before text pieces
        assert ordered.index("stream-2") < ordered.index("stream-extra")

    def test_every_track_has_sort_index(self, trace):
        doc = to_chrome_trace(trace)
        sort_meta = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_sort_index"
        ]
        named = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(sort_meta) == len(named) == 2
        assert [e["args"]["sort_index"] for e in sort_meta] == [1, 2]

    def test_spans_reference_valid_tids(self, trace):
        doc = to_chrome_trace(trace)
        tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for event in doc["traceEvents"]:
            if event["ph"] in ("X", "i"):
                assert event["tid"] in tids


class TestCounterMerge:
    @pytest.fixture
    def counters(self):
        return [
            {
                "name": "repro_gpu_power_watts",
                "ph": "C",
                "pid": 2,
                "ts": 1500.0,
                "args": {'device="0"': 75.0},
            },
            {
                "name": "repro_gpu_power_watts",
                "ph": "C",
                "pid": 2,
                "ts": 2500.0,
                "args": {'device="0"': 98.0},
            },
        ]

    def test_counter_events_and_process_metadata(self, trace, counters):
        doc = to_chrome_trace(trace, counter_events=counters)
        events = doc["traceEvents"]
        merged = [e for e in events if e["ph"] == "C"]
        assert len(merged) == 2
        assert all(e["pid"] == 2 for e in merged)
        meta = {
            e["name"]: e["args"]
            for e in events
            if e["ph"] == "M" and e["pid"] == 2
        }
        assert meta["process_name"] == {"name": "Telemetry"}
        assert meta["process_sort_index"] == {"sort_index": 2}

    def test_counter_pid_distinct_from_gpu(self, trace, counters):
        doc = to_chrome_trace(trace, counter_events=counters)
        gpu_events = [
            e for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        ]
        assert all(e["pid"] == GPU_PID for e in gpu_events)
        assert all(e["pid"] != GPU_PID for e in counters)

    def test_no_counters_no_telemetry_process(self, trace):
        doc = to_chrome_trace(trace)
        assert all(e["pid"] == GPU_PID for e in doc["traceEvents"])

    def test_write_with_counters_roundtrips(self, trace, counters, tmp_path):
        path = write_chrome_trace(
            trace, tmp_path / "merged.json", counter_events=counters
        )
        loaded = json.loads(path.read_text())
        assert [e for e in loaded["traceEvents"] if e["ph"] == "C"]


class TestSpanMerge:
    @pytest.fixture
    def span_events(self):
        from repro.telemetry import Tracer, spans_to_chrome_events

        tracer = Tracer(seed=7)
        ctx = tracer.start_trace("app-0", 0.0)
        tracer.record_leaf(ctx, "queue", "admission-queue", 0.0, 1e-3)
        tracer.end_trace(ctx, 2e-3, outcome="completed")
        return spans_to_chrome_events(tracer.spans)

    def test_async_pairs_and_process_metadata(self, trace, span_events):
        from repro.telemetry import TRACING_PID

        doc = to_chrome_trace(trace, span_events=span_events)
        events = doc["traceEvents"]
        merged = [e for e in events if e["ph"] in ("b", "e")]
        assert len(merged) == 4  # root + leaf, begin/end each
        assert all(e["pid"] == TRACING_PID for e in merged)
        meta = {
            e["name"]: e["args"]
            for e in events
            if e["ph"] == "M" and e["pid"] == TRACING_PID
        }
        assert meta["process_name"] == {"name": "Tracing"}
        assert meta["process_sort_index"] == {"sort_index": TRACING_PID}

    def test_default_pid_when_events_carry_none(self, trace):
        events = [{"ph": "b", "ts": 0.0, "name": "x", "id": "t0"}]
        doc = to_chrome_trace(trace, span_events=events)
        meta = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"] == "Tracing"
        ]
        assert meta[0]["pid"] == GPU_PID + 2

    def test_counter_and_span_processes_coexist(self, trace, span_events):
        counters = [
            {"name": "repro_w", "ph": "C", "pid": 2, "ts": 0.0,
             "args": {"value": 1.0}},
        ]
        doc = to_chrome_trace(
            trace, counter_events=counters, span_events=span_events
        )
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert {GPU_PID, 2, 3} <= pids
        # The merge leaves the GPU thread ordering pinned by
        # _track_sort_key untouched.
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["stream-0", "stream-1"]

    def test_no_span_events_no_tracing_process(self, trace):
        doc = to_chrome_trace(trace)
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert "Tracing" not in names


class TestWrite:
    def test_roundtrip_json(self, trace, tmp_path):
        path = write_chrome_trace(trace, tmp_path / "sub" / "trace.json")
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in loaded["traceEvents"])

    def test_empty_trace(self, tmp_path):
        path = write_chrome_trace(TraceRecorder(), tmp_path / "empty.json")
        loaded = json.loads(path.read_text())
        assert [e for e in loaded["traceEvents"] if e["ph"] == "X"] == []


class TestEndToEnd:
    def test_harness_trace_exports(self, tmp_path):
        from repro.core.runner import quick_run

        run = quick_run(
            pair=("nn", "needle"), num_apps=4, num_streams=4,
            scale="tiny",
        )
        path = write_chrome_trace(run.harness.trace, tmp_path / "run.json")
        loaded = json.loads(path.read_text())
        kernels = [
            e for e in loaded["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "kernel"
        ]
        assert kernels
