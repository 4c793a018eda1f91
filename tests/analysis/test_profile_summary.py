"""Tests for the nvprof-style profile summaries."""

import pytest

from repro.analysis.profile_summary import (
    _span_stats,
    kernel_summary,
    transfer_summary,
)
from repro.sim.trace import TraceRecorder


@pytest.fixture
def trace():
    t = TraceRecorder()
    t.record("stream-0", "memcpy_htod", "a", 0.0, 1e-3, bytes=3_000_000)
    t.record("stream-0", "kernel", "Fan2", 1e-3, 5e-3)
    t.record("stream-0", "kernel", "Fan2", 5e-3, 8e-3)
    t.record("stream-1", "kernel", "euclid", 2e-3, 3e-3)
    t.record("stream-1", "memcpy_dtoh", "out", 3e-3, 3.5e-3, bytes=1_000_000)
    return t


class TestKernelSummary:
    def test_grouped_by_symbol(self, trace):
        rows = kernel_summary(trace)
        assert [r["kernel"] for r in rows] == ["Fan2", "euclid"]  # by total
        fan2 = rows[0]
        assert fan2["calls"] == 2
        assert fan2["total_ms"] == pytest.approx(7.0)
        assert fan2["avg_us"] == pytest.approx(3500.0)
        assert fan2["min_us"] == pytest.approx(3000.0)
        assert fan2["max_us"] == pytest.approx(4000.0)

    def test_time_percentages_sum_to_100(self, trace):
        rows = kernel_summary(trace)
        assert sum(r["time_pct"] for r in rows) == pytest.approx(100.0)

    def test_empty_trace(self):
        assert kernel_summary(TraceRecorder()) == []


class TestSpanStats:
    def test_empty_durations_return_zero_row(self):
        # Regression: an empty list used to reach arr.min()/arr.max(),
        # which raise ValueError on zero-size arrays.
        stats = _span_stats([])
        assert stats == {
            "total_ms": 0.0, "avg_us": 0.0, "min_us": 0.0, "max_us": 0.0
        }

    def test_single_duration(self):
        stats = _span_stats([2e-3])
        assert stats["total_ms"] == pytest.approx(2.0)
        assert stats["min_us"] == stats["max_us"] == pytest.approx(2000.0)


class TestEmptySummaries:
    def test_all_summaries_survive_empty_trace(self):
        empty = TraceRecorder()
        assert kernel_summary(empty) == []
        assert transfer_summary(empty) == []


class TestTransferSummary:
    def test_per_direction(self, trace):
        rows = transfer_summary(trace)
        by_dir = {r["direction"]: r for r in rows}
        assert by_dir["HtoD"]["count"] == 1
        assert by_dir["HtoD"]["bytes"] == 3_000_000
        assert by_dir["HtoD"]["effective_GBps"] == pytest.approx(3.0, rel=1e-6)
        assert by_dir["DtoH"]["effective_GBps"] == pytest.approx(2.0, rel=1e-6)

    def test_missing_direction_omitted(self):
        t = TraceRecorder()
        t.record("stream-0", "memcpy_htod", "a", 0.0, 1e-3, bytes=10)
        rows = transfer_summary(t)
        assert [r["direction"] for r in rows] == ["HtoD"]


class TestEndToEnd:
    def test_from_harness_trace(self):
        from repro.core.runner import quick_run

        run = quick_run(
            pair=("nn", "needle"), num_apps=4, num_streams=4,
            scale="tiny",
        )
        kernels = kernel_summary(run.harness.trace)
        names = {r["kernel"] for r in kernels}
        assert "euclid" in names
        assert any(n.startswith("needle_cuda") for n in names)
        transfers = transfer_summary(run.harness.trace)
        assert {r["direction"] for r in transfers} == {"HtoD", "DtoH"}
        tracks = run.harness.trace.tracks()
        assert len([t for t in tracks if t.startswith("stream-")]) == 4
