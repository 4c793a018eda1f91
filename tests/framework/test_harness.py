"""Integration tests for the test harness (paper Section IV)."""

import pytest

from repro.apps.registry import get_app
from repro.core.workload import Workload
from repro.framework.harness import HarnessConfig, HarnessResult, TestHarness
from repro.gpu import device as device_module
from repro.gpu.commands import CopyDirection
from repro.gpu.power import PowerModel
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.resilience.faults import FaultKind, FaultSpec


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


def na32_cell(memory_sync=False):
    """The paper's NA=32 gaussian+needle cell, fully concurrent."""
    apps = Workload.heterogeneous_pair(
        "gaussian", "needle", 32, scale="tiny"
    ).instantiate()
    return HarnessConfig(apps=apps, num_streams=32, memory_sync=memory_sync)


def hung_last_cell():
    """The last app's first kernel hangs 1000x; its watchdog gives up on
    it (one attempt) last of all four, while the kernel is still
    resident, so power keeps changing after the makespan ends."""
    apps = Workload.heterogeneous_pair(
        "gaussian", "needle", 4, scale="tiny"
    ).instantiate()
    plan = FaultPlan([FaultSpec(
        FaultKind.KERNEL_HANG, 0.0, target=apps[-1].app_id, factor=1000.0,
    )])
    return HarnessConfig(apps=apps, num_streams=4, resilience=ResilienceConfig(
        plan=plan, retry=RetryPolicy(max_attempts=1), default_deadline=1e-3,
    ))


def run_keeping_power(monkeypatch, config, keep_history):
    """Run ``config`` and return its result and its device's power model.
    With ``keep_history`` the model keeps its segments whatever the
    harness asks."""
    models = []

    class Recorded(PowerModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    class KeepsHistory(Recorded):
        retain_segments = property(lambda self: True, lambda self, _v: None)

    monkeypatch.setattr(
        device_module, "PowerModel", KeepsHistory if keep_history else Recorded
    )
    result = TestHarness(config).run()
    (power,) = models
    return result, power


class TestEnergyWindow:
    """``HarnessResult.energy`` is read as two running-integral snapshots;
    it must equal, bit for bit, the makespan window integrated from the
    power history of the same cell."""

    @pytest.mark.parametrize(
        "cell",
        [na32_cell, lambda: na32_cell(memory_sync=True), hung_last_cell],
        ids=["na32", "na32-sync", "hung-last"],
    )
    def test_energy_equals_history_integral(self, monkeypatch, cell):
        plain, power = run_keeping_power(monkeypatch, cell(), False)
        kept, history = run_keeping_power(monkeypatch, cell(), True)
        t0 = min(r.spawn_time for r in kept.records)
        t1 = max(r.complete_time for r in kept.records)
        expected = history.energy(t1) - history.energy(t0)
        assert plain.energy == expected
        assert kept.energy == expected
        assert plain.records == kept.records
        assert not power.retain_segments and power._segments == []
        with pytest.raises(RuntimeError):
            power.segments()

    def test_hung_cell_changes_power_after_the_window(self, monkeypatch):
        result, history = run_keeping_power(
            monkeypatch, hung_last_cell(), True
        )
        last = max(result.records, key=lambda r: r.complete_time)
        assert last.failed and last.app_id == "needle#1"
        assert [r.failed for r in result.records].count(True) == 1
        assert any(start > last.complete_time for start, _ in history.segments())
