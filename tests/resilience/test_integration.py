"""End-to-end resilience: faults injected, detected, retried, degraded.

One seeded 8-app heterogeneous run exercises the whole subsystem — a
targeted launch failure (transient, retried successfully), a hung kernel
(caught by the watchdog's serial-baseline deadline), a DMA stall and a
power-sensor dropout — and the result is asserted to be deterministic
across two independent runs.
"""

import pytest

from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.framework.metrics import record_timeline
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
)
from repro.sim.trace import TraceRecorder

pytestmark = pytest.mark.resilience

NUM_APPS = 8
NUM_STREAMS = 8


def _clean_run():
    runner = ExperimentRunner()
    workload = Workload.heterogeneous_pair("gaussian", "needle", NUM_APPS)
    return runner.run(RunConfig(workload=workload, num_streams=NUM_STREAMS))


def _faulted_run(clean):
    """One fresh faulted run (fresh runner: no shared caches).

    Fault times are absolute simulated timestamps, so the kernel/DMA
    faults arm early (armed faults persist until consumed) while the
    power-dropout *window* — which expires on its own — is anchored to
    the clean run's measured spawn window, when the monitor is sampling.
    """
    horizon = clean.makespan
    t0 = min(r.spawn_time for r in clean.harness.records)
    plan = FaultPlan(
        [
            FaultSpec(
                FaultKind.LAUNCH_FAIL, horizon * 0.05, target="gaussian#0"
            ),
            FaultSpec(
                FaultKind.KERNEL_HANG,
                horizon * 0.10,
                target="needle#1",
                factor=20.0,
            ),
            FaultSpec(
                FaultKind.DMA_STALL,
                horizon * 0.02,
                duration=horizon * 0.05,
                direction="HtoD",
            ),
            FaultSpec(
                FaultKind.POWER_DROPOUT,
                t0 + horizon * 0.3,
                duration=horizon * 0.3,
            ),
        ]
    )
    resilience = ResilienceConfig(
        plan=plan,
        retry=RetryPolicy(max_attempts=3, base_delay=clean.makespan * 0.01),
        deadline_factor=4.0,
        degradation_threshold=2,
        seed=42,
    )
    runner = ExperimentRunner()
    workload = Workload.heterogeneous_pair("gaussian", "needle", NUM_APPS)
    return runner.run(
        RunConfig(
            workload=workload,
            num_streams=NUM_STREAMS,
            resilience=resilience,
            # Sample densely relative to the (scale-dependent) horizon so
            # the dropout window always covers at least one power sample.
            power_interval=clean.makespan * 0.01,
        )
    )


@pytest.fixture(scope="module")
def clean():
    return _clean_run()


@pytest.fixture(scope="module")
def faulted(clean):
    return _faulted_run(clean)


class TestFaultedRun:
    def test_all_planned_faults_applied(self, faulted):
        summary = faulted.harness.resilience
        assert summary is not None
        assert summary.planned_faults == 4
        assert summary.applied_total == 4
        assert set(summary.applied_faults) == {
            "launch_fail",
            "kernel_hang",
            "dma_stall",
            "power_dropout",
        }

    def test_launch_failure_detected_and_retried_successfully(self, faulted):
        summary = faulted.harness.resilience
        assert summary.faults_detected >= 1
        assert summary.retries >= 1
        # At least one application retried and then completed.
        recovered = [
            r
            for r in faulted.harness.records
            if r.retries > 0 and not r.failed
        ]
        assert recovered
        assert all(r.attempts == r.retries + 1 for r in faulted.harness.records)

    def test_hang_caught_by_watchdog(self, faulted):
        summary = faulted.harness.resilience
        assert summary.deadline_hits >= 1

    def test_degradation_stepped_down(self, faulted):
        summary = faulted.harness.resilience
        assert summary.degradation_steps >= 1
        assert summary.final_concurrency_limit < NUM_STREAMS

    def test_every_app_accounted_for(self, faulted):
        summary = faulted.harness.resilience
        assert summary.apps_failed + summary.apps_completed == NUM_APPS
        # The plan's transient faults are recoverable within 3 attempts.
        assert summary.apps_completed == NUM_APPS

    def test_trace_marks_every_resilience_event(self, faulted):
        trace = faulted.harness.trace
        marks = [i for i in trace.instants if i.track == "resilience"]
        categories = {i.category for i in marks}
        assert {"fault", "retry", "deadline", "degrade"} <= categories

    def test_timeline_is_records_plus_marks(self, clean, faulted):
        harness = faulted.harness
        timeline = harness.trace
        # The records' commands, in the order they give on their own ...
        commands = record_timeline(harness.records, TraceRecorder()).spans
        assert [s for s in timeline.spans if s.category != "dma_stall"] == (
            commands
        )
        # ... plus the injector's instants and its one stall span.
        assert timeline.instants == harness.marks.instants
        (stall,) = timeline.filter(category="dma_stall")
        assert harness.marks.spans == [stall]
        (fault,) = [
            i for i in timeline.instants if i.name == "dma_stall"
        ]
        assert stall.track == fault.meta["target"] == "dma-htod"
        assert stall.start == fault.time
        assert stall.duration == pytest.approx(clean.makespan * 0.05)

    def test_summary_reaches_harness_digest(self, faulted):
        assert "resilience:" in faulted.harness.summary()

    def test_deterministic_across_runs(self, clean, faulted):
        again = _faulted_run(clean)
        assert again.makespan == faulted.makespan
        assert again.energy == faulted.energy
        a, b = again.harness.resilience, faulted.harness.resilience
        assert (a.applied_faults, a.retries, a.deadline_hits) == (
            b.applied_faults,
            b.retries,
            b.deadline_hits,
        )
        key = lambda r: (
            r.app_id,
            r.attempts,
            r.retries,
            r.faults_detected,
            r.deadline_hits,
            r.failed,
            r.spawn_time,
            r.complete_time,
        )
        assert sorted(map(key, again.harness.records)) == sorted(
            map(key, faulted.harness.records)
        )


class TestNoFaultEquivalence:
    def test_empty_plan_matches_clean_run(self):
        """Resilience with nothing armed must not move the timeline."""
        workload = Workload.heterogeneous_pair("gaussian", "needle", 4)
        clean = ExperimentRunner().run(
            RunConfig(workload=workload, num_streams=4)
        )
        hooked = ExperimentRunner().run(
            RunConfig(
                workload=workload,
                num_streams=4,
                resilience=ResilienceConfig(plan=FaultPlan()),
            )
        )
        assert hooked.makespan == clean.makespan
        assert hooked.energy == clean.energy
        assert hooked.harness.resilience.applied_total == 0
