"""Unit tests for :mod:`repro.resilience.faults`."""

import pytest

from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

pytestmark = pytest.mark.resilience


class TestFaultSpec:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.KERNEL_HANG, -1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DMA_STALL, 0.0, duration=-1e-3)

    def test_hang_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.KERNEL_HANG, 0.0, factor=1.0)

    def test_integrity_violation_is_never_injected(self):
        # Only the integrity checker reports this kind.
        with pytest.raises(ValueError, match="never injected"):
            FaultSpec(FaultKind.INTEGRITY_VIOLATION, 0.0, duration=1.0)

    def test_matches_any_when_untargeted(self):
        spec = FaultSpec(FaultKind.LAUNCH_FAIL, 0.0)
        assert spec.matches("gaussian#0")
        assert spec.matches(None)

    def test_matches_exact_app_id(self):
        spec = FaultSpec(FaultKind.LAUNCH_FAIL, 0.0, target="gaussian#2")
        assert spec.matches("gaussian#2")
        assert not spec.matches("gaussian#1")
        assert not spec.matches(None)

    def test_matches_type_prefix(self):
        spec = FaultSpec(FaultKind.KERNEL_HANG, 0.0, target="needle")
        assert spec.matches("needle#0")
        assert spec.matches("needle#7")
        assert not spec.matches("srad#0")


class TestFaultPlan:
    def test_empty(self):
        assert FaultPlan().empty
        assert len(FaultPlan()) == 0
        assert not FaultPlan([FaultSpec(FaultKind.LAUNCH_FAIL, 0.0)]).empty

    def test_sorted_by_time(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.LAUNCH_FAIL, 2.0),
                FaultSpec(FaultKind.KERNEL_HANG, 1.0),
                FaultSpec(FaultKind.DMA_STALL, 0.5),
            ]
        )
        assert [f.time for f in plan] == [0.5, 1.0, 2.0]

    def test_counts(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.LAUNCH_FAIL, 0.0),
                FaultSpec(FaultKind.LAUNCH_FAIL, 1.0),
                FaultSpec(FaultKind.POWER_DROPOUT, 0.5, duration=1e-3),
            ]
        )
        assert plan.counts() == {"launch_fail": 2, "power_dropout": 1}

    def test_equality_and_hash(self):
        a = FaultPlan([FaultSpec(FaultKind.LAUNCH_FAIL, 1.0)])
        b = FaultPlan([FaultSpec(FaultKind.LAUNCH_FAIL, 1.0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != FaultPlan()

    def test_generate_is_deterministic(self):
        kwargs = dict(
            kernel_hang_rate=3.0,
            launch_fail_rate=2.0,
            dma_stall_rate=2.0,
            power_dropout_rate=1.0,
            targets=("gaussian", "needle"),
        )
        a = FaultPlan.generate(7, 10.0, **kwargs)
        b = FaultPlan.generate(7, 10.0, **kwargs)
        assert not a.empty  # rates high enough to guarantee draws
        assert a == b
        assert a.faults == b.faults

    def test_generate_seed_changes_schedule(self):
        kwargs = dict(kernel_hang_rate=5.0, launch_fail_rate=5.0)
        a = FaultPlan.generate(1, 10.0, **kwargs)
        b = FaultPlan.generate(2, 10.0, **kwargs)
        assert a != b

    def test_generate_times_within_horizon(self):
        plan = FaultPlan.generate(3, 2.0, kernel_hang_rate=10.0)
        assert all(0.0 <= f.time < 2.0 for f in plan)

    def test_generate_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(0, 0.0)


class TestFaultInjector:
    def test_kernel_fault_not_armed_before_time(self, env):
        plan = FaultPlan([FaultSpec(FaultKind.KERNEL_HANG, 5.0)])
        injector = FaultInjector(env, plan)
        assert injector.kernel_fault("gaussian#0", now=1.0) is None
        assert injector.applied_count == 0

    def test_kernel_fault_consumed_once(self, env):
        plan = FaultPlan([FaultSpec(FaultKind.KERNEL_HANG, 1.0, factor=4.0)])
        injector = FaultInjector(env, plan)
        spec = injector.kernel_fault("gaussian#0", now=2.0)
        assert spec is not None and spec.factor == 4.0
        assert injector.kernel_fault("gaussian#0", now=3.0) is None
        assert injector.applied_counts() == {"kernel_hang": 1}

    def test_kernel_fault_respects_target(self, env):
        plan = FaultPlan(
            [FaultSpec(FaultKind.LAUNCH_FAIL, 0.0, target="needle")]
        )
        injector = FaultInjector(env, plan)
        assert injector.kernel_fault("gaussian#0", now=1.0) is None
        assert injector.kernel_fault("needle#3", now=1.0) is not None

    def test_dma_stall_sums_and_respects_direction(self, env):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.DMA_STALL, 0.0, duration=1e-3, direction="HtoD"),
                FaultSpec(FaultKind.DMA_STALL, 0.0, duration=2e-3, direction="HtoD"),
                FaultSpec(FaultKind.DMA_STALL, 0.0, duration=5e-3, direction="DtoH"),
            ]
        )
        injector = FaultInjector(env, plan)
        assert injector.dma_stall("HtoD", now=1.0) == pytest.approx(3e-3)
        # The DtoH stall survives the HtoD drain and applies later.
        assert injector.dma_stall("DtoH", now=2.0) == pytest.approx(5e-3)
        assert injector.dma_stall("HtoD", now=3.0) == 0.0
        assert injector.applied_counts() == {"dma_stall": 3}

    def test_power_dropout_window(self, env):
        plan = FaultPlan(
            [FaultSpec(FaultKind.POWER_DROPOUT, 1.0, duration=0.5)]
        )
        injector = FaultInjector(env, plan)
        assert not injector.drop_power_sample(0.5)   # before the window
        assert injector.drop_power_sample(1.0)       # window start
        assert injector.drop_power_sample(1.4)       # still inside
        assert not injector.drop_power_sample(1.5)   # window closed
        # The window is recorded exactly once despite two dropped samples.
        assert injector.applied_counts() == {"power_dropout": 1}

    def test_dma_stall_records_its_span(self, env):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.DMA_STALL, 0.0, duration=1e-3, direction="HtoD"),
                FaultSpec(FaultKind.DMA_STALL, 0.0, duration=2e-3),
            ]
        )
        injector = FaultInjector(env, plan)
        assert injector.dma_stall("HtoD", now=1.0) == pytest.approx(3e-3)
        assert injector.dma_stall("HtoD", now=2.0) == 0.0
        (span,) = injector.trace.spans
        assert (span.track, span.category, span.name) == (
            "dma-htod", "dma_stall", "injected stall",
        )
        assert (span.start, span.end) == (1.0, 1.0 + 3e-3)

    def test_fault_marks_land_on_resilience_track(self, env):
        plan = FaultPlan([FaultSpec(FaultKind.LAUNCH_FAIL, 0.0)])
        injector = FaultInjector(env, plan)
        injector.kernel_fault("gaussian#0", now=0.0)
        marks = [i for i in injector.trace.instants if i.track == "resilience"]
        assert len(marks) == 1
        assert marks[0].category == "fault"
        assert marks[0].name == "launch_fail"

    def test_retry_and_deadline_marks(self, env):
        injector = FaultInjector(env)
        injector.mark_retry("gaussian#0", attempt=1, delay=1e-3)
        injector.mark_deadline("needle#1", deadline=0.25)
        categories = [i.category for i in injector.trace.instants]
        assert categories == ["retry", "deadline"]
