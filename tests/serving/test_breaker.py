"""Circuit breaker state machine and its integration with the engine."""

import pytest

from repro.resilience import FaultPlan
from repro.resilience.faults import FaultKind, FaultSpec
from repro.serving import (
    BreakerConfig,
    BreakerState,
    CircuitBreakerPanel,
    ConcurrencyCapDispatcher,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.serving


def panel(threshold=2, cooldown=1.0, jitter=0.0, seed=0):
    return CircuitBreakerPanel(
        BreakerConfig(threshold=threshold, cooldown=cooldown, jitter=jitter),
        seed=seed,
    )


class TestStateMachine:
    def test_closed_by_default(self):
        p = panel()
        assert p.state("nn") == BreakerState.CLOSED
        assert p.allow("nn", 0.0)

    def test_opens_after_consecutive_failures(self):
        p = panel(threshold=3)
        for t in (0.1, 0.2):
            p.on_failure("nn", t)
            assert p.state("nn") == BreakerState.CLOSED
        p.on_failure("nn", 0.3)
        assert p.state("nn") == BreakerState.OPEN
        assert p.trips == 1
        assert not p.allow("nn", 0.4)
        assert p.fast_fails == 1

    def test_success_resets_the_streak(self):
        p = panel(threshold=2)
        p.on_failure("nn", 0.1)
        p.on_success("nn", 0.2)
        p.on_failure("nn", 0.3)
        assert p.state("nn") == BreakerState.CLOSED

    def test_half_open_single_probe_then_close(self):
        p = panel(threshold=1, cooldown=1.0)
        p.on_failure("nn", 0.0)
        assert p.state("nn") == BreakerState.OPEN
        # Cooldown not elapsed yet.
        assert not p.allow("nn", 0.5)
        # Past the cooldown: exactly one probe goes through.
        assert p.allow("nn", 1.5)
        assert p.state("nn") == BreakerState.HALF_OPEN
        assert not p.allow("nn", 1.6)
        p.on_success("nn", 1.7)
        assert p.state("nn") == BreakerState.CLOSED
        assert p.allow("nn", 1.8)

    def test_failed_probe_reopens(self):
        p = panel(threshold=1, cooldown=1.0)
        p.on_failure("nn", 0.0)
        assert p.allow("nn", 1.5)
        p.on_failure("nn", 1.6)
        assert p.state("nn") == BreakerState.OPEN
        assert p.trips == 2
        assert not p.allow("nn", 1.7)

    def test_types_are_independent(self):
        p = panel(threshold=1)
        p.on_failure("nn", 0.0)
        assert not p.allow("nn", 0.1)
        assert p.allow("needle", 0.1)
        assert p.states() == {
            "needle": BreakerState.CLOSED,
            "nn": BreakerState.OPEN,
        }

    def test_cooldown_jitter_is_seeded_and_bounded(self):
        windows = []
        for _ in range(2):
            p = CircuitBreakerPanel(
                BreakerConfig(threshold=1, cooldown=1.0, jitter=0.5), seed=7
            )
            p.on_failure("nn", 0.0)
            windows.append(p._breakers["nn"].open_until)
        assert windows[0] == windows[1]
        assert 0.5 <= windows[0] <= 1.5


class TestDeviceScopedOscillation:
    """Half-open transitions when one device flaps slow/healthy.

    Keys follow the fleet gate's ``dev<i>:<type>`` scoping, so the sick
    device oscillates through OPEN/HALF_OPEN alone while the same app
    type on its healthy peer never leaves CLOSED.
    """

    def test_oscillating_device_retrips_through_half_open(self):
        p = panel(threshold=1, cooldown=1.0)
        sick, healthy = "dev0:nn", "dev1:nn"
        reopen_times = []
        for cycle in range(3):
            t = 3.0 * cycle
            # Slow phase: the device times out, its breaker trips.
            p.on_failure(sick, t)
            assert p.state(sick) == BreakerState.OPEN
            assert not p.allow(sick, t + 0.5)
            # Cooldown elapses mid-slow-phase: the probe fails, re-trip.
            assert p.allow(sick, t + 1.5)
            assert p.state(sick) == BreakerState.HALF_OPEN
            p.on_failure(sick, t + 1.6)
            assert p.state(sick) == BreakerState.OPEN
            reopen_times.append(t + 1.6)
            # Healthy phase: the next probe succeeds and closes it.
            assert p.allow(sick, t + 2.7)
            p.on_success(sick, t + 2.8)
            assert p.state(sick) == BreakerState.CLOSED
            # The healthy device serves the type throughout.
            assert p.allow(healthy, t + 0.5)
            p.on_success(healthy, t + 0.5)
        assert p.state(healthy) == BreakerState.CLOSED
        # One trip per failure that found the breaker CLOSED or HALF_OPEN:
        # 3 slow-phase trips + 3 failed probes.
        assert p.trips == 6
        assert len(reopen_times) == 3

    def test_fast_fails_count_only_on_the_sick_device(self):
        p = panel(threshold=1, cooldown=10.0)
        p.on_failure("dev0:nn", 0.0)
        for t in (0.1, 0.2, 0.3):
            assert not p.allow("dev0:nn", t)
            assert p.allow("dev1:nn", t)
        assert p.fast_fails == 3

    def test_states_snapshot_separates_devices(self):
        p = panel(threshold=1)
        p.on_failure("dev0:nn", 0.0)
        p.on_success("dev1:nn", 0.0)
        assert p.states() == {
            "dev0:nn": BreakerState.OPEN,
            "dev1:nn": BreakerState.CLOSED,
        }


class TestBreakerIntegration:
    def test_breaker_sheds_doomed_type_under_faults(self):
        arrivals = poisson_arrivals(
            800.0, 0.05, [("gaussian", 1), ("nn", 1)], seed=5
        )
        faults = [
            FaultSpec(kind=FaultKind.LAUNCH_FAIL, time=t, target="nn")
            for t in (0.001, 0.004, 0.007, 0.010, 0.013, 0.016, 0.019, 0.022)
        ]
        cfg = ServingConfig(
            breaker=BreakerConfig(threshold=2, cooldown=0.01, jitter=0.2),
            plan=FaultPlan(faults),
            seed=9,
        )
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(4), cfg, num_streams=8
        )
        assert result.outcomes.get("breaker-open", 0) > 0
        assert result.breaker_trips >= 1
        assert result.breaker_fast_fails == result.outcomes["breaker-open"]
        # Only the hammered type is fast-failed.
        open_types = {
            r.type_name for r in result.records if r.outcome == "breaker-open"
        }
        assert open_types == {"nn"}
        # The healthy type keeps completing.
        assert any(
            r.outcome == "completed" and r.type_name == "gaussian"
            for r in result.records
        )

    def test_no_breaker_means_no_fast_fails(self):
        arrivals = poisson_arrivals(
            800.0, 0.02, [("gaussian", 1), ("nn", 1)], seed=5
        )
        faults = [
            FaultSpec(kind=FaultKind.LAUNCH_FAIL, time=t, target="nn")
            for t in (0.001, 0.004)
        ]
        cfg = ServingConfig(plan=FaultPlan(faults), seed=9)
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(4), cfg, num_streams=8
        )
        assert result.outcomes.get("breaker-open", 0) == 0
        assert result.failed > 0
