"""Fleet-aware serving: capacity shrink, routing and breaker scoping."""

import math

import pytest

from repro.framework.metrics import AppRecord
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.serving import (
    ConcurrencyCapDispatcher,
    FleetCapacityGate,
    FleetServingConfig,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.serving


def record(device_index=0, type_name="nn"):
    return AppRecord(
        app_id=f"{type_name}#0",
        type_name=type_name,
        instance=0,
        stream_index=0,
        launch_index=0,
        device_index=device_index,
    )


class TestCapacity:
    def test_full_fleet_uses_all_streams(self):
        gate = FleetCapacityGate(4, 16)
        assert gate.capacity(0.0) == 16
        assert gate.may_admit(15, 0.0)
        assert not gate.may_admit(16, 0.0)

    def test_capacity_shrinks_at_detection_not_loss(self):
        gate = FleetCapacityGate(
            4, 16, detection_latency=2e-3, loss_times={1: 10e-3}
        )
        assert gate.capacity(10e-3) == 16          # lost, not yet detected
        assert gate.capacity(12e-3 - 1e-9) == 16   # still inside budget
        assert gate.capacity(12e-3) == 12          # detected: 3/4 survive
        assert gate.devices_lost(12e-3) == 1
        assert gate.healthy_devices(12e-3) == [0, 2, 3]

    def test_capacity_never_below_one(self):
        gate = FleetCapacityGate(
            2, 4, detection_latency=0.0, loss_times={0: 0.0, 1: 0.0}
        )
        assert gate.capacity(1.0) == 1
        assert gate.may_admit(0, 1.0)

    def test_capacity_rounds_up(self):
        gate = FleetCapacityGate(
            3, 4, detection_latency=0.0, loss_times={0: 0.0}
        )
        assert gate.capacity(1.0) == math.ceil(4 * 2 / 3)


class TestRouting:
    def test_round_robin_over_healthy(self):
        gate = FleetCapacityGate(3, 6)
        assert [gate.route(0.0) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        assert gate.admitted_per_device == {0: 2, 1: 2, 2: 2}

    def test_detected_lost_device_skipped(self):
        gate = FleetCapacityGate(
            3, 6, detection_latency=0.0, loss_times={1: 0.0}
        )
        assert [gate.route(1.0) for _ in range(4)] == [0, 2, 0, 2]
        assert gate.admitted_per_device[1] == 0

    def test_all_lost_falls_back_to_device_zero(self):
        gate = FleetCapacityGate(
            2, 4, detection_latency=0.0, loss_times={0: 0.0, 1: 0.0}
        )
        assert gate.route(1.0) == 0


class TestGradedRouting:
    """Smooth-weighted-round-robin over graded health weights."""

    def test_throttle_factor_window_semantics(self):
        gate = FleetCapacityGate(
            2, 4, throttle_windows={0: [(1e-3, 3e-3, 2.0)]}
        )
        assert gate.throttle_factor(0, 0.5e-3) == 1.0  # before
        assert gate.throttle_factor(0, 1e-3) == 2.0    # inclusive start
        assert gate.throttle_factor(0, 3e-3) == 1.0    # exclusive end
        assert gate.throttle_factor(1, 2e-3) == 1.0    # other device

    def test_health_weight_grades(self):
        gate = FleetCapacityGate(
            3,
            6,
            detection_latency=0.0,
            loss_times={2: 0.0},
            throttle_windows={1: [(0.0, 1.0, 4.0)]},
        )
        assert gate.health_weight(0, 0.5) == 1.0
        assert gate.health_weight(1, 0.5) == 0.25
        assert gate.health_weight(2, 0.5) == 0.0  # lost dominates

    def test_half_weight_device_interleaved_at_half_rate(self):
        # weights [0.5, 1.0]: the SWRR sequence has period 3 — the
        # throttled device serves one admission for the healthy one's two.
        gate = FleetCapacityGate(
            2, 4, throttle_windows={0: [(0.0, 1.0, 2.0)]}
        )
        assert [gate.route(0.5) for _ in range(6)] == [1, 0, 1, 1, 0, 1]
        assert gate.admitted_per_device == {0: 2, 1: 4}

    def test_quarter_weight_straggler_pinned_sequence(self):
        # weights [1, 0.25, 1]: period 9, traffic split 4:1:4 — the 4x
        # straggler earns a quarter of a healthy device's admissions.
        gate = FleetCapacityGate(
            3, 6, throttle_windows={1: [(0.0, 1.0, 4.0)]}
        )
        seq = [gate.route(0.5) for _ in range(9)]
        assert seq == [0, 2, 0, 2, 1, 0, 2, 0, 2]
        assert gate.admitted_per_device == {0: 4, 1: 1, 2: 4}

    def test_routing_recovers_after_window_closes(self):
        gate = FleetCapacityGate(
            2, 4, throttle_windows={0: [(0.0, 1e-3, 2.0)]}
        )
        [gate.route(0.5e-3) for _ in range(3)]  # drain one throttled period
        assert [gate.route(2e-3) for _ in range(4)] == [0, 1, 0, 1]

    def test_from_plan_collects_throttle_windows(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultKind.DEVICE_THROTTLE,
                    2e-3,
                    device=1,
                    duration=1e-3,
                    factor=4.0,
                ),
                FaultSpec(
                    FaultKind.DEVICE_THROTTLE,
                    0.0,
                    device=1,
                    duration=1e-3,
                    factor=2.0,
                ),
            ]
        )
        gate = FleetCapacityGate.from_plan(
            FleetServingConfig(num_devices=2), 4, plan
        )
        assert gate.throttle_windows == {
            1: [(0.0, 1e-3, 2.0), (2e-3, 3e-3, 4.0)]
        }
        assert gate.health_weight(1, 2.5e-3) == 0.25


class TestBreakerScoping:
    def test_scoped_key_includes_device(self):
        gate = FleetCapacityGate(4, 8, scope_breakers=True)
        assert gate.breaker_key(record(device_index=2)) == "dev2:nn"

    def test_unscoped_key_is_type_only(self):
        gate = FleetCapacityGate(4, 8, scope_breakers=False)
        assert gate.breaker_key(record(device_index=2)) == "nn"


class TestFromPlan:
    def test_first_loss_per_device_wins(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.DEVICE_LOSS, 5e-3, device=1),
                FaultSpec(FaultKind.DEVICE_LOSS, 2e-3, device=1),
                FaultSpec(FaultKind.KERNEL_HANG, 1e-3, factor=4.0),
            ]
        )
        gate = FleetCapacityGate.from_plan(
            FleetServingConfig(num_devices=4, detection_latency=1e-3),
            16,
            plan,
        )
        assert gate.detect_times == {1: 3e-3}

    def test_no_plan_means_no_losses(self):
        gate = FleetCapacityGate.from_plan(
            FleetServingConfig(num_devices=2), 8, None
        )
        assert gate.detect_times == {}


class TestConfigValidation:
    def test_rejects_bad_device_count(self):
        with pytest.raises(ValueError):
            FleetServingConfig(num_devices=0)
        with pytest.raises(ValueError):
            FleetCapacityGate(0, 8)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            FleetServingConfig(detection_latency=-1.0)


class TestServingIntegration:
    def _arrivals(self):
        return poisson_arrivals(
            rate=8000.0,
            duration=0.004,
            type_mix=[("nn", 2), ("needle", 1)],
            seed=7,
        )

    def test_jobs_routed_across_devices(self):
        result = run_serving(
            self._arrivals(),
            ConcurrencyCapDispatcher(4),
            ServingConfig(seed=7, fleet=FleetServingConfig(num_devices=4)),
            num_streams=8,
        )
        assert result.fleet_devices == 4
        assert result.devices_lost == 0
        dispatched = [r for r in result.records if r.device_index >= 0]
        assert dispatched
        assert {r.device_index for r in dispatched} == {0, 1, 2, 3}

    def test_detected_loss_shrinks_admission_and_reroutes(self):
        arrivals = self._arrivals()
        loss_at = 1e-3
        plan = FaultPlan(
            [FaultSpec(FaultKind.DEVICE_LOSS, loss_at, device=1)]
        )
        config = ServingConfig(
            seed=7,
            plan=plan,
            fleet=FleetServingConfig(num_devices=4, detection_latency=1e-3),
        )
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(8), config, num_streams=8
        )
        assert result.fleet_devices == 4
        assert result.devices_lost == 1
        detect_at = loss_at + 1e-3
        late = [
            r for r in result.records
            if r.gpu_start >= detect_at and r.outcome in ("completed", "late")
        ]
        assert late
        assert all(r.device_index != 1 for r in late)

    def test_fleetless_run_unchanged_by_gate_code(self):
        arrivals = self._arrivals()
        plain = run_serving(
            arrivals, ConcurrencyCapDispatcher(4),
            ServingConfig(seed=7), num_streams=8,
        )
        again = run_serving(
            arrivals, ConcurrencyCapDispatcher(4),
            ServingConfig(seed=7), num_streams=8,
        )
        assert plain.fleet_devices == 0
        assert [r.complete_time for r in plain.records] == [
            r.complete_time for r in again.records
        ]
        assert all(r.device_index == 0 for r in plain.records)
