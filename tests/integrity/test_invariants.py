"""Invariant probes: clean runs stay silent, seeded drift is caught.

The unit tests drive the checker against a minimal fake device whose
state can be bent one law at a time — each catalog entry must fire on
exactly the drift it documents.  The end-to-end tests then run the real
harness with ``integrity=True`` and demand silence: the model as shipped
violates none of its own laws, with or without concurrent streams.
"""

from types import SimpleNamespace

import pytest

from repro.core.workload import Workload
from repro.framework.harness import HarnessConfig, TestHarness
from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.integrity import (
    IntegrityViolation,
    InvariantChecker,
    attach_environment_invariants,
)
from repro.resilience.faults import FaultKind
from repro.sim.engine import Environment

pytestmark = pytest.mark.integrity


class _FakeSMX:
    def __init__(self, threads, blocks):
        self.resident_threads = threads
        self.resident_blocks = blocks


class _FakeSMXArray:
    """Aggregate view + per-SMX ground truth, both adjustable."""

    def __init__(self, per_smx=(512, 512), blocks=4):
        self._units = [_FakeSMX(t, blocks // 2) for t in per_smx]
        self.resident_threads = sum(t.resident_threads for t in self._units)
        self.resident_blocks = blocks
        self.thread_occupancy = 0.5
        self.busy_smx_count = len(self._units)

    def __iter__(self):
        return iter(self._units)

    def __len__(self):
        return len(self._units)


class _FakeDMA:
    def __init__(self):
        self.bytes_moved = 1024
        self.commands_served = 2
        self.busy_seconds = 0.25
        self.pending_count = 0


class _FakePower:
    def __init__(self, idle=17.0, tdp=225.0):
        self.current_power = idle
        self.peak_power = idle
        self._rate = idle

    def energy(self, until):
        return self._rate * until

    def evaluate(self, state):
        return state.watts


class _FakeDevice:
    """The attribute surface the checker probes, in a healthy state."""

    def __init__(self):
        self.smx = _FakeSMXArray()
        self.spec = SimpleNamespace(
            max_resident_threads=26624,
            max_resident_blocks=208,
            power=SimpleNamespace(idle=17.0, tdp=225.0),
        )
        self.commands_issued = 6
        self.fabric = SimpleNamespace(
            queues=[SimpleNamespace(depth_total=4),
                    SimpleNamespace(depth_total=2)]
        )
        self._inflight = 3
        self._stream_inflight = {0: 2, 1: 1, 2: 0}
        self._active_streams = 2
        self.grid_engine = SimpleNamespace(active_grids=1, grids_completed=5)
        self.dma = {"htod": _FakeDMA(), "dtoh": _FakeDMA()}
        self.power = _FakePower()
        # What the power formula gives for the live counters.
        self.formula_watts = self.power.current_power

    def power_state(self):
        return SimpleNamespace(watts=self.formula_watts)


def _checked(device, now=1.0):
    checker = InvariantChecker(on_violation="record")
    checker.watch_device(device, label="gpu0")
    checker.check_now(now)
    return checker


class TestCatalog:
    def test_healthy_device_passes_every_law(self):
        checker = _checked(_FakeDevice())
        assert checker.violations_found == 0
        assert checker.checks_run == 1

    def test_smx_ceiling(self):
        device = _FakeDevice()
        device.smx.resident_threads = 30000  # above the K20's 26624
        device.smx._units[0].resident_threads = 29488
        checker = _checked(device)
        assert any(
            v.invariant == "smx-occupancy" for v in checker.violations
        )

    def test_smx_aggregate_vs_ground_truth(self):
        device = _FakeDevice()
        device.smx.resident_threads += 64  # cache leaked a release
        checker = _checked(device)
        assert any(
            "per-SMX sum" in str(v) for v in checker.violations
        )

    def test_queue_conservation(self):
        device = _FakeDevice()
        device.commands_issued += 1  # command lost before the queues
        checker = _checked(device)
        assert [v.invariant for v in checker.violations] == [
            "queue-conservation"
        ]

    def test_inflight_aggregate(self):
        device = _FakeDevice()
        device._inflight = 2  # != per-stream sum of 3
        checker = _checked(device)
        assert any(
            v.invariant == "queue-conservation" for v in checker.violations
        )

    def test_dma_monotonicity(self):
        device = _FakeDevice()
        checker = InvariantChecker(on_violation="record")
        checker.watch_device(device, label="gpu0")
        checker.check_now(1.0)
        device.dma["htod"].bytes_moved -= 512  # counter went backwards
        checker.check_now(2.0)
        assert any(
            v.invariant == "dma-conservation" for v in checker.violations
        )

    def test_dma_busy_exceeds_wallclock(self):
        device = _FakeDevice()
        device.dma["dtoh"].busy_seconds = 5.0  # run is only 1 s old
        checker = _checked(device)
        assert any(
            v.invariant == "dma-conservation" for v in checker.violations
        )

    def test_energy_band(self):
        device = _FakeDevice()
        device.power.current_power = 5.0  # below the 17 W idle floor
        checker = _checked(device)
        assert any(
            v.invariant == "energy-accounting" for v in checker.violations
        )

    def test_power_formula_law(self):
        device = _FakeDevice()
        device.formula_watts = 45.0  # counters moved, power not updated
        checker = _checked(device)
        assert [v.invariant for v in checker.violations] == [
            "energy-accounting"
        ]
        assert "formula" in str(checker.violations[0])

    def test_power_formula_law_on_real_device(self):
        device = GPUDevice(Environment())
        assert _checked(device, now=0.0).violations_found == 0
        # A copy engine goes busy without telling the power model.
        device.dma[CopyDirection.HTOD].busy = True
        checker = _checked(device, now=0.0)
        assert [v.invariant for v in checker.violations] == [
            "energy-accounting"
        ]
        assert "formula" in str(checker.violations[0])

    def test_energy_integral_bounds(self):
        device = _FakeDevice()
        checker = InvariantChecker(on_violation="record")
        checker.watch_device(device, label="gpu0")
        checker.check_now(1.0)
        device.power._rate = 500.0  # grew faster than TDP allows
        checker.check_now(2.0)
        assert any(
            "energy grew" in str(v) for v in checker.violations
        )

    def test_clock_monotone_on_direct_calls(self):
        env = Environment()
        checker = attach_environment_invariants(
            env, on_violation="record", stride=1000
        )
        # Direct per-event stepping checks the clock on every call,
        # regardless of how large the catalog stride is.
        checker(1.0)
        checker(0.5)
        assert [v.invariant for v in checker.violations] == [
            "clock-monotone"
        ]
        checker.detach()

    def test_clock_monotone_at_probe_granularity(self):
        env = Environment()
        checker = attach_environment_invariants(
            env, on_violation="record", stride=1000
        )
        # probe_tick is what the engine's strided countdown dispatches;
        # a net regression between two ticks must fire.
        checker.probe_tick(1.0)
        checker.probe_tick(0.5)
        assert [v.invariant for v in checker.violations] == [
            "clock-monotone"
        ]
        checker.detach()

    def test_attach_installs_engine_probe(self):
        env = Environment()
        checker = attach_environment_invariants(env, stride=4)
        assert env.probe == checker.probe_tick
        checker.detach()
        assert env.probe is None

    def test_raise_mode_aborts(self):
        device = _FakeDevice()
        device.commands_issued += 1
        checker = InvariantChecker()  # default: raise
        checker.watch_device(device)
        with pytest.raises(IntegrityViolation) as exc:
            checker.check_now(1.0)
        assert exc.value.invariant == "queue-conservation"
        assert exc.value.time == 1.0


class TestFaultTaxonomy:
    def test_violation_kind_matches_fault_model(self):
        violation = IntegrityViolation("smx-occupancy", "drift", 0.5)
        # str-enum equality: the integrity layer never imports resilience.
        assert violation.kind == FaultKind.INTEGRITY_VIOLATION

    def test_fault_kind_exists(self):
        assert FaultKind.INTEGRITY_VIOLATION.value == "integrity_violation"


class TestEndToEnd:
    def _run(self, **kwargs):
        apps = Workload.heterogeneous_pair(
            "gaussian", "needle", 8
        ).instantiate()
        cfg = HarnessConfig(apps=apps, num_streams=8, **kwargs)
        return TestHarness(cfg).run()

    def test_default_run_is_violation_free(self):
        result = self._run(integrity=True)
        checker = result.integrity
        assert checker.checks_run > 0
        assert checker.violations_found == 0

    def test_memory_sync_run_is_violation_free(self):
        result = self._run(integrity=True, memory_sync=True)
        assert result.integrity.violations_found == 0

    def test_results_identical_with_probes_off(self):
        on = self._run(integrity=True)
        off = self._run()
        assert on.makespan == off.makespan
        assert on.energy == off.energy
        assert off.integrity is None

    def test_preconfigured_checker_is_honored(self):
        checker = InvariantChecker(stride=16, on_violation="record")
        result = self._run(integrity=checker)
        assert result.integrity is checker
        assert checker.checks_run > 0
        assert checker.violations == []
