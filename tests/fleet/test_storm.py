"""Failover-storm control: the paced migration queue.

A correlated domain loss must not dump every dead device's apps onto the
survivors in one simulated instant.  These tests pin the queue's slot
accounting and priority order at the unit level, then the end-to-end
behaviour: completion under pacing, bounded concurrent recovery, the
all-devices-dead drain, and byte-identity when storm control is off.
"""

import pytest

from repro.fleet import (
    FleetHarness,
    MigrationQueue,
    StormControlConfig,
    TopologyConfig,
)
from repro.integrity import FencedJournal, GenerationFence
from repro.resilience.faults import FaultPlan
from repro.sim.engine import Environment

from .conftest import fast_fleet, make_apps

pytestmark = pytest.mark.fleet

DEVICES = 4
NUM_APPS = 8


class TestMigrationQueueUnit:
    def make(self, candidates, **overrides):
        env = Environment()
        released = []
        cfg = StormControlConfig(**overrides)
        queue = MigrationQueue(
            env,
            cfg,
            candidates=lambda: candidates,
            release=lambda app, target: released.append((app, target)),
            journal=FencedJournal(None, GenerationFence()),
        )
        return env, queue, released

    def test_first_wave_capped_by_slots(self):
        env, queue, released = self.make(
            [(2, 0), (3, 0)], max_inflight_per_device=1
        )
        for i in range(4):
            queue.enqueue(
                f"app#{i}", from_device=0, deadline=None, checkpoint_kernels=i
            )
        queue.drain()
        # Two survivors x one slot: only two released, the rest queued.
        assert len(released) == 2
        assert queue.depth == 2
        assert queue.peak_depth == 4

    def test_priority_deadline_then_staleness_then_id(self):
        env, queue, released = self.make(
            [(1, 0)], max_inflight_per_device=4
        )
        queue.enqueue("late", from_device=0, deadline=9.0, checkpoint_kernels=5)
        queue.enqueue("none", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.enqueue("soon", from_device=0, deadline=1.0, checkpoint_kernels=9)
        queue.enqueue("stale", from_device=0, deadline=9.0, checkpoint_kernels=1)
        queue.drain()
        assert [app for app, _ in released] == ["soon", "stale", "late", "none"]

    def test_slot_freed_then_refilled_on_tick(self):
        env, queue, released = self.make([(1, 0)], max_inflight_per_device=1)
        queue.enqueue("a", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.enqueue("b", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.drain()
        assert [app for app, _ in released] == ["a"]
        # Freeing the slot does not release immediately — only a drain
        # (the pacer tick) does.
        queue.free_slot("a")
        assert queue.depth == 1
        queue.drain()
        assert [app for app, _ in released] == ["a", "b"]

    def test_least_loaded_free_slot_wins(self):
        env, queue, released = self.make(
            [(1, 5), (2, 0)], max_inflight_per_device=2
        )
        queue.enqueue("a", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.drain()
        assert released == [("a", 2)]

    def test_no_survivors_fails_queue(self):
        env, queue, released = self.make([])
        queue.enqueue("a", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.enqueue("b", from_device=1, deadline=None, checkpoint_kernels=0)
        queue.drain()
        assert released == [("a", None), ("b", None)]
        assert queue.failed_total == 2
        assert queue.depth == 0

    def test_reenqueue_frees_stale_slot(self):
        env, queue, released = self.make([(1, 0)], max_inflight_per_device=1)
        queue.enqueue("a", from_device=0, deadline=None, checkpoint_kernels=0)
        queue.drain()
        assert released == [("a", 1)]
        # "a"'s new home dies before it warms up; re-enqueueing must not
        # leak the slot it still held on device 1.
        queue.note_device_lost(1)
        queue.enqueue("a", from_device=1, deadline=None, checkpoint_kernels=0)
        queue.candidates = lambda: [(2, 0)]
        queue.drain()
        assert released[-1] == ("a", 2)


def run(fleet, plan=None):
    return FleetHarness(
        make_apps(NUM_APPS), fleet, num_streams=2, seed=0, plan=plan
    ).run()


@pytest.fixture(scope="module")
def domain_plan():
    """Correlated loss of rail 0 (devices 0 and 1) mid-run."""
    return FaultPlan.correlated((0, 1), time=1.5e-3)


def storm_fleet(**overrides):
    return fast_fleet(
        num_devices=DEVICES,
        topology=TopologyConfig(rails=2),
        storm=StormControlConfig(
            max_inflight_per_device=1, pace_interval=2e-4
        ),
        **overrides,
    )


class TestStormControlledFailover:
    def test_domain_loss_completes_with_pacing(self, domain_plan):
        result = run(storm_fleet(), plan=domain_plan)
        assert result.devices_lost == 2
        assert result.completed == NUM_APPS
        assert result.failed == 0
        assert result.storm_queued >= 2
        assert result.storm_released == result.storm_queued
        assert result.storm_failed == 0
        for record in result.records:
            assert record.device_index not in (0, 1)

    def test_pacing_actually_queues(self, domain_plan):
        result = run(storm_fleet(), plan=domain_plan)
        # More migrants than first-wave slots (2 survivors x 1 slot), so
        # at least one app waited for a pacer tick.
        assert result.storm_queued > 2
        assert result.storm_peak_depth >= result.storm_queued - 2

    def test_migrations_staggered_not_instant(self, domain_plan):
        paced = run(storm_fleet(), plan=domain_plan)
        immediate = run(
            fast_fleet(num_devices=DEVICES, topology=TopologyConfig(rails=2)),
            plan=domain_plan,
        )
        # The immediate path resumes everything at detection; pacing
        # spreads re-admission over pacer ticks.
        assert immediate.completed == NUM_APPS
        paced_resumes = [r["resumed"] for r in paced.recoveries]
        assert max(paced_resumes) > min(
            r["resumed"] for r in immediate.recoveries
        )

    def test_deterministic(self, domain_plan):
        a = run(storm_fleet(), plan=domain_plan)
        b = run(storm_fleet(), plan=domain_plan)
        key = lambda r: (r.app_id, r.outcome, r.device_index, r.complete_time)
        assert [key(r) for r in a.records] == [key(r) for r in b.records]
        assert a.makespan == b.makespan

    def test_storm_config_without_losses_changes_nothing(self):
        plain = run(fast_fleet(num_devices=DEVICES))
        armed = run(storm_fleet())
        assert armed.makespan == plain.makespan
        assert [r.complete_time for r in armed.records] == [
            r.complete_time for r in plain.records
        ]
        assert armed.storm_queued == 0

    def test_all_devices_lost_fails_cleanly(self):
        plan = FaultPlan.correlated((0, 1, 2, 3), time=1.5e-3)
        result = run(storm_fleet(), plan=plan)
        assert result.devices_lost == DEVICES
        assert result.completed + result.failed == NUM_APPS
        assert result.failed >= 1
        for record in result.records:
            if record.failed:
                assert record.outcome == "device-lost"
