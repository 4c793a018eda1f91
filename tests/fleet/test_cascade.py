"""Cascade containment end-to-end: budgets, deadlines, brownout.

The containment knobs must (a) cap retry amplification under repeated
faults, (b) shed work that can no longer meet its deadline instead of
re-running it, (c) make hedge launches spend the same budget as retries,
(d) trip the brownout ladder from sustained goodput collapse — and (e)
cost nothing when enabled but idle.
"""

import pytest

from repro.fleet import FleetHarness, HedgeConfig, StormControlConfig, TopologyConfig
from repro.resilience import BrownoutConfig, RetryBudgetConfig
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

from .conftest import fast_fleet, make_apps

pytestmark = pytest.mark.fleet

NUM_APPS = 4
DEVICES = 2
SEED = 7

#: A bucket that never meaningfully refills: one retry, then denial.
EXHAUSTED = RetryBudgetConfig(rate=1e-6, burst=1.0, shared=True)

#: Two transient launch failures on device 0, spaced so distinct
#: attempts consume them (an attempt fans kernels across both streams,
#: so two specs armed at once would fail a single attempt only once).
FLAKY_PLAN = FaultPlan(
    [
        FaultSpec(FaultKind.LAUNCH_FAIL, 1e-4, device=0),
        FaultSpec(FaultKind.LAUNCH_FAIL, 3e-3, device=0),
    ]
)


def run(plan=None, apps=NUM_APPS, deadlines=None, **overrides):
    fleet = fast_fleet(num_devices=DEVICES, seed=SEED, **overrides)
    return FleetHarness(
        make_apps(apps), fleet, num_streams=2, seed=SEED, plan=plan,
        deadlines=deadlines,
    ).run()


class TestRetryBudgetInHarness:
    def test_unbudgeted_faults_all_retry(self):
        result = run(plan=FLAKY_PLAN)
        assert result.completed == NUM_APPS
        assert sum(r.retries for r in result.records) == 2
        assert result.retries_denied == 0
        assert result.retry_budget_granted == 0  # budget not even built

    def test_exhausted_budget_sheds_instead_of_retrying(self):
        result = run(plan=FLAKY_PLAN, retry_budget=EXHAUSTED)
        # One retry fits the burst; the second fault is denied.
        assert result.retry_budget_granted == 1
        assert result.retry_budget_denied >= 1
        assert result.retries_denied >= 1
        denied = [r for r in result.records if r.outcome == "retry-budget"]
        assert len(denied) == 1
        assert denied[0].failed
        assert sum(r.retries for r in result.records) == 1

    def test_generous_budget_changes_nothing(self):
        plain = run(plan=FLAKY_PLAN)
        budgeted = run(
            plan=FLAKY_PLAN,
            retry_budget=RetryBudgetConfig(rate=1e4, burst=16.0),
        )
        assert budgeted.completed == plain.completed
        assert [r.complete_time for r in budgeted.records] == [
            r.complete_time for r in plain.records
        ]
        assert budgeted.retry_budget_granted == 2
        assert budgeted.retry_budget_denied == 0

    def test_retry_backoff_delays_the_rerun(self):
        instant = run(plan=FLAKY_PLAN)
        delayed = run(
            plan=FLAKY_PLAN,
            retry_backoff=RetryPolicy(base_delay=2e-4, mode="full"),
        )
        assert delayed.completed == NUM_APPS
        retried_instant = {
            r.app_id: r.complete_time
            for r in instant.records
            if r.retries
        }
        for record in delayed.records:
            if record.app_id in retried_instant:
                assert record.complete_time > retried_instant[record.app_id]


class TestDeadlinePropagation:
    @pytest.fixture(scope="class")
    def clean(self):
        return run()

    def doomed_deadline(self, clean):
        """A deadline halfway through the longest app's run."""
        target = max(clean.records, key=lambda r: r.complete_time)
        return target.app_id, (target.gpu_start + target.complete_time) / 2

    def test_contained_sheds_at_checkpoint(self, clean):
        app_id, deadline = self.doomed_deadline(clean)
        result = run(deadlines={app_id: deadline}, shed_unfinishable=True)
        record = next(r for r in result.records if r.app_id == app_id)
        assert record.outcome == "shed-deadline"
        assert record.failed
        assert record.retries == 0
        assert result.shed_apps == 1
        # Shedding happens at the phase boundary, not at completion: the
        # doomed attempt stopped early.
        assert record.complete_time < max(
            r.complete_time for r in clean.records
        )

    def test_uncontained_reruns_until_attempts_exhausted(self, clean):
        app_id, deadline = self.doomed_deadline(clean)
        result = run(deadlines={app_id: deadline})
        record = next(r for r in result.records if r.app_id == app_id)
        assert record.outcome == "deadline-missed"
        # The deadline-driven retry storm: full re-submissions from
        # scratch until the attempt cap, re-executing finished work.
        assert record.retries == result.fleet.max_attempts - 1
        assert record.reexecuted_kernels > 0

    def test_budget_caps_deadline_reruns(self, clean):
        app_id, deadline = self.doomed_deadline(clean)
        capped = run(deadlines={app_id: deadline}, retry_budget=EXHAUSTED)
        uncapped = run(deadlines={app_id: deadline})
        record = next(r for r in capped.records if r.app_id == app_id)
        assert record.outcome == "deadline-missed"
        assert record.retries_denied == 1
        assert record.reexecuted_kernels < next(
            r for r in uncapped.records if r.app_id == app_id
        ).reexecuted_kernels

    def test_unknown_deadline_app_rejected(self):
        with pytest.raises(ValueError):
            FleetHarness(
                make_apps(2),
                fast_fleet(num_devices=DEVICES),
                deadlines={"nope#9": 1.0},
            )

    def test_deadline_stamped_on_record(self, clean):
        app_id, deadline = self.doomed_deadline(clean)
        result = run(deadlines={app_id: deadline}, shed_unfinishable=True)
        record = next(r for r in result.records if r.app_id == app_id)
        assert record.slo_deadline == pytest.approx(deadline)


class TestHedgesSpendTheBudget:
    # budget_fraction=1.0 so the kernel budget never gates: both
    # stragglers on the slowed device are hedge-eligible, and only the
    # retry token bucket decides who launches.
    HEDGE = HedgeConfig(check_interval=0.2e-3, budget_fraction=1.0)
    GRAY = FaultPlan.gray(
        0, kind=FaultKind.SMX_SLOWDOWN, start=0.0, duration=1.0, factor=4.0
    )

    def test_generous_budget_still_hedges_and_accounts(self):
        result = run(
            plan=self.GRAY,
            hedging=self.HEDGE,
            retry_budget=RetryBudgetConfig(rate=1e4, burst=16.0),
        )
        unbudgeted = run(plan=self.GRAY, hedging=self.HEDGE)
        assert result.hedges_launched == unbudgeted.hedges_launched == 2
        # Each launch spent a token from the shared bucket.
        assert result.retry_budget_granted == 2
        assert result.retry_budget_denied == 0

    def test_exhausted_budget_suppresses_hedges_truthfully(self):
        # One burst token, two stragglers: the first hedge spends it and
        # the second is denied by the same bucket — and keeps getting
        # denied on every later scan tick, never silently launched.
        result = run(plan=self.GRAY, hedging=self.HEDGE, retry_budget=EXHAUSTED)
        assert result.hedges_launched == 1
        assert result.retry_budget_granted == 1
        assert result.retry_budget_denied >= 1
        # Telemetry stays truthful: only the launched hedge duplicated
        # work, and every record still finishes.
        launched = {e["app"] for e in result.hedge_events}
        assert len(launched) == 1
        assert result.completed == NUM_APPS


class TestBrownoutInHarness:
    def test_miscalibrated_capacity_trips_the_ladder(self):
        # per_device_rate far above anything the fleet can produce: every
        # window reads as collapse, so the ladder must climb to its cap
        # and the windows past the trip budget count as metastable.
        result = run(
            brownout=BrownoutConfig(
                window=2e-4,
                trip_windows=1,
                per_device_rate=1e9,
                max_level=1,
            )
        )
        assert result.brownout_level == 1
        assert [e["level"] for e in result.brownout_events][:1] == [1]
        assert result.metastable_windows > 0
        assert len(result.goodput_windows) > 0
        assert result.completed == NUM_APPS

    def test_level_two_sheds_configured_classes_at_readmission(self):
        # Ladder reaches level 2 once kernels start completing; device 0
        # dies after that, and its (gaussian) apps are shed at the
        # failover re-admission point instead of migrating.
        plan = FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, 3e-3, device=0)])
        result = run(
            plan=plan,
            brownout=BrownoutConfig(
                window=1e-4,
                trip_windows=1,
                per_device_rate=1e9,
                max_level=2,
                shed_types=("gaussian",),
            ),
        )
        assert result.brownout_level == 2
        shed = [r for r in result.records if r.outcome == "shed-brownout"]
        assert len(shed) == 2
        assert all(r.type_name == "gaussian" for r in shed)
        assert all(r.failed for r in shed)
        assert result.completed + result.failed == NUM_APPS

    def test_tripped_ladder_stands_hedging_down(self):
        # The gray plan that makes two stragglers hedge-eligible.  The
        # ladder trips before the scan would first launch, so with the
        # brownout on no hedge ever launches.
        gray = TestHedgesSpendTheBudget
        plain = run(plan=gray.GRAY, hedging=gray.HEDGE)
        result = run(
            plan=gray.GRAY,
            hedging=gray.HEDGE,
            brownout=BrownoutConfig(
                window=1e-4,
                trip_windows=1,
                per_device_rate=1e9,
                max_level=1,
            ),
        )
        assert plain.hedges_launched == 2
        tripped = result.brownout_events[0]
        assert tripped["level"] == 1
        assert tripped["t"] < plain.hedge_events[0]["t"]
        assert result.brownout_level == 1
        assert result.hedges_launched == 0
        assert result.hedge_events == []

    def test_observational_probe_records_but_never_trips(self):
        result = run(
            brownout=BrownoutConfig(window=2e-4, per_device_rate=0.0)
        )
        assert result.brownout_level == 0
        assert result.brownout_events == []
        assert result.metastable_windows == 0
        assert result.completed == NUM_APPS
        assert all(w["ratio"] == 1.0 for w in result.goodput_windows)


class TestContainmentIdleIsInvisible:
    def test_full_stack_idle_byte_identical(self):
        plain = run()
        armed = run(
            topology=TopologyConfig(rails=2),
            storm=StormControlConfig(),
            retry_budget=RetryBudgetConfig(),
            retry_backoff=RetryPolicy(mode="full"),
            shed_unfinishable=True,
        )
        key = lambda r: (r.app_id, r.outcome, r.device_index, r.complete_time)
        assert [key(r) for r in armed.records] == [
            key(r) for r in plain.records
        ]
        assert armed.makespan == plain.makespan
        assert armed.energy == plain.energy
        assert armed.storm_queued == 0
        assert armed.retry_budget_granted == 0
        assert armed.shed_apps == 0
