"""Pinned outputs of the multi-device fleet harness.

A fixed matrix of :class:`~repro.fleet.FleetHarness` cells, one sha1
each, over everything a run reports: every record, the per-device
summaries, health events, recoveries and every counter and event list
of :class:`~repro.fleet.FleetResult`.  A journaled cell adds the journal
bytes; an observed cell adds its causal spans and telemetry series.

Each cell first asserts that the feature it pins fired (a migration, a
hedge, a queued migration, a shed, a budget denial), so no pin holds a
run in which nothing happened.  Across the cells: a mid-run loss with
and without checkpoints or failover, hedging against a gray slowdown
and a throttle (one with a retry budget), a rail blast under topology,
storm pacing and a level-2 brownout, the containment stack with
deadlines and the same blast without it, fault retries under backoff
and a budget, three observed cells and three journaled ones.  The
``contained-journal`` cell sets every :class:`~repro.fleet.FleetConfig`
section and ``shed_unfinishable``, so its journal header pins the
configuration fingerprint; ``start-order-journal`` lands a loss
declaration and a brownout step on one instant, so its journal pins the
order in which the pollers start.

Run as a script to print the digest of every cell::

    PYTHONPATH=src python -m tests.fleet.test_pinned_fleet
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.fleet import (
    FleetHarness,
    HedgeConfig,
    StormControlConfig,
    TopologyConfig,
)
from repro.fleet.topology import FleetTopology
from repro.resilience import BrownoutConfig, RetryBudgetConfig
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.telemetry import Telemetry, Tracing

from .conftest import fast_fleet, make_apps

pytestmark = pytest.mark.fleet

#: Every scalar counter of FleetResult, in declaration order.
COUNTERS = (
    "makespan",
    "total_time",
    "energy",
    "average_power",
    "peak_power",
    "checkpoints",
    "recovered_entries",
    "resumed",
    "fence_advances",
    "stale_writes_rejected",
    "hedges_launched",
    "hedge_wins",
    "duplicate_kernels",
    "storm_queued",
    "storm_released",
    "storm_failed",
    "storm_peak_depth",
    "retry_budget_granted",
    "retry_budget_denied",
    "metastable_windows",
    "brownout_level",
)

#: Mid-GPU-section loss of device 0 in the 4-device, 8-app schedule.
LOSS = FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, 5.6e-3, device=0)])

#: Sustained 4x slowdowns of device 0 for the whole 2-device run.
GRAY = FaultPlan.gray(
    0, kind=FaultKind.SMX_SLOWDOWN, start=0.0, duration=1.0, factor=4.0
)
THROTTLE = FaultPlan(
    [FaultSpec(FaultKind.DEVICE_THROTTLE, 0.0, duration=1.0, factor=4.0, device=0)]
)
HEDGE = HedgeConfig(check_interval=0.2e-3, budget_fraction=0.5)

#: Two transient launch failures on device 0, a retry apart.
FLAKY = FaultPlan(
    [
        FaultSpec(FaultKind.LAUNCH_FAIL, 1e-4, device=0),
        FaultSpec(FaultKind.LAUNCH_FAIL, 3e-3, device=0),
    ]
)

#: A bucket that never meaningfully refills: one retry, then denial.
EXHAUSTED = RetryBudgetConfig(rate=1e-6, burst=1.0, shared=True)
FULL_JITTER = RetryPolicy(base_delay=2e-4, mode="full")

TOPOLOGY = TopologyConfig(rails=2)
STORM = StormControlConfig(max_inflight_per_device=1, pace_interval=2e-4)

#: A deadline every app meets fault-free and the blast's migrants miss.
DEADLINES = {
    app.app_id: 6.3e-3 for app in make_apps(8)
}


def blast(at):
    """Rail 0 (devices 0 and 1) collapsing over 0.1 ms from ``at``."""
    return FaultPlan.correlated(
        FleetTopology(4, TOPOLOGY).members("rail", 0),
        kind=FaultKind.DEVICE_LOSS,
        time=at,
        skew=1e-4,
        seed=7,
    )


def containment(**overrides):
    """The containment stack: every section but hedging, plus shedding."""
    sections = dict(
        topology=TOPOLOGY,
        storm=STORM,
        retry_budget=EXHAUSTED,
        retry_backoff=FULL_JITTER,
        brownout=BrownoutConfig(
            window=2e-4, trip_windows=2, per_device_rate=2e4, max_level=2
        ),
        shed_unfinishable=True,
    )
    sections.update(overrides)
    return sections


def digest(result, extra=()):
    """sha1 over one run's reported outputs plus ``extra`` items."""
    h = hashlib.sha1()
    for record in result.records:
        h.update(repr(record).encode())
    for device in result.devices:
        h.update(repr(device).encode())
    h.update(repr(result.health_events).encode())
    h.update(repr(result.recoveries).encode())
    h.update(repr(tuple(getattr(result, name) for name in COUNTERS)).encode())
    h.update(repr(result.hedge_events).encode())
    h.update(repr(result.brownout_events).encode())
    h.update(repr(result.goodput_windows).encode())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def fleet_run(devices=4, apps=8, streams=2, seed=0, **kwargs):
    """Run one cell's fleet; FleetConfig keywords go in ``fleet``."""
    fleet = fast_fleet(num_devices=devices, seed=seed, **kwargs.pop("fleet", {}))
    return FleetHarness(
        make_apps(apps), fleet, num_streams=streams, seed=seed, **kwargs
    ).run()


def observed(run, **kwargs):
    """Run with telemetry and tracing attached; digest their output too."""
    telemetry = Telemetry(interval=2e-4)
    tracing = Tracing(seed=3)
    result = run(telemetry=telemetry, tracing=tracing, **kwargs)
    spans = [span.as_dict() for span in tracing.spans]
    series = [
        (snap.time, sorted(snap.values.items()))
        for snap in telemetry.snapshots
    ]
    assert spans and series
    return result, [spans, series]


def journaled(run, **kwargs):
    """Run with a journal attached; digest its bytes too."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.jsonl"
        result = run(journal_path=path, **kwargs)
        data = path.read_bytes()
    assert data
    return result, [hashlib.sha1(data).hexdigest()]


def outcomes(result):
    return {r.outcome for r in result.records}


# -- device loss ------------------------------------------------------------


def run_loss(**kwargs):
    return fleet_run(plan=LOSS, **kwargs)


def cell_loss():
    result = run_loss()
    assert result.migrations > 0 and result.completed == 8
    return digest(result)


def cell_loss_no_checkpoint():
    result = run_loss(fleet=dict(checkpoint=False))
    assert result.migrations > 0 and result.reexecuted_kernels > 0
    return digest(result)


def cell_loss_no_failover():
    result = run_loss(fleet=dict(failover=False))
    assert "device-lost" in outcomes(result)
    return digest(result)


def cell_loss_observed():
    result, extra = observed(run_loss)
    assert result.migrations > 0
    return digest(result, extra)


# -- gray failure -----------------------------------------------------------


def run_hedged(plan=GRAY, **fleet):
    fleet.setdefault("hedging", HEDGE)
    return lambda **kwargs: fleet_run(
        devices=2, apps=4, streams=4, seed=7, plan=plan, fleet=fleet, **kwargs
    )


def cell_hedged():
    result = run_hedged()()
    assert result.hedges_launched > 0 and result.hedge_wins > 0
    return digest(result)


def cell_hedged_budget():
    result = run_hedged(
        hedging=HedgeConfig(check_interval=0.2e-3, budget_fraction=1.0),
        retry_budget=EXHAUSTED,
    )()
    assert result.hedges_launched > 0 and result.retry_budget_denied > 0
    return digest(result)


def cell_throttle_hedged():
    result = run_hedged(plan=THROTTLE)()
    assert result.hedges_launched > 0
    return digest(result)


def cell_hedged_observed():
    result, extra = observed(run_hedged())
    assert result.hedges_launched > 0
    return digest(result, extra)


# -- correlated loss and containment ----------------------------------------


def run_cascade(**kwargs):
    fleet = dict(
        topology=TOPOLOGY,
        storm=STORM,
        brownout=BrownoutConfig(
            window=1e-4,
            trip_windows=1,
            per_device_rate=1e9,
            max_level=2,
            shed_types=("gaussian",),
        ),
    )
    return fleet_run(plan=blast(5.3e-3), fleet=fleet, **kwargs)


def check_cascade(result):
    assert result.storm_queued > 0 and result.brownout_level == 2
    assert "shed-brownout" in outcomes(result)


def cell_cascade():
    result = run_cascade()
    check_cascade(result)
    return digest(result)


def cell_cascade_journal():
    result, extra = journaled(run_cascade)
    check_cascade(result)
    return digest(result, extra)


def run_contained(**kwargs):
    fleet = containment(**kwargs.pop("fleet", {}))
    return fleet_run(
        plan=blast(5.5e-3), deadlines=DEADLINES, fleet=fleet, **kwargs
    )


def check_contained(result):
    assert result.storm_queued > 0 and result.brownout_level > 0
    assert "shed-deadline" in outcomes(result)


def cell_contained():
    result = run_contained()
    check_contained(result)
    return digest(result)


def cell_contained_observed():
    result, extra = observed(run_contained)
    check_contained(result)
    return digest(result, extra)


def cell_contained_journal():
    result, extra = journaled(run_contained, fleet=dict(hedging=HEDGE))
    check_contained(result)
    return digest(result, extra)


def run_start_order(**kwargs):
    # Heartbeat, pacer and probe share one interval, so their ticks fall
    # on the same instants.  The rail is lost before the pollers start,
    # so the first health tick declares it while the first window trips
    # the ladder: the journal's record order is the pollers' start order.
    fleet = dict(
        heartbeat_interval=1e-4,
        topology=TOPOLOGY,
        storm=StormControlConfig(max_inflight_per_device=1, pace_interval=1e-4),
        brownout=BrownoutConfig(
            window=1e-4,
            trip_windows=1,
            per_device_rate=1e9,
            max_level=2,
            shed_types=("gaussian",),
        ),
    )
    return fleet_run(plan=blast(1e-3), fleet=fleet, **kwargs)


def cell_start_order_journal():
    result, extra = journaled(run_start_order)
    lost = {e.time for e in result.health_events if e.new_state == "lost"}
    assert len(lost) == 1 and result.storm_queued > 0
    assert result.brownout_events[0]["t"] in lost
    return digest(result, extra)


def cell_uncontained():
    result = fleet_run(plan=blast(5.5e-3), deadlines=DEADLINES)
    assert "deadline-missed" in outcomes(result)
    assert sum(r.retries for r in result.records) > 0
    return digest(result)


def cell_fault_retries():
    result = fleet_run(
        devices=2,
        apps=4,
        seed=7,
        plan=FLAKY,
        fleet=dict(retry_budget=EXHAUSTED, retry_backoff=FULL_JITTER),
    )
    assert sum(r.retries for r in result.records) > 0
    assert "retry-budget" in outcomes(result)
    return digest(result)


CELLS = {
    "loss": cell_loss,
    "loss-no-checkpoint": cell_loss_no_checkpoint,
    "loss-no-failover": cell_loss_no_failover,
    "loss-observed": cell_loss_observed,
    "hedged": cell_hedged,
    "hedged-budget": cell_hedged_budget,
    "throttle-hedged": cell_throttle_hedged,
    "hedged-observed": cell_hedged_observed,
    "cascade": cell_cascade,
    "cascade-journal": cell_cascade_journal,
    "contained": cell_contained,
    "contained-observed": cell_contained_observed,
    "contained-journal": cell_contained_journal,
    "start-order-journal": cell_start_order_journal,
    "uncontained": cell_uncontained,
    "fault-retries": cell_fault_retries,
}

#: sha1 per cell, computed before the fleet harness was split into
#: stages; a refactor must not move any of them.
PINNED = {
    'loss': 'e9c77ff5f9cdb13d1fc21ce36deaa39cea790f6e',
    'loss-no-checkpoint': 'fabdab87580dc873b078098e60b2462449a2b2d8',
    'loss-no-failover': 'e81e17be123e020aba06d5144cb6f31464c64fb4',
    'loss-observed': '845d6f309f10e8aa6d369a14a0fbee433792fb89',
    'hedged': '228cd16dd9fca54218d2e41fc3793ecf64a4955e',
    'hedged-budget': 'cf50b61028d0dc1396208a6b6b5d84e3681f59a3',
    'throttle-hedged': '00b67f066a70fdf86bedea17ecf49849577bfc97',
    'hedged-observed': '548bc084dbf828d48931d7e01e0830014368b1a6',
    'cascade': '8f36508ffc5ef529c93618c1bf28112de6ca77be',
    'cascade-journal': '5cdddf58bdc2f84a0dabd159b7dac34d7cccd196',
    'contained': 'e4b0178632380b29afc326dfef1be6e11b11e8e3',
    'contained-observed': '9f098041dc81644499f67fbd13a918d9cc250361',
    'contained-journal': 'f0fce3e09052f5d1ca0afb0c27a19d187d1c200d',
    'start-order-journal': '68db72095b44046cf9fa53c99c0b2bc47302affe',
    'uncontained': '7d75d3f04a9a07738052a3fd5fdd521807efb8bf',
    'fault-retries': 'fa7d1264c489b17aaaf050fc937baf13cd6955e7',
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_fleet_cell(name):
    assert CELLS[name]() == PINNED[name]


if __name__ == "__main__":
    for name, cell in CELLS.items():
        print(f"    {name!r}: {cell()!r},")
