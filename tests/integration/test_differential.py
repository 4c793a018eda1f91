"""Differential test: the code paths that should agree, run against each other.

(a) One closed app set through :class:`TestHarness`, a one-device
    :class:`FleetHarness` and :func:`run_serving` with every arrival due
    at t=0.  Each app issues the same kernels and the same copies in all
    three, and all three complete every app.  Timing is deliberately not
    compared, for two known reasons:

    * the fleet thread synchronizes its stream at every phase boundary,
      because that boundary is its checkpoint;
    * serving prepares each arrival in its own host process, not one
      after another up front as the harness does.

(b) One batch through :func:`run_batched_serving` equals a
    :class:`TestHarness` run with that batch's decision (launch order,
    stream count, memory mode): records, makespan and energy.

(c) The same arrivals through :func:`run_serving` as a list and as an
    iterator with a sink give the same per-arrival outcomes and times,
    completion time, energy and peak power, under every queue policy,
    front-door shedding, and per-arrival deadlines with baselines.
"""

import dataclasses

import pytest

from repro.core.workload import Workload
from repro.fleet import FleetConfig, FleetHarness
from repro.framework.harness import HarnessConfig, TestHarness
from repro.serving import (
    Arrival,
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    ServingConfig,
    measure_service_baselines,
    poisson_arrivals,
    run_batched_serving,
    run_serving,
)
from repro.workload import TrafficStats

SCALE = "tiny"
NUM_STREAMS = 8
HOT = [("gaussian", 1), ("nn", 1)]


def command_trace(records):
    """app_id -> (kernel (name, blocks) list, copy (dir, bytes, buffer) list)."""
    return {
        r.app_id: (
            [(k.name, k.num_blocks) for k in r.kernels],
            [(t.direction, t.nbytes, t.buffer) for t in r.transfers],
        )
        for r in records
    }


class TestClosedSetAgreesAcrossEngines:
    """(a) harness, one-device fleet and serving issue the same commands."""

    @pytest.fixture(scope="class")
    def runs(self):
        workload = Workload.heterogeneous_pair("gaussian", "needle", 8, scale=SCALE)
        harness = TestHarness(
            HarnessConfig(
                apps=workload.instantiate(),
                num_streams=NUM_STREAMS,
                memory_sync=False,
            )
        ).run()
        fleet = FleetHarness(
            workload.instantiate(),
            FleetConfig(num_devices=1, failover=False),
            num_streams=NUM_STREAMS,
            memory_sync=False,
        ).run()
        arrivals = [
            Arrival(index=i, time=0.0, type_name=name)
            for i, name in enumerate(workload.types)
        ]
        served = run_serving(
            arrivals,
            GreedyDispatcher(),
            num_streams=NUM_STREAMS,
            memory_sync=False,
            scale=SCALE,
        )
        return harness, fleet, served

    def test_every_app_completes_everywhere(self, runs):
        harness, fleet, served = runs
        assert len(harness.records) == 8 and all(r.ran for r in harness.records)
        assert fleet.completed == 8 and fleet.failed == 0
        assert served.outcomes == {"completed": 8}

    def test_same_commands_per_app(self, runs):
        harness, fleet, served = runs
        expected = command_trace(harness.records)
        assert len(expected) == 8
        assert all(kernels and copies for kernels, copies in expected.values())
        assert command_trace(fleet.records) == expected
        assert command_trace(served.records) == expected


class TestBatchedServingIsTheHarness:
    """(b) a batched-serving batch is a harness run with its decision."""

    def test_one_batch_equals_harness_run(self):
        spec = [("gaussian", 2), ("needle", 2)]
        batched = run_batched_serving([spec], policy="bandit", scale=SCALE)
        (batch,) = batched.batches
        decision = batch.decision
        result = TestHarness(
            HarnessConfig(
                apps=Workload.mixed(spec, scale=SCALE).instantiate(
                    decision.schedule
                ),
                num_streams=decision.num_streams,
                memory_sync=decision.memory_sync,
                order_label=decision.order_label,
            )
        ).run()
        assert [repr(r) for r in batch.records] == [repr(r) for r in result.records]
        assert batch.makespan == result.makespan
        assert batch.energy == result.energy


class RecordingStats(TrafficStats):
    """A sink that also keeps each settled arrival's outcome and times."""

    def __init__(self):
        super().__init__()
        self.settled = []

    def settle(self, record, arrival_time):
        super().settle(record, arrival_time)
        self.settled.append(
            (record.launch_index, record.outcome, record.spawn_time,
             record.complete_time)
        )


def list_and_stream(arrivals, config, front_door=False):
    """Run ``arrivals`` list-fed and iterator-fed; return both summaries."""
    kwargs = dict(num_streams=NUM_STREAMS, scale=SCALE, front_door=front_door)
    listed = run_serving(
        arrivals, ConcurrencyCapDispatcher(2), config, **kwargs
    )
    sink = RecordingStats()
    streamed = run_serving(
        iter(arrivals), ConcurrencyCapDispatcher(2), config, sink=sink,
        **kwargs,
    )
    per_arrival = sorted(
        (r.launch_index, r.outcome, r.spawn_time, r.complete_time)
        for r in listed.records
    )
    return [
        (per_arrival, listed.completion_time, listed.energy, listed.peak_power),
        (sorted(sink.settled), streamed.completion_time, streamed.energy,
         streamed.peak_power),
    ]


class TestListAndStreamAgree:
    """(c) a list and an iterator of the same arrivals serve alike."""

    @pytest.mark.parametrize("policy", ["block", "reject", "shed-oldest"])
    def test_queue_policies(self, policy):
        arrivals = poisson_arrivals(3000.0, 0.02, HOT, seed=11)
        config = ServingConfig(queue_depth=3, queue_policy=policy)
        listed, streamed = list_and_stream(arrivals, config)
        assert listed == streamed

    def test_front_door(self):
        arrivals = poisson_arrivals(6000.0, 0.01, HOT, seed=4)
        config = ServingConfig(queue_depth=2, queue_policy="reject")
        listed, streamed = list_and_stream(arrivals, config, front_door=True)
        assert listed == streamed
        assert any(outcome == "shed-reject" for _, outcome, _, _ in listed[0])

    def test_per_arrival_deadlines_with_baselines(self):
        baselines = measure_service_baselines(["gaussian", "nn"], scale=SCALE)
        arrivals = [
            dataclasses.replace(
                a, deadline=a.time + 1.5 * baselines[a.type_name]
            )
            for a in poisson_arrivals(4000.0, 0.01, HOT, seed=3)
        ]
        config = ServingConfig(
            baseline_runtimes=tuple(sorted(baselines.items())),
            shed_unreachable=True,
            seed=3,
        )
        listed, streamed = list_and_stream(arrivals, config)
        assert listed == streamed
        assert any(outcome == "shed-deadline" for _, outcome, _, _ in listed[0])
