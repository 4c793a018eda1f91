"""Instrumentation contract: free when off, truthful when on.

Two halves, mirroring the ISSUE acceptance criteria:

* **Zero cost disabled** — every layer entry point with a ``telemetry``
  parameter must produce *identical* results with ``telemetry=None`` and
  with a live :class:`~repro.telemetry.Telemetry` (probes read, never
  mutate).  The host-time half of that bargain (<2% overhead) lives in
  ``benchmarks/bench_observer_overhead.py``.
* **Metric correctness** — exported final counter values must equal the
  ground truth the result objects already report (transfers, outcomes,
  recoveries), not merely move in the right direction.
"""

import pytest

from repro.apps.registry import get_app
from repro.core.runner import quick_run
from repro.fleet import FleetConfig, FleetHarness
from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.serving import (
    BreakerConfig,
    ConcurrencyCapDispatcher,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)
from repro.sim.engine import Environment
from repro.telemetry import Telemetry
from repro.telemetry.probes import instrument_device

pytestmark = pytest.mark.telemetry

#: Dense sampling relative to tiny-scale (sub-10ms) runs.
INTERVAL = 2e-5

MIX = [("gaussian", 1), ("nn", 1)]


def _sum_series(snapshot, name):
    """Sum a metric's labelled series out of a flat snapshot dict."""
    return sum(
        v
        for k, v in snapshot.items()
        if k == name or k.startswith(name + "{")
    )


def pair_run(telemetry=None):
    return quick_run(
        pair=("gaussian", "needle"),
        num_apps=4,
        num_streams=4,
        memory_sync=True,
        telemetry=telemetry,
    )


def serving_run(telemetry=None):
    config = ServingConfig(
        queue_depth=4,
        queue_policy="shed-oldest",
        slo_factor=4.0,
        breaker=BreakerConfig(threshold=2, cooldown=0.01),
        seed=3,
    )
    arrivals = poisson_arrivals(1500.0, 0.02, MIX, seed=3)
    return run_serving(
        arrivals,
        ConcurrencyCapDispatcher(2),
        config,
        num_streams=8,
        telemetry=telemetry,
    )


def _apps(count=6):
    kinds = ("gaussian", "needle")
    sizes = {"gaussian": {"n": 48}, "needle": {"n": 64}}
    return [
        get_app(kinds[i % 2], instance=i, **sizes[kinds[i % 2]])
        for i in range(count)
    ]


def fleet_run(telemetry=None, plan=None):
    fleet = FleetConfig(
        num_devices=2,
        heartbeat_interval=2e-5,
        detection_latency=5e-5,
        detection_jitter=1e-5,
    )
    return FleetHarness(
        _apps(), fleet, num_streams=2, seed=0, plan=plan, telemetry=telemetry
    ).run()


def _loss_plan():
    """A DEVICE_LOSS pinned mid-schedule from a clean calibration run."""
    clean = fleet_run()
    return FaultPlan(
        [FaultSpec(FaultKind.DEVICE_LOSS, clean.makespan / 2, device=0)]
    )


class TestZeroCostDisabled:
    """Same seed, telemetry on vs off => identical simulation results."""

    def test_runner_results_identical(self):
        clean = pair_run()
        hooked = pair_run(telemetry=Telemetry(interval=INTERVAL))
        assert hooked.makespan == clean.makespan
        assert hooked.energy == clean.energy
        assert [r.complete_time for r in hooked.harness.records] == [
            r.complete_time for r in clean.harness.records
        ]
        assert [
            (t.started, t.completed)
            for r in hooked.harness.records
            for t in r.transfers
        ] == [
            (t.started, t.completed)
            for r in clean.harness.records
            for t in r.transfers
        ]

    def test_serving_results_identical(self):
        clean = serving_run()
        hooked = serving_run(telemetry=Telemetry(interval=INTERVAL))
        assert hooked.completion_time == clean.completion_time
        assert hooked.energy == clean.energy
        assert hooked.outcomes == clean.outcomes
        assert hooked.sojourn_times == clean.sojourn_times
        assert hooked.queue_delays == clean.queue_delays
        assert hooked.deadline_met == clean.deadline_met

    def test_fleet_failover_results_identical(self):
        plan = _loss_plan()
        clean = fleet_run(plan=plan)
        hooked = fleet_run(telemetry=Telemetry(interval=INTERVAL), plan=plan)
        assert hooked.makespan == clean.makespan
        assert hooked.energy == clean.energy
        assert hooked.recoveries == clean.recoveries
        assert [r.complete_time for r in hooked.records] == [
            r.complete_time for r in clean.records
        ]


class TestRunnerMetricsTruthful:
    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry(interval=INTERVAL)
        result = pair_run(telemetry=telemetry)
        return result, telemetry.snapshots[-1].values

    def test_dma_commands_match_recorded_transfers(self, run):
        result, final = run
        for direction in CopyDirection:
            expected = sum(
                1
                for r in result.harness.records
                for t in r.transfers
                if t.direction is direction
            )
            key = (
                'repro_gpu_dma_commands_total'
                f'{{device="0",direction="{direction.value}"}}'
            )
            assert final[key] == expected

    def test_dma_bytes_match_recorded_transfers(self, run):
        result, final = run
        expected = sum(
            t.nbytes for r in result.harness.records for t in r.transfers
        )
        assert _sum_series(final, "repro_gpu_dma_bytes_total") == expected

    def test_all_commands_flow_through_hyperq(self, run):
        _, final = run
        issued = _sum_series(final, "repro_gpu_commands_issued_total")
        assert issued > 0
        assert issued == _sum_series(final, "repro_gpu_hyperq_commands_total")

    def test_sim_engine_counters_alive(self, run):
        _, final = run
        assert final["repro_sim_events_total"] > 0
        assert final["repro_sim_calendar_depth"] >= 0

    def test_grids_completed_positive(self, run):
        _, final = run
        assert _sum_series(final, "repro_gpu_grids_completed_total") > 0


class TestDeviceGaugesTruthful:
    def test_hyperq_queues_in_use_counts_streams_with_work(self):
        env = Environment()
        device = GPUDevice(env)
        telemetry = Telemetry(interval=INTERVAL)
        telemetry.attach(env)
        instrument_device(telemetry, device)
        streams = [device.create_stream() for _ in range(3)]
        name = "repro_gpu_hyperq_queues_in_use"
        # Created streams map to no hardware queue until they enqueue.
        assert _sum_series(telemetry.sampler.sample_now().values, name) == 0
        streams[1].enqueue_kernel(KernelDescriptor("k", Dim3(1), Dim3(32)))
        assert _sum_series(telemetry.sampler.sample_now().values, name) == 1


class TestServingMetricsTruthful:
    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry(interval=INTERVAL)
        result = serving_run(telemetry=telemetry)
        return result, telemetry.snapshots[-1].values

    def test_outcome_counter_matches_result(self, run):
        result, final = run
        for outcome, count in result.outcomes.items():
            key = f'repro_serving_outcomes_total{{outcome="{outcome}"}}'
            assert final[key] == count
        assert _sum_series(final, "repro_serving_outcomes_total") == sum(
            result.outcomes.values()
        )

    def test_goodput_counter_counts_on_time_completions(self, run):
        result, final = run
        assert final["repro_serving_goodput_jobs_total"] == result.outcomes.get(
            "completed", 0
        )

    def test_sojourn_histogram_counts_ran_jobs(self, run):
        result, final = run
        ran = sum(1 for r in result.records if r.ran)
        assert final["repro_serving_sojourn_seconds_count"] == ran


class TestFleetMetricsTruthful:
    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry(interval=INTERVAL)
        result = fleet_run(telemetry=telemetry, plan=_loss_plan())
        return result, telemetry.snapshots[-1].values

    def test_failover_counter_matches_recoveries(self, run):
        result, final = run
        assert result.recoveries, "loss plan must trigger a failover"
        assert final["repro_fleet_failovers_total"] == len(result.recoveries)

    def test_migrated_apps_counter_matches_recoveries(self, run):
        result, final = run
        expected = sum(len(rec["apps"]) for rec in result.recoveries)
        assert final["repro_fleet_migrated_apps_total"] == expected

    def test_lost_device_health_is_zero(self, run):
        result, final = run
        assert result.devices[0].state == "lost"
        assert final['repro_fleet_device_health{device="0"}'] == 0.0
        assert final['repro_fleet_device_health{device="1"}'] == 2.0

    def test_heartbeats_flow(self, run):
        _, final = run
        assert final["repro_fleet_heartbeats_total"] > 0
        assert (
            _sum_series(final, "repro_fleet_health_transitions_total") >= 1
        )

    def test_failover_duration_histogram_observed(self, run):
        result, final = run
        assert final["repro_fleet_failover_duration_seconds_count"] == len(
            [r for r in result.recoveries if r.get("resumed") is not None]
        )


class TestHedgingMetricsTruthful:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.fleet import HedgeConfig

        fleet = FleetConfig(
            num_devices=2,
            heartbeat_interval=2e-5,
            detection_latency=5e-5,
            detection_jitter=1e-5,
            seed=7,
            hedging=HedgeConfig(check_interval=0.2e-3, budget_fraction=0.5),
        )
        plan = FaultPlan.gray(
            0, kind=FaultKind.SMX_SLOWDOWN, start=0.0, duration=1.0, factor=4.0
        )
        telemetry = Telemetry(interval=INTERVAL)
        result = FleetHarness(
            _apps(4), fleet, plan=plan, telemetry=telemetry
        ).run()
        return result, telemetry.snapshots[-1].values

    def test_hedge_counters_match_result(self, run):
        result, final = run
        assert result.hedges_launched > 0
        assert final["repro_fleet_hedges_total"] == result.hedges_launched
        assert final["repro_fleet_hedge_wins_total"] == result.hedge_wins
        assert (
            final["repro_fleet_duplicate_kernels_total"]
            == result.duplicate_kernels
        )

    def test_straggler_health_score_gauge(self, run):
        _, final = run
        assert final['repro_fleet_health_score{device="0"}'] < 0.5
        assert final['repro_fleet_health_score{device="1"}'] > 0.9

    def test_results_identical_with_telemetry(self, run):
        result, _ = run
        from repro.fleet import HedgeConfig

        fleet = FleetConfig(
            num_devices=2,
            heartbeat_interval=2e-5,
            detection_latency=5e-5,
            detection_jitter=1e-5,
            seed=7,
            hedging=HedgeConfig(check_interval=0.2e-3, budget_fraction=0.5),
        )
        plan = FaultPlan.gray(
            0, kind=FaultKind.SMX_SLOWDOWN, start=0.0, duration=1.0, factor=4.0
        )
        clean = FleetHarness(_apps(4), fleet, plan=plan).run()
        assert clean.makespan == result.makespan
        assert clean.hedge_events == result.hedge_events
        assert [r.complete_time for r in clean.records] == [
            r.complete_time for r in result.records
        ]
