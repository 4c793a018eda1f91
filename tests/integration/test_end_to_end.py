"""End-to-end shape assertions mirroring the paper's conclusions.

These run at ``small`` scale (seconds, not minutes) and assert the
*qualitative* findings; quantitative paper-scale numbers are produced by
the benchmark suite.
"""

import pytest

from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.gpu.commands import CopyDirection
from repro.scheduling.orders import SchedulingOrder, all_orders


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


def pair_workload(x="nn", y="needle", total=8):
    return Workload.heterogeneous_pair(x, y, total, scale="small")


class TestConcurrencyClaims:
    """Section V-A: Hyper-Q concurrency beats serialized execution."""

    def test_concurrent_beats_serial(self, runner):
        wl = pair_workload()
        serial = runner.run_serial(wl)
        full = runner.run(RunConfig(workload=wl, num_streams=8))
        assert full.improvement_over(serial) > 10.0

    def test_improvement_grows_with_streams(self, runner):
        wl = pair_workload(total=8)
        spans = {}
        for ns in (1, 2, 4, 8):
            spans[ns] = runner.run(RunConfig(workload=wl, num_streams=ns)).makespan
        assert spans[8] < spans[2] < spans[1]

    def test_oversubscribed_concurrent_no_worse_than_serial(self, runner):
        """LEFTOVER 'does no worse than serialization' (Section III-A)."""
        wl = Workload.homogeneous("srad", 8, scale="small")  # device-filling
        serial = runner.run_serial(wl)
        conc = runner.run(RunConfig(workload=wl, num_streams=8))
        assert conc.makespan <= serial.makespan * 1.02


class TestMemorySyncClaims:
    """Section V-B: the transfer mutex restores expected latency and helps
    (or at least does not hurt) end-to-end performance."""

    def test_sync_restores_effective_latency(self, runner):
        wl = pair_workload(total=8)
        default = runner.run(RunConfig(workload=wl, num_streams=8))
        synced = runner.run(
            RunConfig(workload=wl, num_streams=8, memory_sync=True)
        )
        le_default = default.harness.effective_latency()
        le_sync = synced.harness.effective_latency()
        assert le_default > 1.5 * le_sync

    def test_sync_does_not_degrade_makespan_materially(self, runner):
        wl = pair_workload(total=8)
        default = runner.run(RunConfig(workload=wl, num_streams=8))
        synced = runner.run(
            RunConfig(workload=wl, num_streams=8, memory_sync=True)
        )
        assert synced.makespan <= default.makespan * 1.10

    def test_dtoh_unaffected_by_htod_mutex(self, runner):
        """The mutex only serializes the HtoD stage."""
        wl = pair_workload(total=4)
        synced = runner.run(
            RunConfig(workload=wl, num_streams=4, memory_sync=True)
        )
        for rec in synced.harness.records:
            assert rec.transfer_events(CopyDirection.DTOH)


class TestOrderingClaims:
    """Section V-C: launch order affects concurrent performance."""

    def test_orders_produce_distinct_makespans(self, runner):
        wl = pair_workload(total=8)
        spans = {
            order: runner.run(
                RunConfig(workload=wl, num_streams=8, order=order,
                          memory_sync=True)
            ).makespan
            for order in all_orders()
        }
        assert len({round(v, 9) for v in spans.values()}) > 1

    def test_reverse_orders_change_first_launch(self, runner):
        wl = pair_workload(total=4)
        fifo = runner.run(RunConfig(workload=wl, num_streams=4))
        rev = runner.run(
            RunConfig(workload=wl, num_streams=4,
                      order=SchedulingOrder.REVERSE_FIFO)
        )
        first = lambda r: min(
            r.harness.records, key=lambda rec: rec.launch_index
        ).type_name
        assert first(fifo) != first(rev)


class TestEnergyClaims:
    """Section V-D: concurrency reduces energy despite higher power."""

    def test_energy_improves_with_concurrency(self, runner):
        wl = pair_workload(total=8)
        serial = runner.run_serial(wl)
        full = runner.run(RunConfig(workload=wl, num_streams=8))
        assert full.energy < serial.energy

    def test_average_power_rises_with_concurrency(self, runner):
        """Power is higher while concurrent — energy wins only through
        shorter makespan (i.e. the GPU is not energy proportional)."""
        wl = pair_workload(total=8)
        serial = runner.run_serial(wl)
        full = runner.run(RunConfig(workload=wl, num_streams=8))
        assert full.average_power > serial.average_power

    def test_energy_improvement_below_time_improvement(self, runner):
        wl = pair_workload(total=8)
        serial = runner.run_serial(wl)
        full = runner.run(RunConfig(workload=wl, num_streams=8))
        assert (
            full.energy_improvement_over(serial)
            < full.improvement_over(serial)
        )


class TestHyperQAblation:
    """Not a paper figure: quantify what Hyper-Q itself buys (Fermi mode)."""

    def test_kepler_beats_fermi_queueing(self, runner):
        from repro.gpu.specs import fermi_c2050, tesla_k20

        wl = pair_workload(total=8)
        kepler = runner.run(
            RunConfig(workload=wl, num_streams=8, spec=tesla_k20())
        )
        # Same SMX array, single hardware queue: isolates the queueing effect.
        fermi_like = tesla_k20().with_hardware_queues(1)
        fermi = runner.run(
            RunConfig(workload=wl, num_streams=8, spec=fermi_like)
        )
        assert kepler.makespan < fermi.makespan


class TestBeyondHardwareQueues:
    """More streams than Hyper-Q queues: aliasing reintroduces false deps."""

    def test_more_apps_than_queues_still_completes(self, runner):
        wl = Workload.heterogeneous_pair("nn", "needle", 40, scale="tiny")
        run = runner.run(RunConfig(workload=wl, num_streams=40))
        assert len(run.harness.records) == 40
        assert run.makespan > 0

    def test_aliasing_no_faster_than_unaliased(self, runner):
        from repro.gpu.specs import tesla_k20

        wl = Workload.heterogeneous_pair("nn", "needle", 16, scale="small")
        wide = runner.run(
            RunConfig(workload=wl, num_streams=16, spec=tesla_k20())
        )
        narrow = runner.run(
            RunConfig(
                workload=wl,
                num_streams=16,
                spec=tesla_k20().with_hardware_queues(2),
            )
        )
        assert narrow.makespan >= wide.makespan * 0.999


class TestDeterminism:
    def test_identical_configs_identical_results(self, runner):
        wl = pair_workload(total=4)
        cfg = RunConfig(workload=wl, num_streams=4, seed=11)
        a, b = runner.run(cfg), runner.run(cfg)
        assert a.makespan == b.makespan
        assert a.energy == b.energy
        assert [r.complete_time for r in a.harness.records] == [
            r.complete_time for r in b.harness.records
        ]
