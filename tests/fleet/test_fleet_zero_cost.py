"""The fleet layer must cost nothing when it is off (issue criterion d).

With ``fleet=None`` the runner, the serving layer and the journal format
must behave exactly as before the fleet layer existed: same pipeline, same
fingerprints for old configs, no new keys in journal entries.
"""

import json

import pytest

from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.fleet import FleetHarness, FleetResult
from repro.framework.harness import HarnessResult
from repro.integrity import decode_line
from repro.serving import (
    ConcurrencyCapDispatcher,
    FleetServingConfig,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)

from .conftest import fast_fleet, make_apps

pytestmark = pytest.mark.fleet


def small_workload():
    return Workload.heterogeneous_pair("gaussian", "needle", 4)


class TestRunnerPathUntouched:
    def test_fleet_none_uses_single_device_harness(self):
        result = ExperimentRunner().run(
            RunConfig(workload=small_workload(), num_streams=4)
        )
        assert isinstance(result.harness, HarnessResult)
        assert not isinstance(result.harness, FleetResult)

    def test_fleet_none_results_identical_to_direct_harness(self):
        runner = ExperimentRunner()
        config = RunConfig(workload=small_workload(), num_streams=4)
        via_runner = runner.run(config)
        again = runner.run(config)
        # Same config -> bit-identical simulation, fleet code never runs.
        assert via_runner.makespan == again.makespan
        assert via_runner.energy == again.energy
        assert [r.complete_time for r in via_runner.harness.records] == [
            r.complete_time for r in again.harness.records
        ]

    def test_fleet_config_dispatches_to_fleet_harness(self):
        result = ExperimentRunner().run(
            RunConfig(
                workload=small_workload(),
                num_streams=2,
                fleet=fast_fleet(num_devices=2),
            )
        )
        assert isinstance(result.harness, FleetResult)
        assert result.harness.completed == 4


class TestSingleDeviceFleet:
    def test_single_device_no_failover_completes(self):
        result = FleetHarness(
            make_apps(4),
            fast_fleet(num_devices=1, failover=False),
            num_streams=2,
        ).run()
        assert result.completed == 4
        assert result.failed == 0
        assert result.migrations == 0
        assert result.devices_lost == 0
        assert len(result.devices) == 1

    def test_single_device_fleet_deterministic(self):
        def once():
            return FleetHarness(
                make_apps(4),
                fast_fleet(num_devices=1, failover=False),
                num_streams=2,
            ).run()

        a, b = once(), once()
        assert a.makespan == b.makespan
        assert [r.complete_time for r in a.records] == [
            r.complete_time for r in b.records
        ]


class TestServingJournalFormatUnchanged:
    def _arrivals(self):
        return poisson_arrivals(
            rate=6000.0,
            duration=0.003,
            type_mix=[("nn", 2), ("needle", 1)],
            seed=7,
        )

    def test_entries_gain_device_key_only_with_fleet(self, tmp_path):
        path_plain = tmp_path / "plain.jsonl"
        run_serving(
            self._arrivals(),
            ConcurrencyCapDispatcher(2),
            ServingConfig(seed=7),
            num_streams=8,
            journal_path=path_plain,
        )
        plain_entries = [
            decode_line(line)
            for line in path_plain.read_bytes().splitlines()[1:]
        ]
        assert plain_entries
        assert all("device" not in e for e in plain_entries)

        path_fleet = tmp_path / "fleet.jsonl"
        run_serving(
            self._arrivals(),
            ConcurrencyCapDispatcher(2),
            ServingConfig(seed=7, fleet=FleetServingConfig(num_devices=2)),
            num_streams=8,
            journal_path=path_fleet,
        )
        fleet_entries = [
            decode_line(line)
            for line in path_fleet.read_bytes().splitlines()[1:]
        ]
        assert fleet_entries
        assert all("device" in e for e in fleet_entries)

    def test_fingerprint_unchanged_for_fleetless_config(self, tmp_path):
        # A journal written without the fleet layer must resume cleanly
        # after the fleet wiring shipped — the fingerprint payload gains
        # keys only when config.fleet is set.
        path = tmp_path / "old.jsonl"
        arrivals = self._arrivals()
        first = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            ServingConfig(seed=7),
            num_streams=8,
            journal_path=path,
        )
        resumed = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            ServingConfig(seed=7),
            num_streams=8,
            journal_path=path,
            resume=True,
        )
        assert resumed.resumed
        assert resumed.recovered_entries == first.jobs
        assert resumed.fleet_devices == 0
        assert resumed.devices_lost == 0
