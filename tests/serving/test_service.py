"""Determinism properties of :func:`repro.serving.run_serving`.

The serving layer inherits the simulator's reproducibility contract:
same seed + same fault plan + same dispatcher => identical results, with
or without journaling.
"""

import pytest

from repro.resilience import FaultPlan
from repro.resilience.faults import FaultKind, FaultSpec
from repro.serving import (
    BreakerConfig,
    ConcurrencyCapDispatcher,
    ServingConfig,
    measure_service_baselines,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.serving

MIX = [("gaussian", 1), ("nn", 1)]


def trace(seed=5):
    return poisson_arrivals(1500.0, 0.02, MIX, seed=seed)


def full_config(seed=9):
    faults = [
        FaultSpec(kind=FaultKind.LAUNCH_FAIL, time=t, target="nn")
        for t in (0.002, 0.005, 0.008)
    ]
    return ServingConfig(
        queue_depth=4,
        queue_policy="shed-oldest",
        slo_factor=4.0,
        slo_jitter=0.2,
        breaker=BreakerConfig(threshold=2, cooldown=0.01, jitter=0.2),
        plan=FaultPlan(faults),
        seed=seed,
    )


def identical(a, b):
    assert a.completion_time == b.completion_time
    assert a.energy == b.energy
    assert a.sojourn_times == b.sojourn_times
    assert a.queue_delays == b.queue_delays
    assert a.outcomes == b.outcomes
    assert a.deadline_met == b.deadline_met
    assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
    assert [r.complete_time for r in a.records] == [
        r.complete_time for r in b.records
    ]
    assert [r.slo_deadline for r in a.records] == [
        r.slo_deadline for r in b.records
    ]


class TestDeterminism:
    def test_identical_across_runs(self):
        arrivals = trace()
        runs = [
            run_serving(
                arrivals, ConcurrencyCapDispatcher(2), full_config(),
                num_streams=8,
            )
            for _ in range(2)
        ]
        identical(runs[0], runs[1])

    def test_identical_with_and_without_journal(self, tmp_path):
        arrivals = trace()
        bare = run_serving(
            arrivals, ConcurrencyCapDispatcher(2), full_config(), num_streams=8
        )
        journaled = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            full_config(),
            num_streams=8,
            journal_path=tmp_path / "run.jsonl",
        )
        identical(bare, journaled)

    def test_journal_entry_per_arrival(self, tmp_path):
        from repro.serving import RunJournal

        arrivals = trace()
        path = tmp_path / "run.jsonl"
        result = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            full_config(),
            num_streams=8,
            journal_path=path,
        )
        entries = RunJournal(path).entries()
        assert len(entries) == len(arrivals)
        by_index = {e["index"]: e for e in entries}
        for record in result.records:
            assert by_index[record.launch_index]["outcome"] == record.outcome

    def test_seed_changes_results(self):
        arrivals = trace()
        a = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            full_config(seed=9),
            num_streams=8,
        )
        b = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(2),
            full_config(seed=10),
            num_streams=8,
        )
        # Different seed => different SLO jitter => different deadlines.
        assert [r.slo_deadline for r in a.records] != [
            r.slo_deadline for r in b.records
        ]


class TestBaselines:
    def test_measured_baselines_positive_and_cached(self):
        first = measure_service_baselines(["nn", "needle"], scale="tiny")
        second = measure_service_baselines(["nn", "needle"], scale="tiny")
        assert first == second
        assert all(v > 0 for v in first.values())

    def test_explicit_baselines_bypass_measurement(self):
        arrivals = trace()
        cfg = ServingConfig(
            slo_factor=4.0,
            baseline_runtimes=(("gaussian", 2e-3), ("nn", 1e-3)),
            seed=3,
        )
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(2), cfg, num_streams=8
        )
        for record, arrival in zip(result.records, arrivals):
            expected = arrival.time + 4.0 * (
                2e-3 if arrival.type_name == "gaussian" else 1e-3
            )
            assert record.slo_deadline == pytest.approx(expected)

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError):
            run_serving(
                trace(), ConcurrencyCapDispatcher(2), ServingConfig(),
                resume=True,
            )
