"""Tests for the launch-order search."""

import pytest

from repro.core.autotune import OBJECTIVES, OrderSearch, evaluate_schedule
from repro.core.workload import Workload
from repro.scheduling.orders import all_orders


@pytest.fixture
def workload():
    return Workload.heterogeneous_pair("nn", "srad", 6, scale="tiny")


class TestObjectives:
    def test_three_objectives(self):
        assert set(OBJECTIVES) == {"makespan", "energy", "edp"}

    def test_evaluate_schedule(self, workload):
        value, run = evaluate_schedule(
            workload, list(range(6)), num_streams=6, objective="makespan"
        )
        assert value == pytest.approx(run.makespan)
        assert len(run.harness.records) == 6

    def test_edp_consistent(self, workload):
        v, run = evaluate_schedule(
            workload, list(range(6)), num_streams=6, objective="edp"
        )
        assert v == pytest.approx(run.energy * run.makespan)

    def test_unknown_objective(self, workload):
        with pytest.raises(KeyError):
            evaluate_schedule(workload, list(range(6)), 6, objective="latency")


class TestOrderSearch:
    def test_search_beats_or_matches_named_policies(self, workload):
        search = OrderSearch(workload, num_streams=6, seed=3)
        result = search.search(restarts=1, swaps_per_climb=6)
        # The search result is at least as good as the best seeded policy.
        assert result.best_value <= min(result.seed_values.values()) + 1e-12
        assert result.improvement_over_worst_seed_pct >= 0.0
        assert result.improvement_over_best_seed_pct >= -1e-9
        assert sorted(result.best_schedule) == list(range(6))

    def test_all_policies_seeded(self, workload):
        search = OrderSearch(workload, num_streams=6, seed=0)
        result = search.search(restarts=0, swaps_per_climb=2)
        for order in all_orders():
            assert str(order) in result.seed_values

    def test_cache_bounds_evaluations(self, workload):
        search = OrderSearch(workload, num_streams=6, seed=1)
        result = search.search(restarts=1, swaps_per_climb=5)
        # evaluations <= seeds (6) + climbs (3 x 5); cache may dedupe more.
        assert result.evaluations <= 6 + 3 * 5
        assert result.evaluations >= 6
        assert len(result.history) >= result.evaluations

    def test_deterministic_per_seed(self, workload):
        r1 = OrderSearch(workload, 6, seed=9).search(restarts=1, swaps_per_climb=4)
        r2 = OrderSearch(workload, 6, seed=9).search(restarts=1, swaps_per_climb=4)
        assert r1.best_schedule == r2.best_schedule
        assert r1.best_value == r2.best_value

    def test_objective_validation(self, workload):
        with pytest.raises(KeyError):
            OrderSearch(workload, 6, objective="fps")


class TestExhaustive:
    def test_enumerates_all_type_sequences(self):
        wl = Workload.heterogeneous_pair("nn", "srad", 4, scale="tiny")
        search = OrderSearch(wl, num_streams=4, seed=0)
        result = search.exhaustive()
        # C(4, 2) = 6 distinct type sequences for 2+2.
        assert len(result.history) == 6
        assert result.best_value == min(v for _, v in result.history)
        assert sorted(result.best_schedule) == list(range(4))

    def test_exhaustive_beats_every_named_policy(self):
        wl = Workload.heterogeneous_pair("nn", "srad", 4, scale="tiny")
        exhaustive = OrderSearch(wl, num_streams=4, seed=0).exhaustive()
        seeded = OrderSearch(wl, num_streams=4, seed=0).search(
            restarts=0, swaps_per_climb=0
        )
        assert exhaustive.best_value <= seeded.best_value + 1e-12

    def test_rejects_oversized_space(self):
        wl = Workload.heterogeneous_pair("nn", "srad", 16, scale="tiny")
        with pytest.raises(ValueError, match="exceed"):
            OrderSearch(wl, num_streams=16).exhaustive(max_sequences=100)
