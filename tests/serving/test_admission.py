"""Bounded admission and deadline-aware shedding.

Overload scenarios use a short, hot trace (arrival rate well above the
capped service rate) so the finite queue actually fills.
"""

import pytest

from repro.serving import (
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    ServingConfig,
    measure_service_baselines,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.serving

MIX = [("gaussian", 1), ("nn", 1)]


def overload_trace(seed=11):
    # gaussian jobs run ~1 ms each; at cap 1 the service rate is far
    # below 3000/s, so the admission queue must back up.
    return poisson_arrivals(3000.0, 0.02, MIX, seed=seed)


def run(policy, qdepth=3, seed=11, **kwargs):
    cfg = ServingConfig(queue_depth=qdepth, queue_policy=policy)
    return run_serving(
        overload_trace(seed),
        ConcurrencyCapDispatcher(1),
        cfg,
        num_streams=4,
        **kwargs,
    )


class TestInertEquality:
    """An inert config admits every arrival and completes it.

    Its exact outputs are the ``plain`` cell of
    ``tests/serving/test_pinned_serving.py``.
    """

    def test_outcomes_stamped_even_when_inert(self):
        arrivals = poisson_arrivals(8000.0, 0.002, MIX, seed=2)
        served = run_serving(
            arrivals, GreedyDispatcher(), ServingConfig(), num_streams=8
        )
        assert served.outcomes == {"completed": len(arrivals)}
        assert served.shed_rate == 0.0


class TestBoundedAdmission:
    def test_every_arrival_gets_a_terminal_outcome(self):
        for policy in ("block", "reject", "shed-oldest"):
            result = run(policy)
            assert sum(result.outcomes.values()) == result.jobs

    def test_reject_sheds_new_arrivals(self):
        result = run("reject")
        assert result.outcomes.get("shed-reject", 0) > 0
        assert result.completed + result.shed == result.jobs

    def test_shed_oldest_evicts_queue_head(self):
        result = run("shed-oldest")
        assert result.outcomes.get("shed-oldest", 0) > 0

    def test_block_applies_backpressure_without_shedding(self):
        result = run("block")
        assert result.shed == 0
        assert result.completed == result.jobs

    def test_bounded_queues_cut_the_tail(self):
        blocked = run("block")
        rejecting = run("reject")
        oldest = run("shed-oldest")
        # Shedding policies bound the queue, so the tail sojourn of the
        # jobs that do complete is strictly below the unbounded backlog's.
        assert rejecting.p99_sojourn < blocked.p99_sojourn
        assert oldest.p99_sojourn < blocked.p99_sojourn

    def test_unbounded_depth_never_sheds(self):
        cfg = ServingConfig(queue_depth=0, queue_policy="reject")
        result = run_serving(
            overload_trace(), ConcurrencyCapDispatcher(1), cfg, num_streams=4
        )
        assert result.shed == 0


class TestDeadlineShedding:
    def test_unreachable_deadlines_are_shed(self):
        cfg = ServingConfig(slo_factor=3.0, seed=3)
        result = run_serving(
            overload_trace(), ConcurrencyCapDispatcher(1), cfg, num_streams=4
        )
        assert result.outcomes.get("shed-deadline", 0) > 0
        # Shedding is the point: what completes, completes in SLO.
        assert result.deadline_met == result.completed
        assert result.goodput <= result.throughput

    def test_shedding_off_keeps_late_jobs(self):
        cfg = ServingConfig(slo_factor=3.0, shed_unreachable=False, seed=3)
        result = run_serving(
            overload_trace(), ConcurrencyCapDispatcher(1), cfg, num_streams=4
        )
        assert result.outcomes.get("shed-deadline", 0) == 0
        assert result.outcomes.get("late", 0) > 0
        assert result.goodput < result.throughput

    def test_generous_slo_changes_nothing(self):
        arrivals = poisson_arrivals(2000.0, 0.004, MIX, seed=5)
        loose = ServingConfig(slo_factor=500.0, seed=5)
        result = run_serving(
            arrivals, GreedyDispatcher(), loose, num_streams=8
        )
        assert result.shed == 0
        assert result.deadline_met == result.jobs

    def test_deadlines_recorded_on_records(self):
        cfg = ServingConfig(slo_factor=4.0, slo_jitter=0.2, seed=9)
        result = run_serving(
            overload_trace(), ConcurrencyCapDispatcher(2), cfg, num_streams=4
        )
        assert all(r.slo_deadline > 0 for r in result.records)

    def test_trace_not_starting_at_index_zero(self):
        arrivals = poisson_arrivals(1500.0, 0.02, MIX, seed=3)[5:]
        result = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(4),
            ServingConfig(slo_factor=3.0, seed=3),
            num_streams=8,
            scale="tiny",
        )
        baselines = measure_service_baselines(["gaussian", "nn"], scale="tiny")
        assert result.jobs == len(arrivals)
        by_index = {a.index: a for a in arrivals}
        for record in result.records:
            arrival = by_index[record.launch_index]
            assert record.slo_deadline == (
                arrival.time + 3.0 * baselines[arrival.type_name]
            )

    def test_slo_jitter_is_seeded(self):
        arrivals = overload_trace()
        runs = [
            run_serving(
                arrivals,
                ConcurrencyCapDispatcher(2),
                ServingConfig(slo_factor=3.0, slo_jitter=0.3, seed=21),
                num_streams=4,
            )
            for _ in range(2)
        ]
        assert [r.slo_deadline for r in runs[0].records] == [
            r.slo_deadline for r in runs[1].records
        ]
