"""Tests for arrival traces, dispatch policies and plain open-loop serving."""

import warnings

import numpy as np
import pytest

from repro.serving import (
    AdmissionStallWarning,
    Arrival,
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    PowerCapDispatcher,
    poisson_arrivals,
    run_serving,
)

MIX = [("nn", 2), ("needle", 1)]


def small_trace(rate=8000, duration=0.004, seed=1):
    return poisson_arrivals(rate, duration, MIX, seed=seed)


class TestArrivals:
    def test_poisson_trace_properties(self):
        arrivals = poisson_arrivals(1000, 0.1, MIX, seed=0)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 0.1 for t in times)
        # ~100 expected; allow generous slack.
        assert 50 < len(arrivals) < 160
        assert {a.type_name for a in arrivals} <= {"nn", "needle"}
        assert [a.index for a in arrivals] == list(range(len(arrivals)))

    def test_mix_weights_respected(self):
        arrivals = poisson_arrivals(5000, 0.1, [("nn", 9), ("needle", 1)], seed=2)
        nn_share = sum(1 for a in arrivals if a.type_name == "nn") / len(arrivals)
        assert nn_share > 0.75

    def test_deterministic_per_seed(self):
        a = poisson_arrivals(1000, 0.01, MIX, seed=5)
        b = poisson_arrivals(1000, 0.01, MIX, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1.0, MIX)
        with pytest.raises(ValueError):
            poisson_arrivals(10, -1.0, MIX)
        with pytest.raises(ValueError):
            poisson_arrivals(10, 1.0, [("nn", 0.0)])


class TestDispatchers:
    def test_greedy_admits_always(self):
        assert GreedyDispatcher().may_admit(100, 500.0)

    def test_concurrency_cap(self):
        d = ConcurrencyCapDispatcher(4)
        assert d.may_admit(3, 0.0)
        assert not d.may_admit(4, 0.0)
        with pytest.raises(ValueError):
            ConcurrencyCapDispatcher(0)

    def test_power_cap(self):
        d = PowerCapDispatcher(100.0)
        assert d.may_admit(1, 60.0)
        assert not d.may_admit(1, 120.0)
        assert d.may_admit(0, 500.0)  # never starve an idle device
        with pytest.raises(ValueError):
            PowerCapDispatcher(-1.0)


class TestRunStreaming:
    def test_all_jobs_complete(self):
        arrivals = small_trace()
        result = run_serving(
            arrivals, GreedyDispatcher(), num_streams=16, scale="tiny"
        )
        assert result.jobs == len(arrivals)
        assert len(result.sojourn_times) == len(arrivals)
        assert len(result.records) == len(arrivals)
        assert all(s > 0 for s in result.sojourn_times)
        assert result.throughput > 0
        assert result.energy > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_serving([], GreedyDispatcher())

    def test_serialized_cap_one(self):
        arrivals = small_trace(rate=12000)
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(1), num_streams=16, scale="tiny"
        )
        assert result.peak_in_flight == 1
        # Completions never overlap: each record starts after the previous
        # admitted one finished.
        recs = sorted(
            (r for r in result.records if r.spawn_time > 0),
            key=lambda r: r.spawn_time,
        )
        for a, b in zip(recs, recs[1:]):
            assert b.spawn_time >= a.complete_time - 1e-12

    def test_cap_enforced(self):
        arrivals = small_trace(rate=16000)
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(3), num_streams=16, scale="tiny"
        )
        assert result.peak_in_flight <= 3

    def test_greedy_faster_than_serialized(self):
        arrivals = small_trace(rate=16000)
        greedy = run_serving(
            arrivals, GreedyDispatcher(), num_streams=16, scale="tiny"
        )
        serial = run_serving(
            arrivals, ConcurrencyCapDispatcher(1), num_streams=16, scale="tiny"
        )
        assert greedy.mean_sojourn < serial.mean_sojourn
        assert greedy.completion_time <= serial.completion_time

    def test_power_cap_limits_admission_under_load(self):
        arrivals = small_trace(rate=20000)
        greedy = run_serving(
            arrivals, GreedyDispatcher(), num_streams=16, scale="tiny"
        )
        capped = run_serving(
            arrivals,
            PowerCapDispatcher(max(greedy.average_power * 0.9, 48.0)),
            num_streams=16,
            scale="tiny",
        )
        # Throttling shows up as admission queueing (jobs wait for headroom)
        # and can only slow jobs down, never speed them up.
        assert sum(capped.queue_delays) > sum(greedy.queue_delays)
        assert capped.mean_sojourn >= greedy.mean_sojourn - 1e-12

    def test_deterministic(self):
        arrivals = small_trace()
        a = run_serving(arrivals, GreedyDispatcher(), num_streams=8, scale="tiny")
        b = run_serving(arrivals, GreedyDispatcher(), num_streams=8, scale="tiny")
        assert a.completion_time == b.completion_time
        assert a.sojourn_times == b.sojourn_times

    def test_summary_text(self):
        arrivals = small_trace()
        result = run_serving(arrivals, GreedyDispatcher(), num_streams=8, scale="tiny")
        summary = result.summary()
        assert summary.startswith(f"greedy: {len(arrivals)} arrivals -> ")
        assert f"{len(arrivals)} completed ({len(arrivals)} in-SLO)" in summary
        assert "0 shed, 0 failed" in summary
        assert f"throughput {result.throughput:.0f}/s" in summary

    def test_p99_between_p95_and_max(self):
        arrivals = small_trace(rate=16000)
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(2), num_streams=8, scale="tiny"
        )
        assert result.p95_sojourn <= result.p99_sojourn <= max(result.sojourn_times)


class TestQueueFairness:
    """Queued jobs are released strictly FIFO by (arrival time, index)."""

    def test_fifo_release_with_tied_arrival_times(self):
        # One opener occupies the serialized device long enough for all
        # the tied arrivals to finish host-side preparation and queue up.
        # gaussian prepares much slower than nn, so a prepare-completion-
        # ordered queue (the old Store behaviour) would release the nn
        # jobs first; strict arrival-FIFO must release by index instead.
        arrivals = [
            Arrival(index=0, time=0.0, type_name="gaussian"),
            Arrival(index=1, time=1e-6, type_name="gaussian"),
            Arrival(index=2, time=1e-6, type_name="nn"),
            Arrival(index=3, time=1e-6, type_name="gaussian"),
            Arrival(index=4, time=1e-6, type_name="nn"),
        ]
        result = run_serving(
            arrivals, ConcurrencyCapDispatcher(1), num_streams=4, scale="tiny"
        )
        order = [
            r.launch_index
            for r in sorted(result.records, key=lambda r: r.spawn_time)
        ]
        assert order == [0, 1, 2, 3, 4]

    def test_tie_break_is_deterministic(self):
        arrivals = [
            Arrival(index=0, time=0.0, type_name="needle"),
            Arrival(index=1, time=1e-6, type_name="nn"),
            Arrival(index=2, time=1e-6, type_name="needle"),
            Arrival(index=3, time=1e-6, type_name="nn"),
        ]
        runs = [
            run_serving(
                arrivals,
                ConcurrencyCapDispatcher(1),
                num_streams=4,
                scale="tiny",
            )
            for _ in range(2)
        ]
        orders = [
            [
                r.launch_index
                for r in sorted(run.records, key=lambda r: r.spawn_time)
            ]
            for run in runs
        ]
        assert orders[0] == orders[1] == [0, 1, 2, 3]


class TestStallGuard:
    """PowerCapDispatcher starvation guard (stall_timeout)."""

    def test_undersized_budget_stalls_head_without_guard(self):
        arrivals = small_trace(rate=16000, duration=0.002)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AdmissionStallWarning)
            result = run_serving(
                arrivals,
                PowerCapDispatcher(watts=1.0),
                num_streams=4,
                scale="tiny",
            )
        # Budget below the idle floor: every admission waits for a full
        # drain, i.e. the run is serialized.
        assert result.peak_in_flight == 1

    def test_guard_warns_and_releases_head(self):
        # gaussian jobs run ~1 ms each, far longer than the 0.2 ms stall
        # timeout, so the head-of-line wait for a full drain must trip
        # the guard.
        arrivals = poisson_arrivals(2000, 0.004, [("gaussian", 1)], seed=1)
        unguarded = run_serving(
            arrivals, PowerCapDispatcher(watts=1.0), num_streams=4, scale="tiny"
        )
        with pytest.warns(AdmissionStallWarning):
            guarded = run_serving(
                arrivals,
                PowerCapDispatcher(watts=1.0, stall_timeout=2e-4),
                num_streams=4,
                scale="tiny",
            )
        # The guard forces progress: concurrency exceeds 1 and the run
        # finishes sooner than the fully serialized version.
        assert guarded.peak_in_flight > 1
        assert guarded.completion_time < unguarded.completion_time

    def test_generous_budget_never_warns(self):
        arrivals = small_trace(rate=8000, duration=0.002)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AdmissionStallWarning)
            result = run_serving(
                arrivals,
                PowerCapDispatcher(watts=500.0, stall_timeout=1e-3),
                num_streams=8,
                scale="tiny",
            )
        assert result.jobs == len(arrivals)

    def test_stall_timeout_validation(self):
        with pytest.raises(ValueError):
            PowerCapDispatcher(50.0, stall_timeout=0.0)
        with pytest.raises(ValueError):
            PowerCapDispatcher(50.0, stall_timeout=-1.0)
