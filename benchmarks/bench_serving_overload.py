"""Goodput under overload: bounded admission + shedding vs greedy.

Regenerates ``results/serving_overload.csv`` (report section "Serving —
goodput under overload").  A Poisson trace is generated at ~2.5x the
measured service rate of a cap-4 dispatcher, then served four ways:

* ``greedy`` — unbounded admission, no shedding (the naive baseline);
* ``block`` / ``reject`` / ``shed-oldest`` — cap-4 concurrency with a
  bounded admission queue and deadline-aware shedding.

Under sustained overload the baseline admits everything, concurrency
contention inflates every sojourn, and most completions land past their
SLO deadline: throughput stays high but goodput collapses.  Bounded
admission spends the same device time on requests that can still meet
their deadlines, so goodput is strictly higher and the p99 sojourn stays
bounded.  Each scenario's row is checkpointed to disk as soon as it
completes, so a crash mid-sweep preserves the partial table.
"""

from __future__ import annotations

import pytest
from conftest import checkpoint_rows, once

from repro.analysis.tables import format_table
from repro.serving import (
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    ServingConfig,
    measure_service_baselines,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.serving

MIX = [("nn", 2), ("needle", 1)]
CAP = 4
QUEUE_DEPTH = 8
OVERLOAD = 2.5      # arrival rate as a multiple of the service rate
SLO_FACTOR = 6.0    # deadline = arrival + factor * serial baseline
DURATION = 0.02     # seconds of simulated arrivals
SEED = 13


def overload_trace():
    """Poisson arrivals at ``OVERLOAD``x the cap-``CAP`` service rate."""
    baselines = measure_service_baselines([name for name, _ in MIX])
    total = sum(weight for _, weight in MIX)
    mean_service = sum(
        baselines[name] * weight / total for name, weight in MIX
    )
    service_rate = CAP / mean_service
    arrivals = poisson_arrivals(
        OVERLOAD * service_rate, DURATION, MIX, seed=SEED
    )
    return arrivals, service_rate


def serve(arrivals, policy):
    if policy == "greedy":
        dispatcher = GreedyDispatcher()
        config = ServingConfig(
            slo_factor=SLO_FACTOR,
            slo_jitter=0.1,
            shed_unreachable=False,
            seed=SEED,
        )
    else:
        dispatcher = ConcurrencyCapDispatcher(CAP)
        config = ServingConfig(
            queue_depth=QUEUE_DEPTH,
            queue_policy=policy,
            slo_factor=SLO_FACTOR,
            slo_jitter=0.1,
            shed_unreachable=True,
            seed=SEED,
        )
    return run_serving(arrivals, dispatcher, config, num_streams=16)


def row_for(policy, result):
    return {
        "policy": policy,
        "qdepth": 0 if policy == "greedy" else QUEUE_DEPTH,
        "goodput_rps": round(result.goodput, 1),
        "throughput_rps": round(result.throughput, 1),
        "p99_sojourn_ms": round(result.p99_sojourn * 1e3, 3),
        "deadline_met": result.deadline_met,
        "shed_rate": round(result.shed_rate, 3),
        "late": result.outcomes.get("late", 0),
    }


def test_serving_overload_goodput(benchmark, results_dir, scale):
    arrivals, service_rate = overload_trace()
    rows = []
    results = {}

    def sweep():
        for policy in ("greedy", "block", "reject", "shed-oldest"):
            results[policy] = serve(arrivals, policy)
            rows.append(row_for(policy, results[policy]))
            # Preserve completed rows even if a later scenario crashes.
            checkpoint_rows(rows, "serving_overload.csv")
        return results

    once(benchmark, sweep)
    print()
    print(
        f"[serving_overload] scale={scale} arrivals={len(arrivals)} "
        f"rate={OVERLOAD:.1f}x service ({service_rate:.0f}/s)"
    )
    print(format_table(rows, title="[serving_overload.csv]"))

    greedy = results["greedy"]
    shed = results["shed-oldest"]
    # Overload is real: offered load outruns the baseline's goodput.
    assert len(arrivals) / DURATION > 2.0 * greedy.goodput
    # Bounded admission + shedding wins on goodput with a bounded tail.
    assert shed.goodput > greedy.goodput
    assert shed.p99_sojourn < greedy.p99_sojourn
    for policy in ("block", "reject", "shed-oldest"):
        assert results[policy].p99_sojourn < greedy.p99_sojourn
