"""Tracing overhead — enabled causal tracing must not perturb or slow
the sim.

The tracing layer promises two things (docs/observability.md): with
``tracing=None`` nothing changes at all — each app thread's tracer is
``None`` and every instrumentation site is a single attribute check —
and with a live :class:`~repro.telemetry.Tracing` attached the
simulated results are *identical* (spans are record-complete — both
boundaries are read off the event calendar after the wait has already
happened) at a wall-clock overhead under 2%.  This bench pins both
halves of that bargain on a Figure 4-style cell and appends the
measurement to the repo's perf trajectory (``BENCH_tracing.json``) so
overhead creep shows up commit over commit.

Measuring a <2% effect on a shared runner needs the same care as
``bench_integrity_overhead.py`` — and then some: wall-clock drifts by
several percent over tens of seconds, so even per-side minima taken
over hundreds of repetitions can land in different drift regimes and
disagree by more than the effect under measurement.  The estimator
here is therefore *fully paired*: each repetition times one clean and
one traced cell back to back (order alternating, GC phase reset before
each sample so both sides trigger the same collections from a clean
slate), and the reported overhead is the **median of the per-pair
relative deltas**.  Drift cancels inside each pair because its two
samples are adjacent in time; the median then shrugs off the
occasional scheduler preemption that hits one side of one pair.
"""

import gc
import statistics
import time
from pathlib import Path

import pytest
from conftest import once

from repro.analysis.tables import format_table, write_csv
from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.telemetry import Tracing
from repro.telemetry.trajectory import record_trajectory_point

#: One default-scale cell, not a full sweep: the floor estimator needs
#: *many* short paired samples far more than it needs workload variety.
NA_VALUES = (8,)
PAIR = ("gaussian", "needle")
#: Keep timing cells until this much wall time has elapsed (at least
#: MIN_REPEATS full rounds): the per-(cell, side) minimum needs enough
#: samples to land on a quiet scheduler slice for every floor.
TIME_BUDGET_S = 70.0
MIN_REPEATS = 4

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_tracing.json"


def _run_cell(na, traced):
    """One fig4-style cell; returns (metrics, spans recorded)."""
    workload = Workload.heterogeneous_pair(*PAIR, na)
    tracing = Tracing(seed=0) if traced else None
    config = RunConfig(
        workload=workload,
        num_streams=na,
        tracing=tracing,
    )
    result = ExperimentRunner().run(config)
    spans = 0
    if traced:
        # Count *without* materializing: touching .spans inside the
        # timed window would bill analysis-time work to the recorder.
        spans = len(tracing.tracer._raw)
        assert spans > 0
    metrics = {
        "NA": na,
        "makespan": result.makespan,
        "energy": result.energy,
        "peak_power": result.peak_power,
    }
    return metrics, spans


def _interleaved_cells(budget_s):
    """(median overhead %, clean floor s, traced floor s, clean metrics,
    traced metrics, reps).

    Each repetition times one clean and one traced cell back to back
    with the slot order swapped every round; overhead is the median of
    the per-pair relative deltas (drift-immune), the per-side floors
    are reported alongside for the trajectory.
    """
    deltas = []
    best = {False: float("inf"), True: float("inf")}
    metrics = {False: {}, True: {}}
    deadline = time.perf_counter() + budget_s
    rep = 0
    (na,) = NA_VALUES
    while rep < MIN_REPEATS or time.perf_counter() < deadline:
        order = (False, True) if rep % 2 == 0 else (True, False)
        sample = {}
        for traced in order:
            # Reset the GC phase so each sample triggers the same
            # collections from a clean slate: otherwise whether a run
            # absorbs an extra gen-2 pass depends on where the
            # process-lifetime allocation count happens to sit, and
            # that quantization (tens of ms) dwarfs the effect under
            # measurement.
            gc.collect()
            t0 = time.perf_counter()
            metrics[traced][na], _ = _run_cell(na, traced)
            sample[traced] = time.perf_counter() - t0
            best[traced] = min(best[traced], sample[traced])
        deltas.append((sample[True] - sample[False]) / sample[False] * 100.0)
        rep += 1
    overhead_pct = statistics.median(deltas)
    clean_metrics = [metrics[False][na]]
    traced_metrics = [metrics[True][na]]
    return (
        overhead_pct, best[False], best[True],
        clean_metrics, traced_metrics, rep,
    )


@pytest.mark.tracing
def test_tracing_overhead(benchmark, results_dir):
    # Untimed warmups cover both code paths' imports and caches.
    for na in NA_VALUES:
        _run_cell(na, False)
        _run_cell(na, True)
    overhead_pct, clean_s, traced_s, clean_metrics, traced_metrics, reps = (
        once(benchmark, _interleaved_cells, TIME_BUDGET_S)
    )

    # The simulated results must be *identical*: span recording reads
    # the simulated clock after the fact and never schedules, cancels
    # or reorders an event.
    assert traced_metrics == clean_metrics

    rows = [
        {
            "sweep": f"{PAIR[0]}+{PAIR[1]} NA={','.join(map(str, NA_VALUES))}",
            "repeats": reps,
            "clean_s": clean_s,
            "traced_s": traced_s,
            "overhead_pct": overhead_pct,
            "results_identical": True,
        }
    ]
    write_csv(rows, results_dir / "tracing_overhead.csv")
    print()
    print(format_table(rows, title="Tracing — causal-span overhead"))

    # First-class perf-trajectory point: one entry per commit, appended
    # so the overhead trend is reviewable without rerunning old builds.
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_tracing_overhead",
        {
            "clean_s": clean_s,
            "traced_s": traced_s,
            "overhead_pct": overhead_pct,
        },
    )

    assert overhead_pct < 2.0, (
        f"tracing costs {overhead_pct:.2f}% of wall time when enabled "
        "(budget: 2%)"
    )
