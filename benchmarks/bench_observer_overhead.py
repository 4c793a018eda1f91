"""Idle-observer overhead — an attached observer must not perturb or slow
the sim.

Four subsystems attach to a run and promise two things
(docs/observability.md, docs/integrity.md, docs/resilience.md): a run
without them is unchanged, and a run with them gives *identical*
simulated results at under 2% host time.

* ``telemetry``: a live :class:`~repro.telemetry.Telemetry` (probes only
  read state; snapshots are keyed to the simulated clock);
* ``tracing``: a live :class:`~repro.telemetry.Tracing` (both span
  boundaries are read off the calendar after the wait has happened);
* ``integrity``: an :class:`~repro.integrity.InvariantChecker` (strided
  probes only read state, and the default workload breaks none of the
  model's laws);
* ``resilience``: a :class:`~repro.resilience.ResilienceConfig` with an
  empty plan (nothing arms, so every event fires at the same time).

One test, parametrized by observer and marked with its CI lane, runs
Figure 4 cells (gaussian+needle at full concurrency) with the observer
off and on through :func:`overhead.measure_overhead`, writes
``results/<observer>_overhead.csv`` and appends a point to
``BENCH_<observer>.json``.  A last case times the NA=8 cell against
itself: a reading past ±2% there is the estimator's error, not an
observer's cost.
"""

from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Tuple

import pytest
from conftest import once
from overhead import measure_overhead

from repro.analysis.tables import format_table, write_csv
from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.integrity import InvariantChecker
from repro.resilience import FaultPlan, ResilienceConfig
from repro.telemetry import Telemetry, Tracing
from repro.telemetry.trajectory import record_trajectory_point

PAIR = ("gaussian", "needle")
ROOT = Path(__file__).resolve().parent.parent


class Observer(NamedTuple):
    """One guarded observer: its cells, how to attach it, what to check."""

    na_values: Tuple[int, ...]
    field: str  # the RunConfig field it sets
    make: Callable[[], Any]  # a fresh observer per cell
    check: Callable[[Any, Any], None] = lambda observer, result: None


def _spans_recorded(tracing, result):
    # Count without materializing: reading .spans would bill
    # analysis-time work to the recorder.
    assert len(tracing.tracer._raw) > 0


def _probes_silent(checker, result):
    assert result.harness.integrity is checker
    assert checker.checks_run > 0
    assert checker.violations_found == 0


OBSERVERS = {
    "telemetry": Observer((8, 16), "telemetry", Telemetry),
    "tracing": Observer((8,), "tracing", partial(Tracing, seed=0), _spans_recorded),
    "integrity": Observer(
        (8,),
        "integrity",
        partial(InvariantChecker, on_violation="record"),
        _probes_silent,
    ),
    "resilience": Observer(
        (8, 16), "resilience", partial(ResilienceConfig, plan=FaultPlan())
    ),
}


def _cells(na_values, observer=None):
    """Fig 4 cells at full concurrency, ``observer`` attached; metrics.

    A fresh runner per call, so the plain cells are simulated every time
    instead of served from the runner's cell cache.
    """
    runner = ExperimentRunner()
    cells = []
    for na in na_values:
        attached = {observer.field: observer.make()} if observer else {}
        result = runner.run(
            RunConfig(
                workload=Workload.heterogeneous_pair(*PAIR, na),
                num_streams=na,
                **attached,
            )
        )
        if observer:
            observer.check(attached[observer.field], result)
        cells.append(
            {
                "NA": na,
                "makespan": result.makespan,
                "energy": result.energy,
                "peak_power": result.peak_power,
            }
        )
    return cells


def _sweep_label(na_values):
    return f"{PAIR[0]}+{PAIR[1]} NA={','.join(map(str, na_values))}"


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=getattr(pytest.mark, name)) for name in OBSERVERS]
)
def test_observer_overhead(benchmark, results_dir, name):
    observer = OBSERVERS[name]
    measured = once(
        benchmark,
        measure_overhead,
        partial(_cells, observer.na_values),
        partial(_cells, observer.na_values, observer),
    )
    rows = [{"sweep": _sweep_label(observer.na_values), **measured._asdict()}]
    write_csv(rows, results_dir / f"{name}_overhead.csv")
    print()
    print(format_table(rows, title=f"{name} — idle-observer overhead"))
    record_trajectory_point(
        ROOT / f"BENCH_{name}.json",
        f"bench_observer_overhead[{name}]",
        {
            "off_s": measured.off_s,
            "on_s": measured.on_s,
            "overhead_pct": measured.overhead_pct,
        },
    )

    assert measured.overhead_pct < 2.0, (
        f"{name} costs {measured.overhead_pct:.2f}% of host time when "
        "attached (budget: 2%)"
    )


@pytest.mark.resilience
def test_estimator_reads_zero_on_identical_sides(benchmark):
    cell = partial(_cells, (8,))
    measured = once(benchmark, measure_overhead, cell, cell)
    print()
    print(
        format_table(
            [{"sweep": _sweep_label((8,)), **measured._asdict()}],
            title="A/A — the NA=8 cell against itself",
        )
    )

    assert abs(measured.overhead_pct) < 2.0, (
        f"identical sides read {measured.overhead_pct:+.2f}% apart "
        "(bound: 2%)"
    )
