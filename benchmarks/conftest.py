"""Shared fixtures for the benchmark suite.

``bench_paper.py`` regenerates the paper's tables and figures at the
paper's problem sizes (override with ``REPRO_SCALE=small`` for a quick
pass) and prints the rows the paper reports; the other benches measure
the extensions.  CSV copies land in ``results/``.

The :class:`~repro.core.runner.ExperimentRunner` is session-scoped, so
every pure cell (a config with no observer or hook attached) is
simulated once and shared across benchmark files: serial baselines, and
also the cells one figure repeats from another.
"""

from __future__ import annotations

import json
import os
import traceback
from pathlib import Path
from typing import List

import pytest

# Benchmarks default to the paper's Table III sizes.
os.environ.setdefault("REPRO_SCALE", "paper")

from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.core.workload import resolve_scale  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One runner for the whole benchmark session (shared cell results)."""
    return ExperimentRunner()


@pytest.fixture(scope="session")
def scale() -> str:
    """The active problem-size profile."""
    return resolve_scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop their CSV/markdown outputs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


#: Cells that crashed this session; dumped to results/partial_failures.json
#: so an aborted sweep still leaves a machine-readable account of what ran.
_FAILED_CELLS: List[dict] = []


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — statistical rounds
    would triple the wall time without adding information.

    A crashing cell is recorded as a failure entry (and the partial
    results written so far are preserved in ``results/``) before the
    exception is re-raised; pytest then fails this bench and continues
    the sweep with the remaining cells instead of losing the session.
    """
    try:
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
    except Exception as exc:
        _FAILED_CELLS.append(
            {
                "bench": getattr(fn, "__qualname__", repr(fn)),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "partial_failures.json").write_text(
            json.dumps(_FAILED_CELLS, indent=2) + "\n"
        )
        raise


def checkpoint_rows(rows: List[dict], csv_name: str) -> Path:
    """Flush partially accumulated benchmark rows to ``results/`` NOW.

    Multi-scenario benches (e.g. the serving overload sweep) call this
    after every completed scenario, so if a later cell crashes the rows
    computed so far — goodput, shed rates, tail latencies — are already
    on disk next to ``partial_failures.json`` instead of dying with the
    process.  Idempotent: each call rewrites the same CSV with the
    current row list.
    """
    from repro.analysis.tables import write_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    return write_csv(rows, RESULTS_DIR / csv_name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """After the run, print every regenerated figure/table from results/.

    pytest captures the benches' in-test prints; this hook runs after
    capture ends, so ``pytest benchmarks/ --benchmark-only | tee out.txt``
    records the actual paper tables, not just timings.
    """
    from repro.analysis.report import coerce_rows, read_results_csv
    from repro.analysis.tables import format_table

    if not RESULTS_DIR.exists():
        return
    paths = sorted(RESULTS_DIR.glob("*.csv"))
    if not paths:
        return
    tr = terminalreporter
    tr.section("reproduced figures and tables (results/)")
    for path in paths:
        # A half-written CSV from a crashed cell must not take down the
        # whole summary: report it and move on.
        try:
            table = format_table(
                coerce_rows(read_results_csv(path)), title=f"[{path.name}]"
            )
        except Exception as exc:
            table = f"[{path.name}] unreadable: {type(exc).__name__}: {exc}"
        tr.write_line("")
        tr.write_line(table)
    if _FAILED_CELLS:
        tr.write_line("")
        tr.write_line(
            f"{len(_FAILED_CELLS)} benchmark cell(s) crashed — see "
            "results/partial_failures.json"
        )
