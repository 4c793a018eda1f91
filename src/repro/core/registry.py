"""The experiment registry: every artifact EXPERIMENTS.md reports.

:data:`EXPERIMENTS` holds one :class:`Experiment` per artifact: Figures
1-10, Table III, the headline numbers, homogeneous scaling and four
ablations, in the report's order.  An entry says how to run its driver
from :mod:`repro.core.experiments`, which CSV tables it writes and the
summary printed under them.  Three consumers loop over it: the CLI
figure commands (``python -m repro <name>``), the paper bench
(``benchmarks/bench_paper.py``) and the report, whose layout is
:func:`report_sections`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.report import Section
from ..analysis.timeline import render_timeline
from ..scheduling.orders import ordering_rows
from .experiments import (
    Fig4Result,
    Fig5Result,
    Fig6Result,
    Fig9Result,
    Fig10Result,
    HeadlineResult,
    HomogeneousResult,
    OrderingResult,
    TimelineStudy,
    ablation_admission,
    ablation_hyperq,
    ablation_ordering_shared,
    ablation_transfers,
    fig1_fig2_timelines,
    fig3_orders,
    fig4_concurrency,
    fig5_oversubscription,
    fig6_effective_latency,
    fig7_ordering_default,
    fig8_ordering_sync,
    fig9_power_concurrency,
    fig10_power_sync,
    headline_numbers,
    homogeneous_scaling,
    table3_geometry,
)
from .runner import ExperimentRunner, RunResult

__all__ = [
    "Table",
    "Experiment",
    "EXPERIMENTS",
    "EXTENSION_SECTIONS",
    "report_sections",
]


@dataclass(frozen=True)
class Table(Section):
    """A report section whose CSV an experiment writes, and its row builder.

    ``rows`` builds the CSV's rows from the experiment's result; a driver
    that already returns its rows keeps the default.
    """

    rows: Callable[[Any], List[dict]] = lambda rows: rows


@dataclass(frozen=True, repr=False)
class Experiment:
    """One reported artifact: how to run it, its tables and its summary.

    ``name`` is also the artifact's CLI command.  ``options`` maps each of
    the command's flags (``--<key>``) to its argparse keywords.  Their
    defaults are the parameters the paper bench runs at, and ``run``
    receives them by key, after ``scale`` and ``runner``.
    """

    name: str
    help: str
    run: Callable[..., Any]
    tables: Tuple[Table, ...]
    summary: Optional[Callable[[Any], str]] = None
    options: Dict[str, dict] = field(default_factory=dict)

    def __call__(
        self,
        scale: Optional[str] = None,
        runner: Optional[ExperimentRunner] = None,
        **options,
    ) -> Any:
        """Run at the bench's parameters, with ``options`` overriding them."""
        params = {key: spec["default"] for key, spec in self.options.items()}
        params.update(options)
        return self.run(scale=scale, runner=runner, **params)

    def __repr__(self) -> str:
        return f"Experiment({self.name!r})"


#: Power-sensor interval of Figures 9 and 10: denser than the paper's
#: 15 ms, because simulated runs last only milliseconds.
POWER_INTERVAL = 5e-3


def _fig1_summary(study: TimelineStudy) -> str:
    default_row = study.rows()[0]
    return (
        render_timeline(
            study.default_trace, width=100,
            title="Figure 1 — default transfers (interleaved copy queue):",
        )
        + "\n\nHtoD app-to-app handovers: "
        f"{default_row['htod_interleaving_switches']} | avg effective latency "
        f"{default_row['avg_effective_latency_ms']:.3f} ms"
    )


def _fig2_summary(study: TimelineStudy) -> str:
    default_row, sync_row = study.rows()
    return (
        render_timeline(
            study.sync_trace, width=100,
            title="Figure 2 — synchronized transfers (per-app bursts):",
        )
        + f"\n\nhandovers: default {default_row['htod_interleaving_switches']} "
        f"-> sync {sync_row['htod_interleaving_switches']}; "
        f"avg Le: {default_row['avg_effective_latency_ms']:.3f} ms -> "
        f"{sync_row['avg_effective_latency_ms']:.3f} ms"
    )


def _fig3_rows(orders: Dict[str, List[str]]) -> List[dict]:
    return [
        {"order": name, "schedule": " ".join(sig)} for name, sig in orders.items()
    ]


def _fig4_rows(result: Fig4Result) -> List[dict]:
    return [
        {
            "pair": f"{r.pair[0]}+{r.pair[1]}",
            "NA": r.num_apps,
            "scenario": r.scenario,
            "NS": r.num_streams,
            "serial_ms": r.serial_makespan * 1e3,
            "concurrent_ms": r.makespan * 1e3,
            "improvement_pct": r.improvement_pct,
        }
        for r in result.rows
    ]


def _fig4_summary(result: Fig4Result) -> str:
    max_half, avg_half = result.stats("half")
    max_full, avg_full = result.stats("full")
    return (
        f"half-concurrent: max {max_half:.1f}% avg {avg_half:.1f}% "
        "(paper: 56% / 23.6%)\n"
        f"full-concurrent: max {max_full:.1f}% avg {avg_full:.1f}% "
        "(paper: 59% / 24.8%)"
    )


def _fig5_summary(result: Fig5Result) -> str:
    return (
        f"requested blocks: {result.total_requested_blocks} "
        f"(ceiling {result.device_block_ceiling}); "
        f"max concurrency {result.max_kernel_concurrency}; "
        f"makespan {result.makespan * 1e6:.0f} us vs serialized "
        f"{result.serialized_makespan * 1e6:.0f} us"
    )


def _fig6_rows(result: Fig6Result) -> List[dict]:
    return [
        {
            "NA": r.num_apps,
            "expected_ms": r.expected_ms,
            "default_ms": r.default_ms,
            "default_vs_expected": r.default_ratio,
            "sync_ms": r.sync_ms,
            "sync_vs_expected": r.sync_ratio,
        }
        for r in result.rows
    ]


def _fig6_summary(result: Fig6Result) -> str:
    return (
        f"worst default stretch: {result.worst_default_ratio:.1f}x "
        "(paper: up to ~8x); sync recovers the expected estimate (~1x)"
    )


def _spread_summary(paper: str) -> Callable[[OrderingResult], str]:
    """Figures 7/8's summary line, against the paper's ``paper`` claim."""

    def summary(result: OrderingResult) -> str:
        mx, avg = result.stats()
        return f"ordering spread: max {mx:.1f}% avg {avg:.1f}% (paper: {paper})"

    return summary


def _fig9_rows(result: Fig9Result) -> List[dict]:
    return [
        {
            "scenario": s.label,
            "NS": s.num_streams,
            "makespan_ms": s.makespan * 1e3,
            "energy_J": s.energy,
            "avg_power_W": s.average_power,
            "peak_power_W": s.peak_power,
            "samples": len(s.samples),
        }
        for s in result.scenarios
    ]


def _fig9_summary(result: Fig9Result) -> str:
    best_pair, best = result.best_energy_improvement
    return (
        f"energy reduction: avg {result.average_energy_improvement:.1f}% "
        f"(paper: 8.5%), best {best:.1f}% on {best_pair[0]}+{best_pair[1]} "
        "(paper: 22.9% on needle+srad)"
    )


def _fig10_rows(result: Fig10Result) -> List[dict]:
    return [
        {
            "scenario": s.label,
            "makespan_ms": s.makespan * 1e3,
            "energy_J": s.energy,
            "avg_power_W": s.average_power,
            "peak_power_W": s.peak_power,
        }
        for s in result.scenarios
    ]


def _fig10_summary(result: Fig10Result) -> str:
    _, best = result.best_energy_improvement
    return (
        f"power delta (sync vs default): {result.power_delta_pct:+.1f}% "
        "(paper: 'not significantly affected'); "
        f"energy reduction avg {result.average_energy_improvement:.1f}% "
        f"(paper: 10.4%), best {best:.1f}% (paper: 25.7%)"
    )


def _energy_rows(result) -> List[dict]:
    """Per-pair energy reduction of a Figure 9 or Figure 10 result."""
    return [
        {"pair": f"{p[0]}+{p[1]}", "energy_improvement_pct": v}
        for p, v in sorted(result.energy_improvement_by_pair.items())
    ]


def _homog_rows(result: HomogeneousResult) -> List[dict]:
    return [
        {
            "app": r.app,
            "NA": r.num_apps,
            "serial_ms": r.serial_makespan * 1e3,
            "concurrent_ms": r.concurrent_makespan * 1e3,
            "improvement_pct": r.improvement_pct,
            "energy_serial_J": r.serial_energy,
            "energy_concurrent_J": r.concurrent_energy,
        }
        for r in result.rows
    ]


def _homog_summary(result: HomogeneousResult) -> str:
    best_app, best = result.best_improvement()
    return f"best self-concurrency gain: {best:.1f}% ({best_app})"


def _shared_summary(result: OrderingResult) -> str:
    spreads = {
        f"{p[0]}+{p[1]}": f"{v:.1f}%" for p, v in result.spread_pct().items()
    }
    return f"ordering spread with stream sharing: {spreads}"


def _hyperq_rows(results: List[Tuple[int, RunResult]]) -> List[dict]:
    fermi_like = results[0][1]
    return [
        {
            "hardware_queues": width,
            "makespan_ms": run.makespan * 1e3,
            "speedup_vs_1_queue": fermi_like.makespan / run.makespan,
            "energy_J": run.energy,
        }
        for width, run in results
    ]


_PAIR_OPTION = dict(nargs=2, default=["gaussian", "needle"])
_APPS_OPTION = dict(type=int, default=32)

#: Every artifact EXPERIMENTS.md reports, keyed by CLI command, in the
#: report's order.
EXPERIMENTS: Dict[str, Experiment] = {experiment.name: experiment for experiment in (
    Experiment(
        "fig1",
        "Figure 1: false serialization in the copy queue",
        run=fig1_fig2_timelines,
        tables=(
            Table(
                title="Figure 1 — false serialization from copy-queue interleaving",
                csv_name="fig01_false_serialization.csv",
                paper_claim=(
                    "Independent streams' small HtoD copies serialize and "
                    "interleave in the single copy queue, stalling kernel "
                    "execution."
                ),
                rows=TimelineStudy.rows,
            ),
        ),
        summary=_fig1_summary,
    ),
    Experiment(
        "fig2",
        "Figure 2: consecutive transfers under the mutex",
        run=fig1_fig2_timelines,
        tables=(
            Table(
                title="Figure 2 — concurrency recovered by transfer synchronization",
                csv_name="fig02_sync_timeline.csv",
                paper_claim=(
                    "With the host-side mutex, each stream's transfers occur "
                    "consecutively, improving kernel-start times and overlap."
                ),
                rows=TimelineStudy.rows,
            ),
        ),
        summary=_fig2_summary,
    ),
    Experiment(
        "fig3",
        "Figure 3: the five launch orders",
        run=lambda scale, runner, m, n: fig3_orders(m=m, n=n),
        tables=(
            Table(
                title="Figure 3 — launch orders",
                csv_name="fig03_orders.csv",
                paper_claim="Five scheduling policies over m=4 X and n=4 Y instances.",
                rows=_fig3_rows,
            ),
        ),
        options={"m": dict(type=int, default=4), "n": dict(type=int, default=4)},
    ),
    Experiment(
        "fig4",
        "Figure 4: concurrency speedup vs serial",
        run=lambda scale, runner, na, pair: fig4_concurrency(
            pairs=[tuple(pair)] if pair else None,
            na_values=na,
            scale=scale,
            runner=runner,
        ),
        tables=(
            Table(
                title="Figure 4 — concurrency speedup over serialized execution",
                csv_name="fig04_concurrency_speedup.csv",
                paper_claim=(
                    "Up to 56% (avg 23.6%) half-concurrent and up to 59% (avg "
                    "24.8%) full-concurrent improvement over serial."
                ),
                rows=_fig4_rows,
            ),
        ),
        summary=_fig4_summary,
        options={
            "na": dict(type=int, nargs="+", default=[8, 16, 32]),
            "pair": dict(nargs=2, default=None, metavar=("X", "Y")),
        },
    ),
    Experiment(
        "fig5",
        "Figure 5: LEFTOVER oversubscription snapshot",
        run=lambda scale, runner: fig5_oversubscription(),
        tables=(
            Table(
                title="Figure 5 — LEFTOVER oversubscription snapshot",
                csv_name="fig05_oversubscription.csv",
                paper_claim=(
                    "Five kernels totalling 1203 thread blocks (> the K20's "
                    "208 ceiling) overlap on five streams under the lazy "
                    "policy."
                ),
                rows=Fig5Result.rows,
            ),
        ),
        summary=_fig5_summary,
    ),
    Experiment(
        "fig6",
        "Figure 6: effective transfer latency",
        run=lambda scale, runner, pair, na: fig6_effective_latency(
            pair=tuple(pair), na_values=na, scale=scale, runner=runner
        ),
        tables=(
            Table(
                title="Figure 6 — effective memory transfer latency",
                csv_name="fig06_effective_latency.csv",
                paper_claim=(
                    "Default concurrency stretches the average effective HtoD "
                    "latency up to ~8x over expectation; the mutex restores "
                    "it."
                ),
                rows=_fig6_rows,
            ),
        ),
        summary=_fig6_summary,
        options={
            "pair": _PAIR_OPTION,
            "na": dict(type=int, nargs="+", default=[4, 8, 16, 32]),
        },
    ),
    Experiment(
        "fig7",
        "Figure 7: ordering effect (default memory)",
        run=lambda scale, runner, apps: fig7_ordering_default(
            num_apps=apps, scale=scale, runner=runner
        ),
        tables=(
            Table(
                title="Figure 7 — ordering effect (default transfers)",
                csv_name="fig07_ordering_default.csv",
                paper_claim="Order affects performance by up to 9.4% (avg 3.8%).",
                rows=ordering_rows,
            ),
        ),
        summary=_spread_summary("up to 9.4%, avg 3.8%"),
        options={"apps": _APPS_OPTION},
    ),
    Experiment(
        "fig8",
        "Figure 8: ordering effect (memory sync)",
        run=lambda scale, runner, apps: fig8_ordering_sync(
            num_apps=apps, scale=scale, runner=runner
        ),
        tables=(
            Table(
                title="Figure 8 — ordering effect (memory sync)",
                csv_name="fig08_ordering_sync.csv",
                paper_claim="Order affects performance by up to 31.8% (avg 7.8%).",
                rows=ordering_rows,
            ),
        ),
        summary=_spread_summary("up to 31.8%, avg 7.8%"),
        options={"apps": _APPS_OPTION},
    ),
    Experiment(
        "fig9",
        "Figure 9: power serial/half/full",
        run=lambda scale, runner, pair, apps: fig9_power_concurrency(
            pair=tuple(pair),
            num_apps=apps,
            scale=scale,
            runner=runner,
            power_interval=POWER_INTERVAL,
        ),
        tables=(
            Table(
                title="Figure 9 — power under increasing concurrency",
                csv_name="fig09_power_concurrency.csv",
                paper_claim=(
                    "Peak power rises slightly with concurrency; energy drops "
                    "8.5% on average (up to 22.9% for needle+srad)."
                ),
                rows=_fig9_rows,
            ),
            Table(
                title="Figure 9 (energy per pair)",
                csv_name="fig09_energy_by_pair.csv",
                paper_claim="Full-concurrent energy reduction per heterogeneous pair.",
                rows=_energy_rows,
            ),
        ),
        summary=_fig9_summary,
        options={"pair": _PAIR_OPTION, "apps": _APPS_OPTION},
    ),
    Experiment(
        "fig10",
        "Figure 10: power default vs sync",
        run=lambda scale, runner, pair, apps: fig10_power_sync(
            pair=tuple(pair),
            num_apps=apps,
            scale=scale,
            runner=runner,
            power_interval=POWER_INTERVAL,
        ),
        tables=(
            Table(
                title="Figure 10 — power with default vs synchronized transfers",
                csv_name="fig10_power_sync.csv",
                paper_claim=(
                    "Synchronization does not significantly change power; "
                    "energy improves 10.4% on average (up to 25.7%)."
                ),
                rows=_fig10_rows,
            ),
            Table(
                title="Figure 10 (energy per pair)",
                csv_name="fig10_energy_by_pair.csv",
                paper_claim="Sync energy reduction vs serial per pair.",
                rows=_energy_rows,
            ),
        ),
        summary=_fig10_summary,
        options={"pair": _PAIR_OPTION, "apps": _APPS_OPTION},
    ),
    Experiment(
        "table3",
        "Table III: launch geometry",
        # Table III is defined at the paper's sizes, whatever the scale.
        run=lambda scale, runner: table3_geometry(scale="paper"),
        tables=(
            Table(
                title="Table III — kernel launch geometry",
                csv_name="table3_geometry.csv",
                paper_claim="Grid/block dimensions, calls, #TB and #TPB per kernel.",
            ),
        ),
    ),
    Experiment(
        "headline",
        "the abstract's aggregate numbers",
        run=lambda scale, runner, apps: headline_numbers(
            num_apps=apps, scale=scale, runner=runner
        ),
        tables=(
            Table(
                title="Headline numbers",
                csv_name="headline_numbers.csv",
                paper_claim="The abstract's aggregate claims, paper vs measured.",
                rows=HeadlineResult.rows,
            ),
        ),
        options={"apps": _APPS_OPTION},
    ),
    Experiment(
        "homog",
        "homogeneous self-concurrency scaling",
        run=lambda scale, runner, apps, na: homogeneous_scaling(
            apps=apps, na_values=na, scale=scale, runner=runner
        ),
        tables=(
            Table(
                title="Homogeneous self-concurrency scaling",
                csv_name="homogeneous_scaling.csv",
                paper_claim=(
                    "(Section IV's homogeneous case.) Underutilizers gain most "
                    "from running copies of themselves concurrently."
                ),
                rows=_homog_rows,
            ),
        ),
        summary=_homog_summary,
        options={
            "apps": dict(nargs="+", default=None, metavar="APP"),
            "na": dict(type=int, nargs="+", default=[4, 8, 16]),
        },
    ),
    Experiment(
        "ablation-ordering-shared",
        "ablation: launch order with shared streams (NA = 2 NS)",
        run=ablation_ordering_shared,
        tables=(
            Table(
                title="Ablation — ordering with shared streams (NA = 2 NS)",
                csv_name="ablation_ordering_shared.csv",
                paper_claim=(
                    "(Section III-C's motivation.) With fewer streams than "
                    "applications, launch order also decides who serializes "
                    "behind whom on a shared stream."
                ),
                rows=ordering_rows,
            ),
        ),
        summary=_shared_summary,
    ),
    Experiment(
        "ablation-hyperq",
        "ablation: Hyper-Q hardware queue width",
        run=ablation_hyperq,
        tables=(
            Table(
                title="Ablation — Hyper-Q hardware queue width",
                csv_name="ablation_hyperq_width.csv",
                paper_claim=(
                    "(Not a paper figure.) Fermi-style single queue vs "
                    "Kepler's 32: what Hyper-Q itself buys."
                ),
                rows=_hyperq_rows,
            ),
        ),
    ),
    Experiment(
        "ablation-admission",
        "ablation: LEFTOVER vs symbiosis admission",
        run=ablation_admission,
        tables=(
            Table(
                title="Ablation — LEFTOVER vs symbiosis admission",
                csv_name="ablation_admission.csv",
                paper_claim=(
                    "(Not a paper figure.) The lazy policy does no worse than "
                    "the resource-sum admission control it replaces."
                ),
            ),
        ),
    ),
    Experiment(
        "ablation-transfers",
        "ablation: transfer policies",
        run=ablation_transfers,
        tables=(
            Table(
                title="Ablation — transfer policies",
                csv_name="ablation_transfers.csv",
                paper_claim=(
                    "(Not a paper figure.) Batching (the mutex) vs Pai et al. "
                    "chunking vs a FIFO copy queue."
                ),
            ),
        ),
    ),
)}


#: The extension benches' sections, which follow the registry's tables in
#: the report.
EXTENSION_SECTIONS: List[Section] = [
    Section(
        title="Resilience — fault-injection overhead",
        csv_name="resilience_overhead.csv",
        paper_claim=(
            "(Not a paper figure.) With the resilience hooks enabled but no "
            "faults planned, the Figure 4 sweep's results are identical and "
            "the wall-clock overhead stays under 2%."
        ),
    ),
    Section(
        title="Serving — goodput under overload",
        csv_name="serving_overload.csv",
        paper_claim=(
            "(Future-work extension.) Under a 2x-overload arrival stream, "
            "bounded admission plus deadline-aware shedding achieves higher "
            "goodput and a bounded p99 sojourn than unbounded greedy "
            "dispatch, which completes more jobs but lands them late."
        ),
    ),
    Section(
        title="Scheduling — adaptive vs the five static orders",
        csv_name="scheduler_policies.csv",
        paper_claim=(
            "(Future-work extension.) The greedy transfer/compute "
            "interleaving and the per-mix bandit each reach a makespan no "
            "worse than the median static order on every Figure 8 pair; "
            "after its exploration pass the bandit matches the best static "
            "order within 5%."
        ),
    ),
]


def report_sections() -> List[Section]:
    """Report layout: every table of the registry, in paper order, then
    the extension benches' sections."""
    return [
        table for experiment in EXPERIMENTS.values() for table in experiment.tables
    ] + EXTENSION_SECTIONS
