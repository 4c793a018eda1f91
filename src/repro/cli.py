"""Command-line interface: ``python -m repro <experiment>``.

Runs any of the paper's experiments and prints (and optionally saves) the
resulting tables and timelines.  Examples::

    python -m repro list
    python -m repro --scale small fig4 --na 8 16
    python -m repro fig6 --pair gaussian needle
    python -m repro timeline --pair gaussian needle --apps 8 --sync
    python -m repro --scale small --out results/ headline

Every artifact EXPERIMENTS.md reports (``fig1``..``fig10``, ``table3``,
``headline``, ``homog`` and the ``ablation-*`` commands) is one entry of
:data:`repro.core.registry.EXPERIMENTS`: its command prints the same
tables and summary as ``benchmarks/bench_paper.py``, and ``--out`` writes
the same CSVs under the same names as ``results/``.

The ``--scale`` flag selects the problem-size profile (``paper`` is the
Table III default; ``small``/``tiny`` run in seconds).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.tables import format_table, write_csv
from .analysis.timeline import render_timeline
from .apps.registry import all_pairs, list_apps
from .core.registry import EXPERIMENTS, report_sections

__all__ = ["main", "build_parser"]


def _add_journal_args(
    p: argparse.ArgumentParser,
    journal_help: str,
    resume_help: str = "resume a crashed run from --journal",
) -> None:
    """The ``--journal PATH`` / ``--resume`` pair of a crash-safe command."""
    p.add_argument("--journal", type=Path, default=None, help=journal_help)
    p.add_argument("--resume", action="store_true", help=resume_help)


def _add_traffic_args(
    p: argparse.ArgumentParser,
    after_cap=lambda p: None,
    before_seed=lambda p: None,
) -> None:
    """The Poisson traffic, dispatcher and SLO options of ``serve``/``trace``.

    ``after_cap`` and ``before_seed`` add a subcommand's own options at
    those two places, so ``--help`` lists them where it always has.
    """
    p.add_argument("--rate", type=float, default=12000.0,
                   help="mean arrivals per second")
    p.add_argument("--duration", type=float, default=0.006,
                   help="arrival-trace length (simulated seconds)")
    p.add_argument("--streams", type=int, default=16)
    p.add_argument("--cap", type=int, default=4,
                   help="concurrency cap (0 = greedy/unbounded)")
    after_cap(p)
    p.add_argument("--slo", type=float, default=4.0,
                   help="SLO deadline as a multiple of the serial-baseline "
                   "runtime (0 disables SLOs)")
    p.add_argument("--slo-jitter", type=float, default=0.1,
                   help="relative per-job deadline jitter")
    before_seed(p)
    p.add_argument("--seed", type=int, default=7)


def _traffic(args: argparse.Namespace):
    """The arrivals and dispatcher an :func:`_add_traffic_args` group asks for."""
    from .serving import (
        ConcurrencyCapDispatcher,
        GreedyDispatcher,
        poisson_arrivals,
    )

    arrivals = poisson_arrivals(
        rate=args.rate,
        duration=args.duration,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=args.seed,
    )
    dispatcher = (
        ConcurrencyCapDispatcher(args.cap) if args.cap > 0
        else GreedyDispatcher()
    )
    return arrivals, dispatcher


def _serve_queue_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qdepth", type=int, default=8,
                   help="admission queue depth (0 = unbounded)")
    p.add_argument("--qpolicy", default="shed-oldest",
                   choices=("block", "reject", "shed-oldest"),
                   help="backpressure policy when the queue is full")


def _serve_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-shed", action="store_true",
                   help="keep jobs whose deadline is already unreachable")
    p.add_argument("--breaker", type=int, default=0,
                   help="consecutive faults that open an app type's circuit "
                   "breaker (0 disables breakers)")
    p.add_argument("--breaker-cooldown", type=float, default=None,
                   help="seconds an open breaker waits before its half-open "
                   "probe (default: duration/10)")
    p.add_argument("--launch-fails", type=float, default=0.0,
                   help="expected transient launch failures over the run")
    p.add_argument("--crash-at", type=float, default=None,
                   help="kill the harness at this simulated time "
                   "(exercise the journal)")
    _add_journal_args(p, "crash-safe JSONL outcome journal path")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-hyperq",
        description=(
            "Reproduction of 'Effective Utilization of CUDA Hyper-Q for "
            "Improved Power and Performance Efficiency' on a simulated "
            "Tesla K20."
        ),
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=("paper", "small", "tiny"),
        help="problem-size profile (default: REPRO_SCALE env or 'paper')",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for CSV output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and experiment names")

    for experiment in EXPERIMENTS.values():
        p = sub.add_parser(experiment.name, help=experiment.help)
        for key, spec in experiment.options.items():
            p.add_argument(f"--{key}", **spec)

    p = sub.add_parser("timeline", help="Figures 1/2: render copy timelines")
    p.add_argument("--pair", nargs=2, default=["gaussian", "needle"])
    p.add_argument("--apps", type=int, default=8)
    p.add_argument("--sync", action="store_true", help="enable the transfer mutex")
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser(
        "autotune",
        help="search launch orders beyond the five named policies",
    )
    p.add_argument("--pair", nargs=2, default=["nn", "srad"])
    p.add_argument("--apps", type=int, default=16)
    p.add_argument("--objective", default="makespan",
                   choices=("makespan", "energy", "edp"))
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--swaps", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "streaming",
        help="online dispatch of a Poisson job stream (future-work demo)",
    )
    p.add_argument("--rate", type=float, default=12000.0)
    p.add_argument("--duration", type=float, default=0.006)
    p.add_argument("--streams", type=int, default=16)
    p.add_argument("--power-cap", type=float, default=70.0)

    p = sub.add_parser(
        "serve",
        help="overload-resilient serving: bounded admission, SLO shedding, "
        "breakers, crash-safe journal",
    )
    _add_traffic_args(
        p, after_cap=_serve_queue_args, before_seed=_serve_fault_args
    )

    p = sub.add_parser(
        "schedule",
        help="adaptive batch scheduling: online ordering, sync and width",
    )
    p.add_argument("--policy", default="bandit",
                   help="scheduling policy (see repro.scheduling.POLICY_NAMES)")
    p.add_argument("--pair", nargs=2, default=["gaussian", "needle"])
    p.add_argument("--apps", type=int, default=8,
                   help="instances per batch (split across the pair)")
    p.add_argument("--batches", type=int, default=12,
                   help="number of admitted batches to serve")
    p.add_argument("--width", type=int, default=None,
                   help="stream-width cap per batch (default: batch size)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="bandit exploration probability")
    _add_journal_args(p, "crash-safe decision journal path")
    p.add_argument("--crash-after", type=int, default=None, metavar="N",
                   help="kill the run after N batches (exercise the journal)")

    p = sub.add_parser(
        "resilience",
        help="fault-injection study: clean vs faulted run of one cell",
    )
    p.add_argument("--pair", nargs=2, default=["gaussian", "needle"])
    p.add_argument("--apps", type=int, default=8)
    p.add_argument("--streams", type=int, default=None,
                   help="NS (default: one stream per app)")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the fault plan and retry jitter")
    p.add_argument("--hangs", type=float, default=1.0,
                   help="expected kernel hangs over the run")
    p.add_argument("--launch-fails", type=float, default=1.0,
                   help="expected transient launch failures")
    p.add_argument("--dma-stalls", type=float, default=1.0,
                   help="expected DMA engine stalls")
    p.add_argument("--dropouts", type=float, default=1.0,
                   help="expected power-sensor dropouts")
    p.add_argument("--hang-factor", type=float, default=20.0,
                   help="slowdown multiplier of a hung kernel")
    p.add_argument("--deadline-factor", type=float, default=4.0,
                   help="watchdog deadline as a multiple of serial runtime")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--degrade-threshold", type=int, default=2,
                   help="faults per concurrency-halving step (0 disables)")

    p = sub.add_parser(
        "fleet",
        help="multi-device fleet: health-checked failover and checkpointed "
        "app migration",
    )
    p.add_argument("--pair", nargs=2, default=["gaussian", "needle"])
    p.add_argument("--apps", type=int, default=8)
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--streams", type=int, default=2,
                   help="streams per device")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lose", type=int, default=None, metavar="DEV",
                   help="device index to lose mid-run")
    p.add_argument("--lose-at", type=float, default=None, metavar="T",
                   help="absolute simulated time of the loss (default: "
                   "mid-run, measured from a clean baseline)")
    p.add_argument("--throttle", type=int, default=None, metavar="DEV",
                   help="device index to thermally throttle")
    p.add_argument("--throttle-at", type=float, default=0.0, metavar="T",
                   help="throttle window start (absolute simulated time)")
    p.add_argument("--throttle-factor", type=float, default=4.0,
                   help="slowdown multiplier inside the throttle window")
    p.add_argument("--throttle-for", type=float, default=2e-3, metavar="S",
                   help="throttle window length (simulated seconds)")
    p.add_argument("--gray", type=int, default=None, metavar="DEV",
                   help="device index to gray-degrade: it keeps "
                   "heartbeating but runs slow")
    p.add_argument("--gray-kind", default="smx_slowdown",
                   choices=["smx_slowdown", "dma_stretch", "clock_jitter"],
                   help="degradation flavor (default: smx_slowdown)")
    p.add_argument("--gray-at", type=float, default=0.0, metavar="T",
                   help="degradation window start (absolute simulated time)")
    p.add_argument("--gray-for", type=float, default=1.0, metavar="S",
                   help="degradation window length (simulated seconds)")
    p.add_argument("--gray-factor", type=float, default=4.0,
                   help="latency stretch inside the gray window")
    p.add_argument("--domains", type=int, default=None, metavar="RAILS",
                   help="attach a fault-domain topology with this many "
                   "power rails (devices split into contiguous blocks)")
    p.add_argument("--blast", nargs=2, default=None,
                   metavar=("LEVEL", "INDEX"),
                   help="correlated loss of one whole fault domain, e.g. "
                   "'--blast rail 0' (requires --domains)")
    p.add_argument("--blast-at", type=float, default=None, metavar="T",
                   help="absolute simulated time of the blast (default: "
                   "mid-run, measured from a clean baseline)")
    p.add_argument("--blast-skew", type=float, default=0.0, metavar="S",
                   help="stagger the domain members' failures uniformly "
                   "over [0, S) seconds (rails collapse, not step)")
    p.add_argument("--storm-control", action="store_true",
                   help="pace failover through the capacity-aware "
                   "migration queue instead of migrating all at once")
    p.add_argument("--storm-inflight", type=int, default=None,
                   help="recovery slots per surviving device "
                   "(default: StormControlConfig)")
    p.add_argument("--storm-pace", type=float, default=None,
                   help="migration queue drain period in simulated "
                   "seconds (default: StormControlConfig)")
    p.add_argument("--hedge", action="store_true",
                   help="enable straggler detection and hedged execution")
    p.add_argument("--hedge-budget", type=float, default=None,
                   help="duplicate-work budget as a fraction of the "
                   "batch's kernels (default: HedgeConfig)")
    p.add_argument("--hedge-interval", type=float, default=None,
                   help="straggler scan interval in simulated seconds "
                   "(default: HedgeConfig)")
    p.add_argument("--heartbeat", type=float, default=None,
                   help="health heartbeat interval (default: FleetConfig)")
    p.add_argument("--detect-latency", type=float, default=None,
                   help="loss detection latency (default: FleetConfig)")
    p.add_argument("--no-failover", action="store_true",
                   help="let apps on a lost device fail instead of migrating")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="migrate from scratch instead of the last checkpoint")
    p.add_argument("--crash-at", type=float, default=None,
                   help="kill the harness at this simulated time "
                   "(exercise the journal)")
    _add_journal_args(p, "crash-safe JSONL checkpoint/failover journal path")

    p = sub.add_parser(
        "telemetry",
        help="run one cell with live telemetry: metrics table, sparklines, "
        "optional Prometheus/JSONL dumps",
    )
    p.add_argument("--pair", nargs=2, default=["gaussian", "needle"])
    p.add_argument("--apps", type=int, default=8)
    p.add_argument("--streams", type=int, default=None,
                   help="NS (default: one stream per app)")
    p.add_argument("--sync", action="store_true",
                   help="enable the transfer mutex (Figure 8 memory mode)")
    p.add_argument("--interval", type=float, default=None,
                   help="sample interval in simulated seconds (default: the "
                   "15 ms sensor rate; use ~makespan/100 for dense lines)")
    p.add_argument("--filter", default=None, metavar="SUBSTR",
                   help="only show series whose key contains SUBSTR")
    p.add_argument("--width", type=int, default=40,
                   help="sparkline width in columns")
    p.add_argument("--prom", type=Path, default=None, metavar="FILE",
                   help="write Prometheus text exposition here")
    p.add_argument("--jsonl", type=Path, default=None, metavar="FILE",
                   help="write JSONL metric snapshots here")

    p = sub.add_parser(
        "trace",
        help="causal tracing: per-app critical paths, SLO burn-rate "
        "alerts, Chrome/OTLP span export",
    )
    _add_traffic_args(p)
    p.add_argument("--top", type=int, default=5,
                   help="how many slowest traces to break down")
    p.add_argument("--burn-budget", type=float, default=0.05,
                   help="SLO error budget for the burn-rate monitor "
                   "(fraction of requests allowed to miss)")
    p.add_argument("--chrome", type=Path, default=None, metavar="FILE",
                   help="write a Chrome/Perfetto trace with the causal "
                   "spans merged in")
    p.add_argument("--otlp", type=Path, default=None, metavar="FILE",
                   help="write OTLP-shaped JSONL spans here")
    p.add_argument("--alerts", type=Path, default=None, metavar="FILE",
                   help="journal burn-rate alert records here (fenced, "
                   "crash-safe)")

    p = sub.add_parser(
        "traffic",
        help="multi-tenant traffic scenarios: open-loop serving, trace "
        "record/replay, per-policy SLO-goodput leaderboards",
    )
    p.add_argument("--scenario", default="steady",
                   help="canonical scenario: steady, burst, diurnal or "
                   "overload")
    p.add_argument("--requests", type=int, default=2000,
                   help="arrivals to stream through the scenario")
    p.add_argument("--policy", default="reject",
                   help="queue policy (block/reject/shed-oldest) or "
                   "'greedy' (unbounded admission)")
    p.add_argument("--cap", type=int, default=None,
                   help="concurrency cap (default: the scenario's)")
    p.add_argument("--qdepth", type=int, default=64,
                   help="admission queue depth")
    p.add_argument("--streams", type=int, default=16)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed")
    p.add_argument("--record", type=Path, default=None, metavar="FILE",
                   help="record the arrival trace to FILE (checksummed, "
                   "with a FILE.cursor sidecar for crash-resume) and exit")
    p.add_argument("--replay", type=Path, default=None, metavar="FILE",
                   help="serve from a recorded trace instead of generating "
                   "inline (fingerprint-checked)")
    _add_journal_args(
        p,
        "crash-safe serving outcome journal path",
        resume_help="resume a crashed run (serving journal or trace "
        "recording)",
    )
    p.add_argument("--batched", action="store_true",
                   help="score batch-scheduler policies on the scenario "
                   "instead (SLO-goodput leaderboard)")
    p.add_argument("--policies", nargs="+",
                   default=["bandit", "naive-fifo", "reverse-fifo"],
                   help="with --batched: scheduler policies to sweep")
    p.add_argument("--batch-size", type=int, default=8,
                   help="with --batched: admission batch size")

    p = sub.add_parser(
        "verify",
        help="scan (and optionally repair) crash-safe journals offline",
    )
    p.add_argument("paths", type=Path, nargs="+", metavar="JOURNAL",
                   help="journal/checkpoint files to check")
    p.add_argument("--repair", action="store_true",
                   help="truncate each file to its valid prefix, "
                   "quarantining the corrupt suffix to a sidecar")
    p.add_argument("--no-quarantine", action="store_true",
                   help="with --repair, discard the corrupt suffix instead "
                   "of writing the .quarantine sidecar")

    p = sub.add_parser(
        "report",
        help="assemble EXPERIMENTS-style markdown from results/ CSVs",
    )
    p.add_argument(
        "--results", type=Path, default=Path("results"),
        help="directory with the benchmark CSVs",
    )
    p.add_argument(
        "--write", type=Path, default=None,
        help="write the report to this file instead of stdout",
    )

    return parser


def _emit(rows: List[dict], title: str, out: Optional[Path], name: str) -> None:
    print(format_table(rows, title=title))
    if out is not None:
        path = write_csv(rows, out / f"{name}.csv")
        print(f"(wrote {path})")


def _report_crash(crash: Exception, journal: Optional[Path]) -> int:
    """Report a mid-run harness crash; exit code 3 means "resumable"."""
    print(f"harness crashed mid-run: {crash}")
    if journal is not None:
        print(
            f"journal preserved at {journal}; rerun with "
            "--resume to recover deterministically"
        )
    return 3


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    scale = args.scale
    out = args.out

    if args.command == "list":
        print("applications:", ", ".join(list_apps()))
        print("pairs:", ", ".join(f"{x}+{y}" for x, y in all_pairs()))
        print(
            "experiments:", *EXPERIMENTS, "timeline autotune streaming serve "
            "schedule resilience fleet telemetry trace traffic verify report"
        )
        return 0

    if args.command == "verify":
        # Offline integrity pass: no experiment stack needed, just the
        # record layer.  Exit 0 only if every file is (or was repaired to)
        # a clean valid prefix.
        from .integrity.record import (
            UnknownJournalFormat,
            recover_file,
            scan_file,
        )

        bad = 0
        for path in args.paths:
            try:
                if args.repair:
                    _, _, report = recover_file(
                        path, quarantine=not args.no_quarantine
                    )
                else:
                    _, _, report, _ = scan_file(path)
            except FileNotFoundError:
                print(f"{path}: no such file")
                bad += 1
                continue
            except UnknownJournalFormat as exc:
                print(f"{path}: {exc}")
                bad += 1
                continue
            print(report.describe())
            if not report.clean and not args.repair:
                bad += 1
        return 1 if bad else 0

    experiment = EXPERIMENTS.get(args.command)
    if experiment is not None:
        result = experiment(
            scale=scale,
            **{key: getattr(args, key) for key in experiment.options},
        )
        for table in experiment.tables:
            _emit(table.rows(result), table.title, out, Path(table.csv_name).stem)
        if experiment.summary is not None:
            print(experiment.summary(result))
        return 0

    if args.command == "timeline":
        from .core.runner import quick_run

        run = quick_run(
            pair=tuple(args.pair),
            num_apps=args.apps,
            num_streams=args.apps,
            memory_sync=args.sync,
            scale=scale,
        )
        label = "Figure 2 (memory sync)" if args.sync else "Figure 1 (default)"
        trace = run.harness.trace
        print(render_timeline(trace, width=args.width, title=label))
        print(run.summary())
        from .analysis.profile_summary import kernel_summary, transfer_summary

        print()
        print(format_table(kernel_summary(trace), title="Kernel summary"))
        print()
        print(format_table(transfer_summary(trace), title="Transfer summary"))
        return 0

    if args.command == "autotune":
        from .core.autotune import OrderSearch
        from .core.workload import Workload
        from .scheduling.orders import schedule_signature

        workload = Workload.heterogeneous_pair(*args.pair, args.apps, scale=scale)
        search = OrderSearch(
            workload,
            num_streams=args.apps,
            objective=args.objective,
            seed=args.seed,
        )
        result = search.search(restarts=args.restarts, swaps_per_climb=args.swaps)
        rows = [
            {"seed_policy": name, args.objective: value}
            for name, value in sorted(result.seed_values.items(), key=lambda kv: kv[1])
        ]
        _emit(rows, f"Seed policies ({args.objective})", out, "autotune_seeds")
        print(
            f"\nbest after search: {result.best_value:.6g} "
            f"({result.evaluations} harness runs)"
        )
        print(
            f"vs best named policy : {result.improvement_over_best_seed_pct:+.2f}%"
        )
        print(
            f"vs worst named policy: {result.improvement_over_worst_seed_pct:+.2f}%"
        )
        signature = schedule_signature(workload.types, result.best_schedule)
        print("best schedule:", " ".join(signature))
        return 0

    if args.command == "resilience":
        from .core.runner import ExperimentRunner, RunConfig
        from .core.workload import Workload
        from .resilience import FaultPlan, ResilienceConfig, RetryPolicy

        streams = args.streams if args.streams is not None else args.apps
        workload = Workload.heterogeneous_pair(*args.pair, args.apps, scale=scale)
        runner = ExperimentRunner()
        clean = runner.run(
            RunConfig(workload=workload, num_streams=streams, seed=args.seed)
        )
        # Faults are planned over the clean run's horizon so the requested
        # expected counts are scale-independent.
        horizon = clean.harness.makespan
        plan = FaultPlan.generate(
            args.seed,
            horizon,
            kernel_hang_rate=args.hangs / horizon,
            launch_fail_rate=args.launch_fails / horizon,
            dma_stall_rate=args.dma_stalls / horizon,
            power_dropout_rate=args.dropouts / horizon,
            targets=tuple(args.pair),
            hang_factor=args.hang_factor,
            stall_duration=horizon * 0.1,
            dropout_duration=horizon * 0.1,
        )
        resil = ResilienceConfig(
            plan=plan,
            retry=RetryPolicy(
                max_attempts=args.max_attempts, base_delay=horizon * 0.01
            ),
            deadline_factor=args.deadline_factor,
            degradation_threshold=args.degrade_threshold,
            seed=args.seed,
        )
        faulted = runner.run(
            RunConfig(
                workload=workload,
                num_streams=streams,
                seed=args.seed,
                resilience=resil,
            )
        )
        rows = []
        for label, run in (("clean", clean), ("faulted", faulted)):
            summary = run.harness.resilience
            rows.append(
                {
                    "scenario": label,
                    "makespan_ms": run.makespan * 1e3,
                    "energy_J": run.energy,
                    "avg_power_W": run.average_power,
                    "completed": sum(
                        1 for r in run.harness.records if not r.failed
                    ),
                    "failed": sum(1 for r in run.harness.records if r.failed),
                    "retries": summary.retries if summary is not None else 0,
                }
            )
        _emit(
            rows,
            f"Resilience — {args.pair[0]}+{args.pair[1]} NA={args.apps} "
            f"NS={streams} ({len(plan)} planned faults)",
            out,
            "resilience",
        )
        summary = faulted.harness.resilience
        _emit(
            [{"metric": k, "value": v} for k, v in summary.rows()],
            "Resilience summary (faulted run)",
            out,
            "resilience_summary",
        )
        return 0

    if args.command == "fleet":
        import numpy as np

        from .core.workload import Workload
        from .fleet import (
            FleetConfig,
            FleetHarness,
            HedgeConfig,
            StormControlConfig,
            TopologyConfig,
        )
        from .fleet.topology import FleetTopology
        from .scheduling.orders import SchedulingOrder
        from .resilience.faults import FaultKind, FaultPlan, FaultSpec
        from .sim.errors import HarnessCrash

        workload = Workload.heterogeneous_pair(*args.pair, args.apps, scale=scale)

        def instantiate():
            rng = np.random.default_rng(args.seed)
            schedule = workload.schedule(SchedulingOrder.NAIVE_FIFO, rng=rng)
            return workload.instantiate(schedule)

        fleet_kwargs = dict(
            num_devices=args.devices,
            failover=not args.no_failover,
            checkpoint=not args.no_checkpoint,
            seed=args.seed,
        )
        if args.heartbeat is not None:
            fleet_kwargs["heartbeat_interval"] = args.heartbeat
        if args.detect_latency is not None:
            fleet_kwargs["detection_latency"] = args.detect_latency
        if args.hedge:
            hedge_kwargs = {}
            if args.hedge_budget is not None:
                hedge_kwargs["budget_fraction"] = args.hedge_budget
            if args.hedge_interval is not None:
                hedge_kwargs["check_interval"] = args.hedge_interval
            fleet_kwargs["hedging"] = HedgeConfig(**hedge_kwargs)
        topology = None
        if args.domains is not None:
            fleet_kwargs["topology"] = TopologyConfig(rails=args.domains)
            topology = FleetTopology(args.devices, fleet_kwargs["topology"])
        if args.storm_control:
            storm_kwargs = {}
            if args.storm_inflight is not None:
                storm_kwargs["max_inflight_per_device"] = args.storm_inflight
            if args.storm_pace is not None:
                storm_kwargs["pace_interval"] = args.storm_pace
            fleet_kwargs["storm"] = StormControlConfig(**storm_kwargs)
        fleet = FleetConfig(**fleet_kwargs)

        blast_members = ()
        if args.blast is not None:
            if topology is None:
                print("--blast requires --domains", file=sys.stderr)
                return 2
            level, index = args.blast[0], int(args.blast[1])
            blast_members = topology.members(level, index)

        def _mid_run(devices):
            # Measure a clean baseline to place the loss mid-run on the
            # target device(s) (fault times are absolute simulated
            # seconds, and the interesting window depends on the
            # schedule).
            baseline = FleetHarness(
                instantiate(), fleet,
                num_streams=args.streams, seed=args.seed,
            ).run()
            spans = [
                r for r in baseline.records if r.device_index in devices
            ]
            if spans:
                target = max(spans, key=lambda r: r.complete_time - r.gpu_start)
                return (target.gpu_start + target.complete_time) / 2
            return baseline.makespan / 2

        lose_at = args.lose_at
        if args.lose is not None and lose_at is None:
            lose_at = _mid_run({args.lose % args.devices})

        faults = []
        if blast_members:
            blast_at = args.blast_at
            if blast_at is None:
                blast_at = _mid_run(set(blast_members))
            faults.extend(
                FaultPlan.correlated(
                    blast_members,
                    kind=FaultKind.DEVICE_LOSS,
                    time=blast_at,
                    skew=args.blast_skew,
                    seed=args.seed,
                ).faults
            )
        if args.lose is not None:
            faults.append(
                FaultSpec(
                    kind=FaultKind.DEVICE_LOSS, time=lose_at, device=args.lose
                )
            )
        if args.throttle is not None:
            faults.append(
                FaultSpec(
                    kind=FaultKind.DEVICE_THROTTLE,
                    time=args.throttle_at,
                    device=args.throttle,
                    factor=args.throttle_factor,
                    duration=args.throttle_for,
                )
            )
        if args.crash_at is not None:
            faults.append(
                FaultSpec(kind=FaultKind.HARNESS_CRASH, time=args.crash_at)
            )
        if args.gray is not None:
            # FaultPlan.gray validates the kind and builds the window;
            # fold its specs into the combined plan.
            faults.extend(
                FaultPlan.gray(
                    args.gray,
                    kind=args.gray_kind,
                    start=args.gray_at,
                    duration=args.gray_for,
                    factor=args.gray_factor,
                ).faults
            )

        try:
            result = FleetHarness(
                instantiate(),
                fleet,
                num_streams=args.streams,
                plan=FaultPlan(faults) if faults else None,
                seed=args.seed,
                journal_path=args.journal,
                resume=args.resume,
            ).run()
        except HarnessCrash as crash:
            return _report_crash(crash, args.journal)

        rows = [
            {
                "device": d.index,
                **({"domain": d.domain} if d.domain is not None else {}),
                "state": d.state,
                "lost_at_ms": (
                    d.loss_time * 1e3 if d.loss_time is not None else ""
                ),
                "detected_ms": (
                    d.detected_time * 1e3
                    if d.detected_time is not None else ""
                ),
                "apps_completed": d.apps_completed,
                "goodput_per_s": d.goodput(result.makespan),
                "energy_J": d.energy,
                "peak_power_W": d.peak_power,
            }
            for d in result.devices
        ]
        _emit(
            rows,
            f"Fleet — {args.pair[0]}+{args.pair[1]} NA={args.apps} on "
            f"{args.devices} devices x {args.streams} streams",
            out,
            "fleet",
        )
        if result.recoveries:
            _emit(
                [
                    {
                        "device": r["device"],
                        **(
                            {"domain": topology.label(r["device"])}
                            if topology is not None
                            else {}
                        ),
                        "lost_ms": r["lost"] * 1e3,
                        "detected_ms": r["detected"] * 1e3,
                        "resumed_ms": r["resumed"] * 1e3,
                        "apps_migrated": len(r["apps"]),
                        "reexecuted_kernels": r["reexecuted_kernels"],
                    }
                    for r in result.recoveries
                ],
                "Recovery timeline",
                out,
                "fleet_recoveries",
            )
        if result.storm_queued:
            print(
                f"storm control: {result.storm_queued} migrations queued "
                f"({result.storm_peak_depth} peak depth), "
                f"{result.storm_released} paced onto survivors, "
                f"{result.storm_failed} failed with no target"
            )
        if result.hedges_launched:
            _emit(
                [
                    {
                        "app": e["app"],
                        "from_dev": e["from"],
                        "to_dev": e["to"],
                        "fork_kernels": e["kernels"],
                        "remaining": e["remaining"],
                        "launched_ms": e["t"] * 1e3,
                    }
                    for e in result.hedge_events
                    if e["event"] == "hedge"
                ],
                "Hedged executions",
                out,
                "fleet_hedges",
            )
            print(
                f"hedging: {result.hedges_launched} launched, "
                f"{result.hedge_wins} replica wins, "
                f"{result.duplicate_kernels} duplicate kernels"
            )
        if result.resumed:
            print(
                f"resumed from journal: {result.recovered_entries} entries "
                "verified against the replay"
            )
        print(result.summary())
        return 0

    if args.command == "telemetry":
        from .core.runner import quick_run
        from .telemetry import (
            DEFAULT_SAMPLE_INTERVAL,
            Telemetry,
            generate_latest,
            metrics_table,
            write_jsonl,
        )

        streams = args.streams if args.streams is not None else args.apps
        interval = (
            args.interval if args.interval is not None
            else DEFAULT_SAMPLE_INTERVAL
        )
        telemetry = Telemetry(interval=interval)
        run = quick_run(
            pair=tuple(args.pair),
            num_apps=args.apps,
            num_streams=streams,
            memory_sync=args.sync,
            scale=scale,
            telemetry=telemetry,
        )
        rows = metrics_table(
            telemetry.snapshots, pattern=args.filter, width=args.width
        )
        _emit(
            rows,
            f"Telemetry — {args.pair[0]}+{args.pair[1]} NA={args.apps} "
            f"NS={streams} ({len(telemetry.snapshots)} samples)",
            out,
            "telemetry",
        )
        print(run.summary())
        if args.prom is not None:
            args.prom.parent.mkdir(parents=True, exist_ok=True)
            args.prom.write_text(generate_latest(telemetry.registry))
            print(f"(wrote {args.prom})")
        if args.jsonl is not None:
            args.jsonl.parent.mkdir(parents=True, exist_ok=True)
            write_jsonl(telemetry.snapshots, args.jsonl)
            print(f"(wrote {args.jsonl})")
        return 0

    if args.command == "trace":
        from .analysis import (
            aggregate_critical_paths,
            extract_critical_paths,
            to_chrome_trace,
            top_slowest,
        )
        from .serving import ServingConfig, run_serving
        from .sim.trace import TraceRecorder
        from .telemetry import (
            BurnRateConfig,
            Tracing,
            spans_to_chrome_events,
            write_otlp_jsonl,
        )

        arrivals, dispatcher = _traffic(args)
        config = ServingConfig(
            slo_factor=args.slo,
            slo_jitter=args.slo_jitter,
            seed=args.seed,
        )
        tracing = Tracing(
            seed=args.seed,
            burn=BurnRateConfig(budget=args.burn_budget),
            alert_journal=args.alerts,
        )
        result = run_serving(
            arrivals,
            dispatcher,
            config,
            num_streams=args.streams,
            scale=scale,
            tracing=tracing,
        )
        paths = extract_critical_paths(tracing.tracer)
        rows = [
            {
                "category": r["category"],
                "seconds_ms": r["seconds"] * 1e3,
                "share_pct": r["share"] * 100.0,
            }
            for r in aggregate_critical_paths(paths)
        ]
        _emit(
            rows,
            f"Fleet critical path ({len(paths)} traces, "
            f"{len(tracing.spans)} spans)",
            out,
            "trace_aggregate",
        )
        missed = [p for p in paths if p.outcome != "completed"]
        if missed and len(missed) < len(paths):
            rows = [
                {
                    "category": r["category"],
                    "seconds_ms": r["seconds"] * 1e3,
                    "share_pct": r["share"] * 100.0,
                }
                for r in aggregate_critical_paths(
                    paths, predicate=lambda p: p.outcome != "completed"
                )
            ]
            _emit(
                rows,
                f"Critical path of degraded traces ({len(missed)} "
                "shed/failed/missed)",
                out,
                "trace_degraded",
            )
        rows = []
        for p in top_slowest(paths, args.top):
            dominant = p.dominant
            rows.append(
                {
                    "app": p.app,
                    "outcome": p.outcome,
                    "sojourn_ms": p.sojourn * 1e3,
                    "dominant": dominant,
                    "dominant_pct": p.share(dominant) * 100.0,
                }
            )
        _emit(rows, f"Top {args.top} slowest traces", out, "trace_slowest")
        if tracing.alerts:
            fired = sum(
                1 for a in tracing.alerts if a["event"] == "alert"
            )
            print(
                f"burn-rate alerts: {fired} fired, "
                f"{len(tracing.alerts) - fired} resolved"
            )
            if args.alerts is not None:
                print(f"(alert journal at {args.alerts})")
        print(result.summary())
        if args.chrome is not None:
            args.chrome.parent.mkdir(parents=True, exist_ok=True)
            payload = to_chrome_trace(
                TraceRecorder(),
                span_events=spans_to_chrome_events(tracing.spans),
            )
            import json as _json

            args.chrome.write_text(_json.dumps(payload))
            print(f"(wrote {args.chrome})")
        if args.otlp is not None:
            args.otlp.parent.mkdir(parents=True, exist_ok=True)
            write_otlp_jsonl(args.otlp, tracing.spans)
            print(f"(wrote {args.otlp})")
        return 0

    if args.command == "report":
        from .analysis.report import build_report

        report = build_report(args.results, report_sections())
        if args.write is not None:
            args.write.write_text(report)
            print(f"wrote {args.write}")
        else:
            print(report)
        return 0

    if args.command == "streaming":
        from .serving import (
            ConcurrencyCapDispatcher,
            GreedyDispatcher,
            PowerCapDispatcher,
            poisson_arrivals,
            run_serving,
        )

        arrivals = poisson_arrivals(
            rate=args.rate,
            duration=args.duration,
            type_mix=[("nn", 2), ("needle", 1)],
            seed=7,
        )
        rows = []
        for dispatcher in (
            GreedyDispatcher(),
            ConcurrencyCapDispatcher(1),
            PowerCapDispatcher(args.power_cap),
        ):
            result = run_serving(
                arrivals, dispatcher, num_streams=args.streams, scale=scale
            )
            rows.append(
                {
                    "policy": result.dispatcher,
                    "jobs": result.jobs,
                    "mean_sojourn_ms": result.mean_sojourn * 1e3,
                    "p95_sojourn_ms": result.p95_sojourn * 1e3,
                    "jobs_per_s": result.throughput,
                    "avg_power_W": result.average_power,
                    "energy_J": result.energy,
                }
            )
        _emit(rows, f"Streaming dispatch ({len(arrivals)} arrivals)", out, "streaming")
        return 0

    if args.command == "serve":
        from .resilience import FaultPlan
        from .resilience.faults import FaultKind, FaultSpec
        from .serving import BreakerConfig, ServingConfig, run_serving
        from .sim.errors import HarnessCrash

        arrivals, dispatcher = _traffic(args)
        faults = []
        if args.launch_fails > 0:
            faults.extend(
                FaultPlan.generate(
                    args.seed,
                    args.duration,
                    launch_fail_rate=args.launch_fails / args.duration,
                    targets=("nn", "needle"),
                ).faults
            )
        if args.crash_at is not None:
            faults.append(
                FaultSpec(kind=FaultKind.HARNESS_CRASH, time=args.crash_at)
            )
        breaker = None
        if args.breaker > 0:
            breaker = BreakerConfig(
                threshold=args.breaker,
                cooldown=args.breaker_cooldown or args.duration / 10,
            )
        config = ServingConfig(
            queue_depth=args.qdepth,
            queue_policy=args.qpolicy,
            slo_factor=args.slo,
            slo_jitter=args.slo_jitter,
            shed_unreachable=not args.no_shed,
            breaker=breaker,
            plan=FaultPlan(faults) if faults else None,
            seed=args.seed,
        )
        try:
            result = run_serving(
                arrivals,
                dispatcher,
                config,
                num_streams=args.streams,
                scale=scale,
                journal_path=args.journal,
                resume=args.resume,
            )
        except HarnessCrash as crash:
            return _report_crash(crash, args.journal)
        rows = [
            {
                "policy": result.dispatcher,
                "arrivals": result.jobs,
                "completed": result.completed,
                "in_slo": result.deadline_met,
                "shed": result.shed,
                "failed": result.failed,
                "goodput_per_s": result.goodput,
                "throughput_per_s": result.throughput,
                "p99_sojourn_ms": result.p99_sojourn * 1e3,
                "avg_power_W": result.average_power,
            }
        ]
        _emit(rows, f"Serving ({len(arrivals)} arrivals)", out, "serving")
        if result.outcomes:
            _emit(
                [
                    {"outcome": k, "jobs": v}
                    for k, v in sorted(result.outcomes.items())
                ],
                "Outcome breakdown",
                out,
                "serving_outcomes",
            )
        if result.resumed:
            print(
                f"resumed from journal: {result.recovered_entries} entries "
                "verified against the replay"
            )
        print(result.summary())
        return 0

    if args.command == "schedule":
        from .serving import run_batched_serving
        from .sim.errors import HarnessCrash

        x, y = args.pair
        half = max(1, args.apps // 2)
        batch = [(x, half), (y, max(1, args.apps - half))]
        try:
            result = run_batched_serving(
                [batch] * args.batches,
                policy=args.policy,
                width=args.width,
                scale=scale,
                seed=args.seed,
                epsilon=args.epsilon,
                journal_path=args.journal,
                resume=args.resume,
                crash_after=args.crash_after,
            )
        except HarnessCrash as crash:
            return _report_crash(crash, args.journal)
        rows = [
            {
                "batch": i,
                "order": b.decision.order_label,
                "sync": b.decision.memory_sync,
                "width": b.decision.num_streams,
                "explored": b.decision.explored,
                "predicted_ms": b.decision.predicted_makespan * 1e3,
                "observed_ms": b.makespan * 1e3,
            }
            for i, b in enumerate(result.batches)
        ]
        _emit(
            rows,
            f"Adaptive scheduling ({args.policy}, {x}+{y})",
            out,
            "schedule",
        )
        if result.resumed:
            print(
                f"resumed from journal: {result.recovered_entries} entries "
                "verified against the replay"
            )
        print(result.summary())
        return 0

    if args.command == "traffic":
        from dataclasses import replace as _replace

        from .analysis import (
            build_leaderboard,
            render_leaderboard,
            write_leaderboard_json,
        )
        from .sim.errors import HarnessCrash
        from .workload import (
            get_scenario,
            record_trace,
            run_traffic,
            run_traffic_batched,
        )

        scenario = get_scenario(args.scenario)
        if args.seed is not None:
            scenario = _replace(scenario, seed=args.seed)
        built = scenario.build(args.requests, scale=scale)

        if args.record is not None:
            cursor = args.record.with_name(args.record.name + ".cursor")
            try:
                count = record_trace(
                    built.stream(),
                    args.record,
                    built.fingerprint(),
                    cursor_path=cursor,
                    resume=args.resume,
                )
            except HarnessCrash as crash:
                print(f"recording crashed: {crash}; rerun with --resume")
                return 3
            print(
                f"recorded {count} arrivals to {args.record} "
                f"(cursors: {cursor})"
            )
            return 0

        if args.batched:
            cells = []
            for policy in args.policies:
                result = run_traffic_batched(
                    built, policy, batch_size=args.batch_size, scale=scale
                )
                cells.append(result.metrics())
            board = build_leaderboard(cells)
            print(render_leaderboard(board))
            if out is not None:
                path = write_leaderboard_json(
                    board,
                    out / "traffic_leaderboard.json",
                    meta={
                        "scenario": args.scenario,
                        "requests": args.requests,
                        "batch_size": args.batch_size,
                    },
                )
                print(f"(wrote {path})")
            return 0

        try:
            result = run_traffic(
                built,
                policy=args.policy,
                cap=args.cap,
                queue_depth=args.qdepth,
                num_streams=args.streams,
                scale=scale,
                trace_path=args.replay,
                journal_path=args.journal,
                resume=args.resume,
            )
        except HarnessCrash as crash:
            return _report_crash(crash, args.journal)
        metrics = result.metrics()
        classes = metrics.pop("classes")
        summary_rows = [
            {"metric": k, "value": v} for k, v in metrics.items()
        ]
        print(
            format_table(
                summary_rows,
                title=f"[traffic: {built.name} / {args.policy}]",
            )
        )
        class_rows = [{"class": n, **p} for n, p in sorted(classes.items())]
        _emit(
            class_rows,
            "[per tenant class]",
            out,
            f"traffic_{built.name}_{args.policy}",
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
