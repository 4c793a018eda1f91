"""Per-figure experiment drivers (paper Section V).

Every table and figure of the paper's evaluation has a driver here that
returns a structured result object with ``rows()`` for tabulation:

=============  =========================================================
driver         reproduces
=============  =========================================================
fig1_fig2      Figures 1 & 2 — copy-queue interleaving vs mutex timelines
fig3           Figure 3 — the five launch orders (schedule signatures)
fig4           Figure 4 — concurrency speedup vs serial (half/full)
fig5           Figure 5 — LEFTOVER oversubscription snapshot
fig6           Figure 6 — effective memory transfer latency
fig7 / fig8    Figures 7 & 8 — launch-order effect, default vs sync
fig9           Figure 9 — power/energy: serial vs half vs full
fig10          Figure 10 — power/energy: default vs sync
table3         Table III — launch geometry of the ported applications
headline       the abstract's aggregate claims
homogeneous    Section IV's homogeneous case — self-concurrency scaling
ablation_*     four ablations of the paper's premises (not paper figures)
=============  =========================================================

Absolute times come from the simulator's calibrated cost model; the paper's
claims are about the *relative* numbers, which is what the result objects
expose.

:data:`repro.core.registry.EXPERIMENTS` says how each artifact
EXPERIMENTS.md reports runs one of these drivers, and which tables and
summary it prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.registry import all_pairs, get_app_class
from ..framework.harness import HarnessConfig, TestHarness
from ..framework.metrics import improvement_pct
from ..scheduling.orders import SchedulingOrder, all_orders, schedule_signature
from ..gpu.commands import CopyDirection
from ..gpu.kernels import Dim3, KernelDescriptor
from ..gpu.specs import DeviceSpec, tesla_k20
from ..sim.engine import Environment
from ..sim.trace import TraceRecorder, max_overlap
from .baselines import chunk_profile, symbiosis_admission
from .runner import ExperimentRunner, RunConfig, RunResult
from .workload import Workload

__all__ = [
    "TimelineStudy",
    "fig1_fig2_timelines",
    "fig3_orders",
    "Fig4Row",
    "Fig4Result",
    "fig4_concurrency",
    "Fig5Result",
    "fig5_oversubscription",
    "Fig6Row",
    "Fig6Result",
    "fig6_effective_latency",
    "OrderingRow",
    "OrderingResult",
    "fig7_ordering_default",
    "fig8_ordering_sync",
    "PowerScenario",
    "Fig9Result",
    "fig9_power_concurrency",
    "Fig10Result",
    "fig10_power_sync",
    "table3_geometry",
    "HomogeneousRow",
    "HomogeneousResult",
    "homogeneous_scaling",
    "HeadlineResult",
    "headline_numbers",
    "ablation_ordering_shared",
    "ablation_hyperq",
    "ablation_admission",
    "ablation_transfers",
]

#: The pair the paper uses for its timeline and power illustrations.
ILLUSTRATION_PAIR: Tuple[str, str] = ("gaussian", "needle")


# ---------------------------------------------------------------------------
# Figures 1 & 2 — interleaving vs synchronized transfer timelines
# ---------------------------------------------------------------------------

@dataclass
class TimelineStudy:
    """Two runs differing only in the transfer mutex."""

    pair: Tuple[str, str]
    default_run: RunResult
    sync_run: RunResult

    @property
    def default_trace(self) -> TraceRecorder:
        """Figure 1's timeline (interleaved copies)."""
        return self.default_run.harness.trace

    @property
    def sync_trace(self) -> TraceRecorder:
        """Figure 2's timeline (consecutive per-app bursts)."""
        return self.sync_run.harness.trace

    def interleaving_switches(self, trace: TraceRecorder) -> int:
        """Number of app-to-app handovers in HtoD copy service order.

        High for Figure 1 (copies interleave), minimal for Figure 2 (one
        application's copies run back to back).
        """
        order = [
            s.meta.get("app")
            for s in sorted(
                trace.filter(category="memcpy_htod"), key=lambda s: s.start
            )
        ]
        return sum(1 for a, b in zip(order, order[1:]) if a != b)

    def rows(self) -> List[dict]:
        """Summary rows for the two scenarios."""
        out = []
        for label, run in (("default", self.default_run), ("sync", self.sync_run)):
            trace = run.harness.trace
            out.append(
                {
                    "scenario": label,
                    "makespan_ms": run.makespan * 1e3,
                    "htod_interleaving_switches": self.interleaving_switches(trace),
                    "avg_effective_latency_ms": run.harness.effective_latency() * 1e3,
                }
            )
        return out


def fig1_fig2_timelines(
    pair: Tuple[str, str] = ILLUSTRATION_PAIR,
    num_apps: int = 8,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> TimelineStudy:
    """Reproduce the Figure 1 (default) and Figure 2 (mutex) timelines."""
    runner = runner or ExperimentRunner()
    workload = Workload.heterogeneous_pair(*pair, num_apps, scale=scale)
    base = dict(workload=workload, num_streams=num_apps)
    default_run = runner.run(RunConfig(memory_sync=False, **base))
    sync_run = runner.run(RunConfig(memory_sync=True, **base))
    return TimelineStudy(pair=pair, default_run=default_run, sync_run=sync_run)


# ---------------------------------------------------------------------------
# Figure 3 — launch orders
# ---------------------------------------------------------------------------

def fig3_orders(m: int = 4, n: int = 4, seed: int = 7) -> Dict[str, List[str]]:
    """The five schedules for m copies of X and n of Y (Figure 3)."""
    from ..scheduling.orders import make_schedule

    types = ["AX"] * m + ["AY"] * n
    rng = np.random.default_rng(seed)
    out = {}
    for order in all_orders():
        perm = make_schedule(types, order, rng=rng)
        out[str(order)] = schedule_signature(types, perm)
    return out


# ---------------------------------------------------------------------------
# Figure 4 — concurrency speedup over serial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4Row:
    """One bar of Figure 4."""

    pair: Tuple[str, str]
    num_apps: int
    scenario: str          # "half" (NA = 2 NS) or "full" (NA = NS)
    num_streams: int
    makespan: float
    serial_makespan: float
    improvement_pct: float


@dataclass
class Fig4Result:
    """All bars of Figure 4 (a)-(f)."""

    rows: List[Fig4Row] = field(default_factory=list)

    def by_pair(self) -> Dict[Tuple[str, str], List[Fig4Row]]:
        """Group rows per subplot (a)-(f)."""
        out: Dict[Tuple[str, str], List[Fig4Row]] = {}
        for row in self.rows:
            out.setdefault(row.pair, []).append(row)
        return out

    def stats(self, scenario: str) -> Tuple[float, float]:
        """(max, mean) improvement for one scenario, in percent."""
        vals = [r.improvement_pct for r in self.rows if r.scenario == scenario]
        if not vals:
            return (0.0, 0.0)
        return (max(vals), sum(vals) / len(vals))


def fig4_concurrency(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    na_values: Sequence[int] = (4, 8, 16, 32),
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Fig4Result:
    """Half- and full-concurrent improvement over serial, per pair and NA."""
    runner = runner or ExperimentRunner()
    result = Fig4Result()
    for pair in pairs or all_pairs():
        for na in na_values:
            workload = Workload.heterogeneous_pair(*pair, na, scale=scale)
            serial = runner.run_serial(workload)
            for scenario, ns in (("half", max(1, na // 2)), ("full", na)):
                run = runner.run(
                    RunConfig(workload=workload, num_streams=ns)
                )
                result.rows.append(
                    Fig4Row(
                        pair=pair,
                        num_apps=na,
                        scenario=scenario,
                        num_streams=ns,
                        makespan=run.makespan,
                        serial_makespan=serial.makespan,
                        improvement_pct=run.improvement_over(serial),
                    )
                )
    return result


# ---------------------------------------------------------------------------
# Figure 5 — LEFTOVER oversubscription snapshot
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    """Five oversubscribing kernels on five streams."""

    total_requested_blocks: int
    device_block_ceiling: int
    max_kernel_concurrency: int
    kernel_spans: List[dict]
    makespan: float
    serialized_makespan: float

    @property
    def oversubscribed(self) -> bool:
        """Whether the request exceeded the device ceiling (it must)."""
        return self.total_requested_blocks > self.device_block_ceiling

    def rows(self) -> List[dict]:
        """Per-kernel span rows (the Figure 5 timeline content)."""
        return self.kernel_spans


def fig5_oversubscription(
    spec: Optional[DeviceSpec] = None,
    admission=None,
) -> Fig5Result:
    """Reproduce the Figure 5 snapshot.

    Five streams launch, at (nearly) the same instant, the paper's mix: 89
    blocks of ``needle_cuda_shared_1``, 88 of ``needle_cuda_shared_2``, two
    single-block ``Fan1`` launches and a 1024-block ``Fan2`` — 1203 thread
    blocks against the K20's 208-block ceiling.  Under LEFTOVER all five
    overlap; under symbiosis admission (pass ``admission``) they serialize.
    """
    from ..gpu.device import GPUDevice

    spec = spec or tesla_k20()
    env = Environment()
    device = GPUDevice(env, spec=spec, admission=admission)

    kernels = [
        KernelDescriptor("needle_cuda_shared_1", Dim3(89), Dim3(32),
                         registers_per_thread=24, block_duration=60e-6),
        KernelDescriptor("needle_cuda_shared_2", Dim3(88), Dim3(32),
                         registers_per_thread=24, block_duration=60e-6),
        KernelDescriptor("Fan1", Dim3(1), Dim3(512),
                         registers_per_thread=14, block_duration=50e-6),
        KernelDescriptor("Fan1", Dim3(1), Dim3(512),
                         registers_per_thread=14, block_duration=50e-6),
        KernelDescriptor("Fan2", Dim3(32, 32), Dim3(16, 16),
                         registers_per_thread=15, block_duration=8e-6),
    ]

    commands = []

    def launcher(stream, kd, delay):
        yield env.timeout(delay)
        cmd = stream.enqueue_kernel(kd, app_id=f"{kd.name}@{stream.sid}")
        commands.append(cmd)
        yield cmd.done

    for i, kd in enumerate(kernels):
        stream = device.create_stream()
        env.process(launcher(stream, kd, delay=i * 2e-6))
    env.run()

    # Completion order, as the profiler lists them.
    commands.sort(key=lambda c: (c.done.value, c.start_time))
    spans = [
        {
            "stream": f"stream-{c.stream_id}",
            "kernel": c.descriptor.name,
            "blocks": c.descriptor.num_blocks,
            "start_us": c.start_time * 1e6,
            "end_us": c.done.value * 1e6,
        }
        for c in commands
    ]
    total_blocks = sum(k.num_blocks for k in kernels)
    # Serialized reference: kernels one after another, each at its own
    # device-wide occupancy.
    from ..gpu.occupancy import device_wide_blocks

    serialized = sum(
        k.serial_duration(min(device_wide_blocks(k, spec), k.num_blocks))
        for k in kernels
    )
    return Fig5Result(
        total_requested_blocks=total_blocks,
        device_block_ceiling=spec.max_resident_blocks,
        max_kernel_concurrency=max_overlap(
            (c.start_time, c.done.value) for c in commands
        ),
        kernel_spans=spans,
        makespan=env.now,
        serialized_makespan=serialized,
    )


# ---------------------------------------------------------------------------
# Figure 6 — effective memory transfer latency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig6Row:
    """One bar group of Figure 6 at a given concurrency level."""

    num_apps: int
    expected_ms: float
    default_ms: float
    sync_ms: float

    @property
    def default_ratio(self) -> float:
        """Default / expected — the paper reports up to ~8x."""
        return self.default_ms / self.expected_ms if self.expected_ms else 0.0

    @property
    def sync_ratio(self) -> float:
        """Sync / expected — the paper reports ~1x."""
        return self.sync_ms / self.expected_ms if self.expected_ms else 0.0


@dataclass
class Fig6Result:
    """Figure 6 for one pair."""

    pair: Tuple[str, str]
    rows: List[Fig6Row] = field(default_factory=list)

    @property
    def worst_default_ratio(self) -> float:
        """Largest observed stretch of the default behaviour."""
        return max((r.default_ratio for r in self.rows), default=0.0)


def fig6_effective_latency(
    pair: Tuple[str, str] = ILLUSTRATION_PAIR,
    na_values: Sequence[int] = (4, 8, 16, 32),
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Fig6Result:
    """Expected vs default vs synchronized effective HtoD latency.

    "Expected" follows the paper: the average per-application transfer
    latency measured in the homogeneous (uncontended) case — here a solo
    run of each application — averaged over the pair.
    """
    runner = runner or ExperimentRunner()
    solo_latencies = []
    for name in pair:
        solo = runner.run_serial(Workload.homogeneous(name, 1, scale=scale))
        solo_latencies.append(
            float(np.mean([
                r.effective_latency(CopyDirection.HTOD) or 0.0
                for r in solo.harness.records
            ]))
        )
    expected = float(np.mean(solo_latencies))

    result = Fig6Result(pair=pair)
    for na in na_values:
        workload = Workload.heterogeneous_pair(*pair, na, scale=scale)
        default_run = runner.run(
            RunConfig(workload=workload, num_streams=na, memory_sync=False)
        )
        sync_run = runner.run(
            RunConfig(workload=workload, num_streams=na, memory_sync=True)
        )
        result.rows.append(
            Fig6Row(
                num_apps=na,
                expected_ms=expected * 1e3,
                default_ms=default_run.harness.effective_latency() * 1e3,
                sync_ms=sync_run.harness.effective_latency() * 1e3,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Figures 7 & 8 — launch-order effect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingRow:
    """One bar of Figures 7/8: a (pair, order) cell."""

    pair: Tuple[str, str]
    order: SchedulingOrder
    makespan: float
    normalized_performance: float  # worst makespan / this makespan (>= 1)


@dataclass
class OrderingResult:
    """Figures 7 or 8 across all pairs."""

    memory_sync: bool
    rows: List[OrderingRow] = field(default_factory=list)

    def by_pair(self) -> Dict[Tuple[str, str], List[OrderingRow]]:
        """Rows grouped per pair."""
        out: Dict[Tuple[str, str], List[OrderingRow]] = {}
        for row in self.rows:
            out.setdefault(row.pair, []).append(row)
        return out

    def spread_pct(self) -> Dict[Tuple[str, str], float]:
        """Per pair: (worst - best) / worst in percent — the paper's
        "schedule order can affect up to X% performance improvement"."""
        out = {}
        for pair, rows in self.by_pair().items():
            worst = max(r.makespan for r in rows)
            best = min(r.makespan for r in rows)
            out[pair] = improvement_pct(worst, best)
        return out

    def stats(self) -> Tuple[float, float]:
        """(max, mean) ordering spread across pairs, percent."""
        spreads = list(self.spread_pct().values())
        return (max(spreads), sum(spreads) / len(spreads)) if spreads else (0.0, 0.0)


def _ordering_study(
    memory_sync: bool,
    pairs: Optional[Sequence[Tuple[str, str]]],
    num_apps: int,
    num_streams: int,
    scale: Optional[str],
    runner: Optional[ExperimentRunner],
    seed: int,
) -> OrderingResult:
    runner = runner or ExperimentRunner()
    result = OrderingResult(memory_sync=memory_sync)
    for pair in pairs or all_pairs():
        workload = Workload.heterogeneous_pair(*pair, num_apps, scale=scale)
        per_order = runner.ordering_matrix(
            workload, num_streams=num_streams, memory_sync=memory_sync, seed=seed
        )
        worst = max(r.makespan for r in per_order.values())
        for order, run in per_order.items():
            result.rows.append(
                OrderingRow(
                    pair=pair,
                    order=order,
                    makespan=run.makespan,
                    normalized_performance=worst / run.makespan,
                )
            )
    return result


def fig7_ordering_default(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    num_apps: int = 32,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
    seed: int = 0,
) -> OrderingResult:
    """Figure 7: ordering effect with default transfer behaviour."""
    return _ordering_study(False, pairs, num_apps, num_apps, scale, runner, seed)


def fig8_ordering_sync(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    num_apps: int = 32,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
    seed: int = 0,
) -> OrderingResult:
    """Figure 8: ordering effect with the transfer mutex enabled."""
    return _ordering_study(True, pairs, num_apps, num_apps, scale, runner, seed)


# ---------------------------------------------------------------------------
# Figures 9 & 10 — power and energy
# ---------------------------------------------------------------------------

@dataclass
class PowerScenario:
    """One power trace (a line of Figure 9/10)."""

    label: str
    num_streams: int
    memory_sync: bool
    makespan: float
    energy: float
    average_power: float
    peak_power: float
    samples: List[Tuple[float, float]]


@dataclass
class Fig9Result:
    """Figure 9 plus the aggregate energy statistics of Section V-D."""

    pair: Tuple[str, str]
    scenarios: List[PowerScenario]
    energy_improvement_by_pair: Dict[Tuple[str, str], float]

    @property
    def average_energy_improvement(self) -> float:
        """Mean full-concurrency energy reduction across pairs (%)."""
        vals = list(self.energy_improvement_by_pair.values())
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def best_energy_improvement(self) -> Tuple[Tuple[str, str], float]:
        """(pair, %) with the largest energy reduction."""
        pair = max(self.energy_improvement_by_pair, key=self.energy_improvement_by_pair.get)
        return pair, self.energy_improvement_by_pair[pair]


def fig9_power_concurrency(
    pair: Tuple[str, str] = ILLUSTRATION_PAIR,
    num_apps: int = 32,
    pairs_for_stats: Optional[Sequence[Tuple[str, str]]] = None,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
    power_interval: float = 15e-3,
) -> Fig9Result:
    """Power traces (serial / half / full) plus cross-pair energy stats.

    The paper oversamples the sensor at 66.7 Hz (15 ms) — pass a smaller
    ``power_interval`` for denser traces of short simulated runs.
    """
    runner = runner or ExperimentRunner()
    workload = Workload.heterogeneous_pair(*pair, num_apps, scale=scale)
    scenarios = []
    serial_runs: Dict[Tuple[str, str], RunResult] = {}

    for label, ns in (
        ("serial", 1),
        ("half-concurrent", max(1, num_apps // 2)),
        ("full-concurrent", num_apps),
    ):
        run = runner.run(
            RunConfig(
                workload=workload,
                num_streams=ns,
                power_interval=power_interval,
            )
        )
        scenarios.append(
            PowerScenario(
                label=label,
                num_streams=ns,
                memory_sync=False,
                makespan=run.makespan,
                energy=run.energy,
                average_power=run.average_power,
                peak_power=run.peak_power,
                samples=run.harness.power_samples,
            )
        )
        if label == "serial":
            serial_runs[pair] = run

    improvements: Dict[Tuple[str, str], float] = {}
    for p in pairs_for_stats or all_pairs():
        wl = Workload.heterogeneous_pair(*p, num_apps, scale=scale)
        serial = serial_runs.get(p) or runner.run(
            RunConfig(workload=wl, num_streams=1, power_interval=power_interval)
        )
        full = runner.run(
            RunConfig(workload=wl, num_streams=num_apps, power_interval=power_interval)
        )
        improvements[p] = full.energy_improvement_over(serial)
    return Fig9Result(
        pair=pair,
        scenarios=scenarios,
        energy_improvement_by_pair=improvements,
    )


@dataclass
class Fig10Result:
    """Figure 10: default vs synchronized transfers at full concurrency."""

    pair: Tuple[str, str]
    scenarios: List[PowerScenario]
    energy_improvement_by_pair: Dict[Tuple[str, str], float]  # sync vs serial

    @property
    def power_delta_pct(self) -> float:
        """Average-power change of sync vs default (%; ~0 per the paper)."""
        default = next(s for s in self.scenarios if not s.memory_sync)
        sync = next(s for s in self.scenarios if s.memory_sync)
        return (sync.average_power - default.average_power) / default.average_power * 100.0

    @property
    def average_energy_improvement(self) -> float:
        """Mean sync-vs-serial energy reduction across pairs (%)."""
        vals = list(self.energy_improvement_by_pair.values())
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def best_energy_improvement(self) -> Tuple[Tuple[str, str], float]:
        """(pair, %) with the largest energy reduction."""
        pair = max(self.energy_improvement_by_pair, key=self.energy_improvement_by_pair.get)
        return pair, self.energy_improvement_by_pair[pair]


def fig10_power_sync(
    pair: Tuple[str, str] = ILLUSTRATION_PAIR,
    num_apps: int = 32,
    pairs_for_stats: Optional[Sequence[Tuple[str, str]]] = None,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
    power_interval: float = 15e-3,
) -> Fig10Result:
    """Power traces and energy for default vs mutex-synchronized transfers."""
    runner = runner or ExperimentRunner()
    workload = Workload.heterogeneous_pair(*pair, num_apps, scale=scale)
    scenarios = []
    for label, sync in (("default", False), ("memory-sync", True)):
        run = runner.run(
            RunConfig(
                workload=workload,
                num_streams=num_apps,
                memory_sync=sync,
                power_interval=power_interval,
            )
        )
        scenarios.append(
            PowerScenario(
                label=label,
                num_streams=num_apps,
                memory_sync=sync,
                makespan=run.makespan,
                energy=run.energy,
                average_power=run.average_power,
                peak_power=run.peak_power,
                samples=run.harness.power_samples,
            )
        )

    improvements: Dict[Tuple[str, str], float] = {}
    for p in pairs_for_stats or all_pairs():
        wl = Workload.heterogeneous_pair(*p, num_apps, scale=scale)
        serial = runner.run_serial(wl)
        sync_run = runner.run(
            RunConfig(workload=wl, num_streams=num_apps, memory_sync=True)
        )
        improvements[p] = sync_run.energy_improvement_over(serial)
    return Fig10Result(
        pair=pair,
        scenarios=scenarios,
        energy_improvement_by_pair=improvements,
    )


# ---------------------------------------------------------------------------
# Homogeneous workload scaling (Section IV's homogeneous case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousRow:
    """One (application, NA) cell of the homogeneous scaling study."""

    app: str
    num_apps: int
    serial_makespan: float
    concurrent_makespan: float
    improvement_pct: float
    serial_energy: float
    concurrent_energy: float


@dataclass
class HomogeneousResult:
    """Self-concurrency scaling per application type."""

    rows: List[HomogeneousRow] = field(default_factory=list)

    def by_app(self) -> Dict[str, List[HomogeneousRow]]:
        """Rows grouped per application."""
        out: Dict[str, List[HomogeneousRow]] = {}
        for row in self.rows:
            out.setdefault(row.app, []).append(row)
        return out

    def best_improvement(self) -> Tuple[str, float]:
        """(app, %) with the largest self-concurrency gain."""
        best = max(self.rows, key=lambda r: r.improvement_pct)
        return best.app, best.improvement_pct


def homogeneous_scaling(
    apps: Optional[Sequence[str]] = None,
    na_values: Sequence[int] = (4, 8, 16),
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> HomogeneousResult:
    """How much each application gains from *self*-concurrency.

    The paper's homogeneous workloads ("each application executes the same
    kernel functions on the same size data") isolate an application's own
    overlap potential: underutilizers (needle, nn) gain enormously, while
    device-filling applications (srad, gaussian's Fan2 phases) gain little
    — the resource-utilization spread the heterogeneous pairings exploit.
    """
    from ..apps.registry import list_apps

    runner = runner or ExperimentRunner()
    result = HomogeneousResult()
    for app in apps or list_apps():
        for na in na_values:
            workload = Workload.homogeneous(app, na, scale=scale)
            serial = runner.run_serial(workload)
            concurrent = runner.run(
                RunConfig(workload=workload, num_streams=na)
            )
            result.rows.append(
                HomogeneousRow(
                    app=app,
                    num_apps=na,
                    serial_makespan=serial.makespan,
                    concurrent_makespan=concurrent.makespan,
                    improvement_pct=concurrent.improvement_over(serial),
                    serial_energy=serial.energy,
                    concurrent_energy=concurrent.energy,
                )
            )
    return result


# ---------------------------------------------------------------------------
# Table III and the headline numbers
# ---------------------------------------------------------------------------

def table3_geometry(scale: Optional[str] = None) -> List[dict]:
    """Launch geometry of every ported application (Table III rows)."""
    from .workload import SCALES, resolve_scale

    scale_name = resolve_scale(scale)
    rows = []
    for name in sorted(SCALES[scale_name]):
        kwargs = SCALES[scale_name][name]
        summary = get_app_class(name).workload_summary(**kwargs)
        for kernel, info in sorted(summary["kernels"].items()):
            grids = sorted(info["grid_dims"])
            grid_str = (
                str(grids[0])
                if len(grids) == 1
                else f"{grids[0]} ... {grids[-1]}"
            )
            rows.append(
                {
                    "application": summary["name"],
                    "kernel": kernel,
                    "data_dim": summary["data_dim"],
                    "calls": info["calls"],
                    "grid_dim": grid_str,
                    "block_dim": str(info["block_dim"]),
                    "max_blocks": info["max_blocks"],
                    "threads_per_block": info["threads_per_block"],
                }
            )
    return rows


@dataclass
class HeadlineResult:
    """The abstract's aggregate claims, measured."""

    max_full_concurrent_improvement: float   # paper: up to 59%
    avg_full_concurrent_improvement: float   # paper: 24.8%
    max_half_concurrent_improvement: float   # paper: up to 56%
    avg_half_concurrent_improvement: float   # paper: 23.6%
    max_ordering_sync_improvement: float     # paper: up to 31.8%
    avg_ordering_sync_improvement: float     # paper: 7.8%
    max_ordering_default_improvement: float  # paper: up to 9.4%
    avg_ordering_default_improvement: float  # paper: 3.8%
    max_energy_improvement_sync: float       # paper: up to 25.7%
    avg_energy_improvement_sync: float       # paper: 10.4%

    def rows(self) -> List[dict]:
        """(claim, paper value, measured) rows for EXPERIMENTS.md."""
        paper = {
            "max full-concurrent improvement": (59.0, self.max_full_concurrent_improvement),
            "avg full-concurrent improvement": (24.8, self.avg_full_concurrent_improvement),
            "max half-concurrent improvement": (56.0, self.max_half_concurrent_improvement),
            "avg half-concurrent improvement": (23.6, self.avg_half_concurrent_improvement),
            "max ordering improvement (sync)": (31.8, self.max_ordering_sync_improvement),
            "avg ordering improvement (sync)": (7.8, self.avg_ordering_sync_improvement),
            "max ordering improvement (default)": (9.4, self.max_ordering_default_improvement),
            "avg ordering improvement (default)": (3.8, self.avg_ordering_default_improvement),
            "max energy reduction (sync)": (25.7, self.max_energy_improvement_sync),
            "avg energy reduction (sync)": (10.4, self.avg_energy_improvement_sync),
        }
        return [
            {"claim": k, "paper_pct": v[0], "measured_pct": v[1]}
            for k, v in paper.items()
        ]


def headline_numbers(
    num_apps: int = 32,
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> HeadlineResult:
    """Measure every aggregate number quoted in the paper's abstract."""
    runner = runner or ExperimentRunner()
    fig4 = fig4_concurrency(
        na_values=(num_apps,), scale=scale, runner=runner
    )
    max_full, avg_full = fig4.stats("full")
    max_half, avg_half = fig4.stats("half")
    fig7 = fig7_ordering_default(num_apps=num_apps, scale=scale, runner=runner)
    fig8 = fig8_ordering_sync(num_apps=num_apps, scale=scale, runner=runner)
    max_ord7, avg_ord7 = fig7.stats()
    max_ord8, avg_ord8 = fig8.stats()
    fig10 = fig10_power_sync(num_apps=num_apps, scale=scale, runner=runner)
    best_pair, max_energy = fig10.best_energy_improvement
    return HeadlineResult(
        max_full_concurrent_improvement=max_full,
        avg_full_concurrent_improvement=avg_full,
        max_half_concurrent_improvement=max_half,
        avg_half_concurrent_improvement=avg_half,
        max_ordering_sync_improvement=max_ord8,
        avg_ordering_sync_improvement=avg_ord8,
        max_ordering_default_improvement=max_ord7,
        avg_ordering_default_improvement=avg_ord7,
        max_energy_improvement_sync=max_energy,
        avg_energy_improvement_sync=fig10.average_energy_improvement,
    )


# ---------------------------------------------------------------------------
# Ablations — one premise of the paper varied at a time (not paper figures)
# ---------------------------------------------------------------------------

#: The pairs of the shared-stream ordering ablation.
SHARED_STREAM_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("nn", "srad"),
    ("needle", "srad"),
    ("needle", "nn"),
)

#: Hardware work-queue widths of the Hyper-Q ablation, Fermi's 1 to Kepler's 32.
QUEUE_WIDTHS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Applications per workload in every ablation.
ABLATION_APPS = 16


def ablation_ordering_shared(
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> OrderingResult:
    """Launch-order effect when applications share streams (NA = 2 NS).

    Figures 7/8 give every application its own stream.  Section III-C also
    motivates ordering by the other regime: applications mapped to the
    same stream serialize in launch order, so the order decides who waits
    behind whom.  Runs with the transfer mutex, like Figure 8.
    """
    num_streams = ABLATION_APPS // 2  # two applications per stream
    return _ordering_study(
        True, SHARED_STREAM_PAIRS, ABLATION_APPS, num_streams, scale, runner, seed=0
    )


def ablation_hyperq(
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[Tuple[int, RunResult]]:
    """What Hyper-Q itself buys: one workload at every hardware queue width.

    The SMX array stays the same, so queueing is the only variable: one
    queue falsely serializes independent streams as Fermi does, and
    Kepler's 32 remove that.  Returns ``(width, run)`` per width.
    """
    runner = runner or ExperimentRunner()
    workload = Workload.heterogeneous_pair(
        *ILLUSTRATION_PAIR, ABLATION_APPS, scale=scale
    )
    out = []
    for width in QUEUE_WIDTHS:
        spec = tesla_k20().with_hardware_queues(width)
        run = runner.run(
            RunConfig(workload=workload, num_streams=ABLATION_APPS, spec=spec)
        )
        out.append((width, run))
    return out


def ablation_admission(
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[dict]:
    """LEFTOVER packing vs symbiosis-style resource-sum admission control.

    Section III-A argues that relying on the hardware's LEFTOVER packing
    beats admission control (Li et al.), which serializes any pair whose
    combined request exceeds the device.  Runs every heterogeneous pair
    under both policies on the same device and schedule.
    """
    runner = runner or ExperimentRunner()
    rows = []
    for pair in all_pairs():
        workload = Workload.heterogeneous_pair(*pair, ABLATION_APPS, scale=scale)
        leftover = runner.run(RunConfig(workload=workload, num_streams=ABLATION_APPS))
        symbiosis = runner.run(
            RunConfig(
                workload=workload,
                num_streams=ABLATION_APPS,
                admission=symbiosis_admission(tesla_k20()),
            )
        )
        rows.append(
            {
                "pair": f"{pair[0]}+{pair[1]}",
                "leftover_ms": leftover.makespan * 1e3,
                "symbiosis_ms": symbiosis.makespan * 1e3,
                "leftover_advantage_pct": leftover.improvement_over(symbiosis),
            }
        )
    return rows


def ablation_transfers(
    scale: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[dict]:
    """Transfer policies: batching (the mutex) vs chunking vs a FIFO queue.

    The paper sets its pseudo-burst mutex against Pai et al.'s chunking,
    which splits copies into small pieces to exploit copy-queue
    interleaving: right for their 100 MB single transfers, wrong for the
    paper's many small ones.  Compares the default interleaved queue, the
    mutex, a FIFO copy queue and 256 KB chunks on {gaussian, needle}.
    """
    runner = runner or ExperimentRunner()
    workload = Workload.heterogeneous_pair(
        *ILLUSTRATION_PAIR, ABLATION_APPS, scale=scale
    )
    harnesses = [
        (
            policy,
            runner.run(
                RunConfig(workload=workload, num_streams=ABLATION_APPS, **knobs)
            ).harness,
        )
        for policy, knobs in (
            ("default (interleave)", {}),
            ("batched (paper mutex)", {"memory_sync": True}),
            ("fifo copy queue", {"copy_policy": "fifo"}),
        )
    ]
    # Chunking rewrites the application profiles, which no RunConfig does.
    apps = workload.instantiate()
    for app in apps:
        app.profile = chunk_profile(app.profile, chunk_bytes=256 * 1024)
    harnesses.append((
        "chunked 256KB (Pai et al.)",
        TestHarness(HarnessConfig(apps=apps, num_streams=ABLATION_APPS)).run(),
    ))
    return [
        {
            "policy": policy,
            "makespan_ms": harness.makespan * 1e3,
            "avg_Le_ms": harness.effective_latency() * 1e3,
        }
        for policy, harness in harnesses
    ]

