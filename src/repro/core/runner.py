"""Experiment runner: configure, execute and compare harness runs.

The paper's evaluation always reports *relative* numbers: improvement over
serialized execution (Figure 4), latency relative to the homogeneous
expectation (Figure 6), performance relative to the slowest launch order
(Figures 7/8), energy relative to the serial baseline (Figures 9/10).
:class:`ExperimentRunner` provides exactly those comparisons.

The figures share cells: a serial baseline serves Figures 4, 9 and 10,
and a Naive-FIFO ordering cell is also a Figure 4 full-concurrency cell.
A simulation is a pure function of its :class:`RunConfig`, so the runner
simulates each distinct config once and hands back the stored
:class:`RunResult` after that.  A cell with an observer or hook attached
(``telemetry``, ``tracing``, ``integrity``, ``admission`` or ``fleet``)
always runs, because its caller wants the side effects too.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..framework.harness import HarnessConfig, HarnessResult, TestHarness
from ..framework.metrics import improvement_pct
from ..gpu.specs import DeviceSpec
from ..resilience import ResilienceConfig
from ..scheduling.orders import SchedulingOrder
from .workload import Workload

__all__ = ["RunConfig", "RunResult", "ExperimentRunner", "quick_run"]


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell: workload x streams x order x policies."""

    workload: Workload
    num_streams: int
    order: SchedulingOrder = SchedulingOrder.NAIVE_FIFO
    memory_sync: bool = False
    copy_policy: str = "interleave"
    spec: Optional[DeviceSpec] = None
    seed: int = 0
    record_trace: bool = False
    power_interval: float = 15e-3
    spawn_jitter: float = 0.0
    admission: object = None
    #: Optional fault-injection / watchdog / retry / degradation setup.
    #: When its ``deadline_factor`` is set without explicit baselines, the
    #: runner measures the serial baseline and fills them in (cached).
    resilience: Optional[ResilienceConfig] = None
    #: Optional :class:`~repro.fleet.FleetConfig`: run the cell on a
    #: multi-device fleet (with failover) instead of the single-device
    #: harness.  ``None`` keeps the original pipeline untouched.
    fleet: object = None
    #: Optional :class:`~repro.telemetry.Telemetry`: live metrics for the
    #: run (single-device or fleet).  ``None`` = uninstrumented.
    telemetry: object = None
    #: Runtime invariant probes (:mod:`repro.integrity.invariants`):
    #: ``True`` attaches a default :class:`InvariantChecker`, or pass a
    #: preconfigured checker.  ``None``/``False`` = off (byte-identical
    #: results, zero probe cost).  Single-device cells only.
    integrity: object = None
    #: Optional :class:`~repro.telemetry.Tracing`: per-app causal traces
    #: for the run (single-device or fleet).  ``None`` = untraced.
    tracing: object = None

    @property
    def num_apps(self) -> int:
        """NA."""
        return self.workload.size

    def label(self) -> str:
        """Short cell id for tables and logs."""
        sync = "sync" if self.memory_sync else "default"
        return (
            f"{self.workload.describe()} | NS={self.num_streams} "
            f"| {self.order} | {sync}"
        )


@dataclass
class RunResult:
    """A harness result annotated with its configuration."""

    config: RunConfig
    harness: HarnessResult

    @property
    def makespan(self) -> float:
        """Wall time of the whole schedule (s)."""
        return self.harness.makespan

    @property
    def energy(self) -> float:
        """Exact GPU energy over the run window (J)."""
        return self.harness.energy

    @property
    def average_power(self) -> float:
        """Energy / makespan (W)."""
        return self.harness.average_power

    @property
    def peak_power(self) -> float:
        """Peak instantaneous model power (W)."""
        return self.harness.peak_power

    def improvement_over(self, baseline: "RunResult") -> float:
        """Makespan improvement vs ``baseline`` in percent (positive=faster)."""
        return improvement_pct(baseline.makespan, self.makespan)

    def energy_improvement_over(self, baseline: "RunResult") -> float:
        """Energy reduction vs ``baseline`` in percent (positive=less energy)."""
        return improvement_pct(baseline.energy, self.energy)

    def summary(self) -> str:
        """Configuration + measurements in one line."""
        return f"[{self.config.label()}] {self.harness.summary()}"


def _attached(config: RunConfig) -> bool:
    """Whether ``config`` carries an observer or hook (never cached)."""
    return bool(config.integrity) or any(
        hook is not None
        for hook in (config.telemetry, config.tracing, config.admission, config.fleet)
    )


class ExperimentRunner:
    """Executes :class:`RunConfig` cells, each distinct pure cell once.

    The result cache is keyed by the whole frozen :class:`RunConfig`
    (seed included).  Every caller of a cached cell gets the same
    :class:`RunResult` object, so treat results as read-only.  The
    runner keeps every pure result it has produced alive for its own
    lifetime; use a fresh runner where that memory matters.
    ``runs_executed`` counts simulations, not calls.
    """

    def __init__(self, default_spec: Optional[DeviceSpec] = None) -> None:
        self.default_spec = default_spec
        self._results: Dict[RunConfig, RunResult] = {}
        self.runs_executed: int = 0

    # -- execution ---------------------------------------------------------

    def run(self, config: RunConfig) -> RunResult:
        """Execute one cell, or return its stored result.

        A config seen before returns the stored result without a new
        simulation, unless an observer or hook is attached (see the
        module docstring); such a cell executes on every call and is
        not stored.
        """
        if _attached(config):
            return self._execute(config)
        result = self._results.get(config)
        if result is None:
            result = self._results[config] = self._execute(config)
        return result

    def _execute(self, config: RunConfig) -> RunResult:
        """Simulate one cell in a fresh environment."""
        rng = np.random.default_rng(config.seed)
        schedule = config.workload.schedule(config.order, rng=rng)
        apps = config.workload.instantiate(schedule)
        spec = config.spec or self.default_spec
        resilience = config.resilience
        if config.fleet is not None:
            # Multi-device cell: dispatch to the fleet harness.  The fault
            # plan (if any) rides in on the resilience config; FleetResult
            # duck-types the HarnessResult surface RunResult reads.
            from ..fleet import FleetHarness

            fleet_result = FleetHarness(
                apps,
                config.fleet,
                num_streams=config.num_streams,
                memory_sync=config.memory_sync,
                spec=spec,
                copy_policy=config.copy_policy,
                power_interval=config.power_interval,
                plan=resilience.plan if resilience is not None else None,
                seed=config.seed,
                telemetry=config.telemetry,
                tracing=config.tracing,
            ).run()
            self.runs_executed += 1
            return RunResult(config=config, harness=fleet_result)
        if resilience is not None and resilience.needs_baselines:
            resilience = self.resolve_baselines(config)
        harness_config = HarnessConfig(
            apps=apps,
            num_streams=config.num_streams,
            memory_sync=config.memory_sync,
            spec=spec,
            copy_policy=config.copy_policy,
            record_trace=config.record_trace,
            power_interval=config.power_interval,
            spawn_jitter=config.spawn_jitter,
            seed=config.seed,
            admission=config.admission,
            resilience=resilience,
            telemetry=config.telemetry,
            order_label=str(config.order),
            integrity=config.integrity,
            tracing=config.tracing,
        )
        result = TestHarness(harness_config).run()
        self.runs_executed += 1
        return RunResult(config=config, harness=result)

    def resolve_baselines(self, config: RunConfig) -> ResilienceConfig:
        """Fill a resilience config's baseline runtimes from the serial run.

        The watchdog deadline is defined as a multiple of each application
        type's *serial-baseline* runtime; this measures that baseline (one
        cached clean run of the workload on one stream, no faults) and
        returns the config with ``baseline_runtimes`` populated with the
        worst observed wall time per type.

        A record whose GPU section never ran (zero/negative wall time)
        contributes nothing: a zero entry would derive a 0s watchdog
        deadline that fires before the attempt's first event.  Types left
        without a baseline fall back to the config's ``default_deadline``
        / ``deadline_floor``.
        """
        if config.resilience is None:
            raise ValueError("config has no resilience settings")
        serial = self.run_serial(
            config.workload,
            copy_policy=config.copy_policy,
            spec=config.spec,
        )
        baselines: Dict[str, float] = {}
        for record in serial.harness.records:
            if record.wall_time <= 0:
                continue
            baselines[record.type_name] = max(
                baselines.get(record.type_name, 0.0), record.wall_time
            )
        return dataclasses.replace(
            config.resilience,
            baseline_runtimes=tuple(sorted(baselines.items())),
        )

    def run_serial(self, workload: Workload, **kwargs) -> RunResult:
        """The serialized baseline: the whole workload on one stream.

        Order is Naive FIFO (order cannot matter when everything
        serializes through a single stream's host lock) and memory sync is
        off (a single stream never contends with itself).  The result
        shares the runner's cache with :meth:`run`: a stored result is
        returned without calling :meth:`run` at all, so a subclass that
        overrides :meth:`run` sees only the cells that miss.
        """
        config = RunConfig(
            workload=workload,
            num_streams=1,
            order=SchedulingOrder.NAIVE_FIFO,
            memory_sync=False,
            **kwargs,
        )
        cached = self._results.get(config)
        if cached is not None:
            return cached
        return self.run(config)

    # -- comparisons ------------------------------------------------------------

    def improvement_vs_serial(self, config: RunConfig) -> Tuple[float, RunResult, RunResult]:
        """(improvement %, run, serial baseline) for one cell."""
        serial = self.run_serial(
            config.workload,
            copy_policy=config.copy_policy,
            spec=config.spec,
        )
        result = self.run(config)
        return result.improvement_over(serial), result, serial

    def ordering_matrix(
        self,
        workload: Workload,
        num_streams: int,
        memory_sync: bool,
        orders: Optional[Sequence[SchedulingOrder]] = None,
        seed: int = 0,
        **kwargs,
    ) -> Dict[SchedulingOrder, RunResult]:
        """Run every launch order on one workload (Figures 7/8 cells)."""
        from ..scheduling.orders import all_orders

        results = {}
        for order in orders or all_orders():
            config = RunConfig(
                workload=workload,
                num_streams=num_streams,
                order=order,
                memory_sync=memory_sync,
                seed=seed,
                **kwargs,
            )
            results[order] = self.run(config)
        return results


def quick_run(
    pair: Tuple[str, str] = ("gaussian", "needle"),
    num_apps: int = 8,
    num_streams: int = 8,
    memory_sync: bool = False,
    order: SchedulingOrder = SchedulingOrder.NAIVE_FIFO,
    scale: Optional[str] = None,
    **kwargs,
) -> RunResult:
    """One-call convenience API used by the README quickstart."""
    workload = Workload.heterogeneous_pair(pair[0], pair[1], num_apps, scale=scale)
    config = RunConfig(
        workload=workload,
        num_streams=num_streams,
        order=order,
        memory_sync=memory_sync,
        **kwargs,
    )
    return ExperimentRunner().run(config)
