"""The modular test harness (paper Section IV).

Execution flow, mirroring the paper's description: the harness loads an
application scheduling order, instantiates a class object for each
application, starts the power-monitor thread, launches each application on
its own child thread (in schedule order, separated by the thread-spawn
cost — which is what lets launch order prejudice execution order), waits
for all children, then tears everything down.

:class:`HarnessConfig` captures one experimental cell (schedule, NS, memory
sync on/off, device, copy policy); :meth:`TestHarness.run` executes it in a
fresh simulation environment and returns a :class:`HarnessResult` with the
per-application records, makespan and energy.  Its ``trace`` is the
profiler timeline, derived from the records and the fault injector's marks
(:func:`~repro.framework.metrics.record_timeline`).  The energy is the
difference of two snapshots of the power model's running integral, at
the first spawn and at the last completion, so a cell keeps no power
history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gpu.specs import DeviceSpec, tesla_k20
from ..resilience import (
    AppSupervisor,
    ConcurrencyLadder,
    FaultInjector,
    ResilienceConfig,
    ResilienceSummary,
    Watchdog,
)
from ..sim.engine import Environment
from ..sim.events import AllOf
from ..sim.trace import TraceRecorder
from .app_thread import AppThread
from .device_stack import DeviceStack
from .kernel import KernelApp
from .metrics import (
    AppRecord,
    average_effective_latency,
    makespan,
    record_timeline,
)
from .power_monitor import DEFAULT_INTERVAL

__all__ = ["HarnessConfig", "HarnessResult", "TestHarness"]


@dataclass
class HarnessConfig:
    """One experimental configuration.

    Attributes
    ----------
    apps:
        Application instances in *launch order* (the scheduling policies of
        Section III-C are applied upstream, in :mod:`repro.core`).
    num_streams:
        NS.  ``1`` is the paper's serialized baseline; ``len(apps)`` is the
        full-concurrent scenario.
    memory_sync:
        Enable the Section III-B transfer mutex.
    spec:
        Device description (default Tesla K20).
    copy_policy:
        DMA service discipline (``"interleave"`` default).
    power_interval:
        Power sensor sampling period (paper: 15 ms; 66.7 Hz for Fig 9/10).
    spawn_jitter:
        Std-dev (seconds) of gaussian jitter added to thread spawn times,
        modelling OS nondeterminism.  0 = fully deterministic.
    seed:
        Seed for the jitter RNG.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig` enabling
        fault injection, the watchdog, retries and concurrency
        degradation.  ``None`` (default) runs the original code paths and
        produces byte-identical results to a build without the resilience
        subsystem.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When given, the
        harness attaches its sampler to the run's environment, wires the
        standard sim/GPU/resilience probes and drives the sampler's
        lifecycle alongside the power monitor.  ``None`` (default) keeps
        every layer on the uninstrumented code paths — byte-identical
        results, pinned by ``bench_observer_overhead.py``.
    """

    apps: Sequence[KernelApp]
    num_streams: int
    memory_sync: bool = False
    spec: Optional[DeviceSpec] = None
    copy_policy: str = "interleave"
    power_interval: float = DEFAULT_INTERVAL
    spawn_jitter: float = 0.0
    seed: int = 0
    #: Optional grid-engine admission hook (symbiosis baseline); None = LEFTOVER.
    admission: object = None
    resilience: Optional[ResilienceConfig] = None
    #: Optional repro.telemetry.Telemetry (kept untyped to avoid importing
    #: the subsystem on the hot path when disabled).
    telemetry: object = None
    #: Launch-order policy label stamped onto every AppRecord ("" = unset),
    #: so reports can attribute makespan differences to the ordering used.
    order_label: str = ""
    #: Optional repro.telemetry.Tracing (untyped, same convention as
    #: telemetry): one causal trace per app with engine-level wait spans.
    #: ``None`` keeps every layer untraced — byte-identical results,
    #: pinned by ``bench_observer_overhead.py``.
    tracing: object = None
    #: Runtime invariant checking (see :mod:`repro.integrity.invariants`):
    #: ``None``/``False`` = off (byte-identical results, pinned by
    #: ``bench_observer_overhead.py``); ``True`` = strided probes with
    #: defaults; or a preconfigured ``InvariantChecker`` instance.
    integrity: object = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("empty schedule")
        if self.num_streams < 1:
            raise ValueError("num_streams must be >= 1")
        if self.spec is None:
            self.spec = tesla_k20()


@dataclass
class HarnessResult:
    """Everything measured in one harness run."""

    config: HarnessConfig
    records: List[AppRecord]
    makespan: float              # first spawn -> last completion (s)
    total_time: float            # simulated clock at teardown (s)
    energy: float                # exact integral over the makespan window (J)
    average_power: float         # energy / makespan (W)
    peak_power: float            # model peak over the run (W)
    sampled_average_power: float  # the paper's sensor-sampled estimate (W)
    power_samples: List[Tuple[float, float]]
    #: The fault injector's faults, retries, deadlines, degradation steps
    #: and DMA stalls (empty without resilience).
    marks: TraceRecorder
    stream_assignments: Dict[int, int]
    resilience: Optional[ResilienceSummary] = None
    #: The run's telemetry (same object as config.telemetry), if enabled.
    telemetry: object = None
    #: The run's InvariantChecker (counters and any recorded violations),
    #: if integrity checking was enabled.
    integrity: object = None

    @property
    def trace(self) -> TraceRecorder:
        """The run's profiler timeline (Figures 1, 2 and 5).

        Derived on each access from :attr:`records` and :attr:`marks`.  A
        retried app shows only its last attempt's commands: the earlier
        attempts appear as their ``retry`` or ``deadline`` marks.
        """
        return record_timeline(self.records, self.marks)

    # -- summary helpers -------------------------------------------------------

    def effective_latency(self, direction=None) -> float:
        """Two-level average Le (paper Figure 6 metric), HtoD by default."""
        from ..gpu.commands import CopyDirection

        return average_effective_latency(
            self.records, direction or CopyDirection.HTOD
        )

    def per_type_wall_times(self) -> Dict[str, List[float]]:
        """GPU-section durations grouped by application type."""
        out: Dict[str, List[float]] = {}
        for r in self.records:
            out.setdefault(r.type_name, []).append(r.wall_time)
        return out

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        cfg = self.config
        kinds = sorted({r.type_name for r in self.records})
        text = (
            f"{len(self.records)} apps ({'+'.join(kinds)}) on "
            f"{cfg.num_streams} streams, sync={'on' if cfg.memory_sync else 'off'}: "
            f"makespan {self.makespan * 1e3:.2f} ms, energy {self.energy:.3f} J, "
            f"avg power {self.average_power:.1f} W, peak {self.peak_power:.1f} W"
        )
        if self.resilience is not None:
            text += f"; {self.resilience.describe()}"
        return text


class TestHarness:
    """Executes one :class:`HarnessConfig` in a fresh environment."""

    # Not a pytest test class, despite the (paper-given) name.
    __test__ = False

    def __init__(self, config: HarnessConfig) -> None:
        self.config = config

    def run(self) -> HarnessResult:
        """Build the world, run the schedule to completion, measure."""
        cfg = self.config
        env = Environment()
        resil = cfg.resilience
        stack = DeviceStack(
            env,
            cfg.spec,
            cfg.num_streams,
            cfg.memory_sync,
            plan=resil.plan if resil is not None else None,
            copy_policy=cfg.copy_policy,
            admission=cfg.admission,
            power_interval=cfg.power_interval,
        )
        device = stack.gpu
        power = device.power
        # The energy window is read as two running-integral snapshots, so
        # the cell keeps no power history.
        power.retain_segments = False
        manager = stack.manager
        synchronizer = stack.synchronizer
        monitor = stack.monitor
        injector = stack.injector
        watchdog: Optional[Watchdog] = None
        ladder: Optional[ConcurrencyLadder] = None
        on_fault = None
        if resil is not None:
            if injector is None:
                # No faults to inject, but supervisors still trace-mark
                # retries and deadlines through an injector.
                injector = FaultInjector(env, resil.plan)
            if resil.wants_deadlines:
                watchdog = Watchdog(env)
            if resil.degradation_threshold > 0:
                # The ladder's fault trigger: halve NS every N faults.
                ladder = ConcurrencyLadder.halving(env, cfg.num_streams)
                faults = 0

                def on_fault() -> None:
                    nonlocal faults
                    faults += 1
                    if ladder.step_to(faults // resil.degradation_threshold):
                        injector.mark_degrade(faults, ladder.limit)
        records: List[AppRecord] = []
        rng = np.random.default_rng(cfg.seed)

        integrity = None
        if cfg.integrity:
            from ..integrity.invariants import InvariantChecker

            integrity = (
                cfg.integrity
                if isinstance(cfg.integrity, InvariantChecker)
                else InvariantChecker()
            )
            integrity.watch_device(device)
            integrity.attach(env)

        tracer = cfg.tracing.tracer if cfg.tracing is not None else None

        telemetry = cfg.telemetry
        if telemetry is not None:
            from ..telemetry.probes import (
                instrument_device,
                instrument_environment,
                instrument_injector,
                instrument_integrity,
                instrument_records,
            )

            telemetry.attach(env)
            instrument_environment(telemetry, env)
            instrument_device(telemetry, device)
            instrument_records(telemetry, records)
            instrument_injector(telemetry, injector)
            instrument_integrity(telemetry, integrity)

        #: launch_index -> root SpanContext for every traced app.
        trace_ctxs: Dict[int, object] = {}
        #: Energy (J) at the first spawn and at the last completion.
        window: List[float] = []

        def parent():
            # Paper flow: instantiate + allocate + initialize every
            # application on the parent thread, sequentially, up front.
            threads = []
            for launch_index, app in enumerate(cfg.apps):
                record = AppRecord(
                    app_id=app.app_id,
                    type_name=app.profile.name,
                    instance=app.instance,
                    stream_index=-1,
                    launch_index=launch_index,
                )
                records.append(record)
                thread = AppThread(env, device, app, synchronizer, record)
                threads.append(thread)
                if tracer is not None:
                    trace_ctxs[launch_index] = thread.open_trace(
                        tracer, env.now,
                        type=record.type_name, index=launch_index,
                    )
                prepare_from = env.now
                yield from thread.prepare()
                if tracer is not None and env.now > prepare_from:
                    tracer.record_leaf(
                        thread.trace_ctx, "host.prepare", "prepare",
                        prepare_from, env.now,
                    )
                thread._trace_ready_at = env.now

            # Then start the power-monitor thread and launch each
            # application on its own child thread, in schedule order.
            monitor.start()
            if telemetry is not None:
                telemetry.start()
            children = []
            for thread in threads:
                # std::thread creation cost staggers the children; optional
                # jitter models OS scheduling nondeterminism.
                delay = cfg.spec.host.thread_spawn_cost
                if cfg.spawn_jitter > 0:
                    delay += float(abs(rng.normal(0.0, cfg.spawn_jitter)))
                yield env.timeout(delay)
                stream = manager.acquire(thread.app.app_id)
                thread.assign_stream(stream)
                thread.record.stream_index = stream.index
                thread.record.spawn_time = env.now
                if not window:
                    window.append(power.energy())
                if tracer is not None and env.now > thread._trace_ready_at:
                    # Spawn stagger: time between being prepared and the
                    # parent reaching this app in launch order.
                    tracer.record_leaf(
                        thread.trace_ctx, "admission.stagger",
                        "admission-queue", thread._trace_ready_at, env.now,
                    )
                if resil is None:
                    children.append(
                        env.process(
                            thread.run(), name=f"thread-{thread.app.app_id}"
                        )
                    )
                else:
                    supervisor = AppSupervisor(
                        env,
                        thread,
                        injector=injector,
                        policy=resil.retry,
                        watchdog=watchdog,
                        deadline=resil.deadline_for(thread.app.profile.name),
                        gate=ladder.gates[0] if ladder else None,
                        on_fault=on_fault,
                        seed=resil.seed,
                    )
                    children.append(
                        env.process(
                            supervisor.run(),
                            name=f"supervise-{thread.app.app_id}",
                        )
                    )
            if children:
                yield AllOf(env, children)
            # Each child ends at the instant its record's final
            # complete_time is set, so this is the makespan's end.  A
            # same-instant power update does not move the integral there.
            window.append(power.energy())
            monitor.stop()
            if telemetry is not None:
                telemetry.stop()

            # Teardown: parent frees all memory and destroys the streams.
            for thread in threads:
                yield from thread.cleanup()
            manager.destroy_all()

        done = env.process(parent(), name="harness-parent")
        env.run(until=done)
        # Let any same-time trailing events (power segment closes) settle.
        env.run()
        if integrity is not None:
            # Closing pass so short runs are checked at least once even if
            # they never crossed a stride boundary.
            integrity.check_now(env.now)
            integrity.detach()
        if telemetry is not None:
            # Closing snapshot: the final registry state every exporter
            # agrees on (cross-exporter consistency).
            telemetry.finalize()

        assignments: Dict[int, int] = {}
        for record in records:
            assignments[record.stream_index] = (
                assignments.get(record.stream_index, 0) + 1
            )
            # Terminal outcome in the serving layer's vocabulary, so batch
            # and streaming records aggregate through the same accounting.
            record.outcome = "failed" if record.failed else "completed"
            record.order_policy = cfg.order_label
            record.memory_sync = cfg.memory_sync
            if tracer is not None:
                ctx = trace_ctxs.get(record.launch_index)
                if ctx is not None:
                    tracer.end_trace(
                        ctx, record.complete_time, outcome=record.outcome
                    )
        span = makespan(records)
        energy = window[1] - window[0]
        summary: Optional[ResilienceSummary] = None
        if resil is not None:
            summary = ResilienceSummary(
                planned_faults=len(resil.plan) if resil.plan is not None else 0,
                applied_faults=injector.applied_counts(),
                faults_detected=sum(r.faults_detected for r in records),
                retries=sum(r.retries for r in records),
                deadline_hits=sum(r.deadline_hits for r in records),
                apps_failed=sum(1 for r in records if r.failed),
                apps_completed=sum(1 for r in records if not r.failed),
                degradation_steps=len(ladder.steps) if ladder else 0,
                final_concurrency_limit=(
                    ladder.limit if ladder else cfg.num_streams
                ),
            )
        return HarnessResult(
            config=cfg,
            records=records,
            makespan=span,
            total_time=env.now,
            energy=energy,
            average_power=energy / span if span > 0 else 0.0,
            peak_power=power.peak_power,
            sampled_average_power=monitor.average_power(),
            power_samples=[(s.time, s.watts) for s in monitor.samples],
            marks=injector.trace if injector is not None else TraceRecorder(),
            stream_assignments=assignments,
            resilience=summary,
            telemetry=telemetry,
            integrity=integrity,
        )
