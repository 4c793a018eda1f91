"""The multi-device fleet harness: run a schedule across N devices and
survive losing some of them.

Mirrors :class:`~repro.framework.harness.TestHarness`'s paper flow (parent
prepares every app up front, then spawns one driver per app, staggered by
the thread-spawn cost) on top of the fleet machinery:

* apps are placed on devices by the :class:`~repro.fleet.coordinator.
  FailoverCoordinator` using the configured placement policy;
* each app runs inside a *driver* loop that retries faults from the last
  checkpoint and migrates across device losses;
* every fleet write (checkpoints, device losses, failovers, hedges,
  queued migrations, brownout steps, terminal app outcomes) goes through
  one :class:`~repro.integrity.fencing.FencedJournal`, which drops stale
  writes whether or not a journal file sits behind it; with a
  ``journal_path`` the file is a crash-safe :class:`~repro.serving.
  journal.RunJournal`, and a run killed by :class:`~repro.sim.errors.
  HarnessCrash` mid-failover resumes by deterministic replay, verified
  entry-by-entry.

A run has three stages on one private per-run object.  Its constructor
*builds* the fleet: registry, checkpoint store, journal, fence,
coordinator, the configured retry budget, brownout ladder and probe,
straggler detector and hedge manager, the health monitor, the list of
pollers the run starts and stops, and the telemetry wiring.  ``run()``
*simulates*: the parent process prepares every app, starts the pollers
in list order, spawns the drivers, waits, stops them and tears down;
then telemetry, the journal and the traces are closed.  ``_result()``
*measures* what the simulation left behind.

:class:`FleetResult` aggregates per-device summaries (energy cut off at
the loss instant, goodput), recovery timelines and migration accounting,
and duck-types the pieces of :class:`~repro.framework.harness.
HarnessResult` that :class:`~repro.core.runner.RunResult` reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..framework.kernel import KernelApp
from ..framework.metrics import AppRecord, makespan
from ..gpu.specs import DeviceSpec
from ..integrity.fencing import FencedJournal, GenerationFence
from ..integrity.record import fingerprint
from ..resilience.budget import RetryBudget, unfinishable
from ..resilience.degradation import ConcurrencyLadder
from ..resilience.faults import FaultPlan
from ..resilience.metastable import MetastabilityProbe
from ..resilience.retry import app_rng
from ..sim.engine import Environment
from ..sim.errors import DeviceLost, FaultError, HarnessCrash, Interrupt
from ..sim.events import AllOf
from .checkpoint import AppCheckpoint, CheckpointStore
from .config import FleetConfig
from .coordinator import FailoverCoordinator, RecoveryEvent
from .health import HealthEvent, HealthMonitor
from .hedging import HedgeManager, HedgeWin
from .registry import DeviceRegistry
from .thread import FleetAppThread

__all__ = ["DeviceSummary", "FleetResult", "FleetHarness"]


class _ShedWork(Exception):
    """Raised at a checkpoint boundary to abandon deadline-doomed work."""


@dataclass
class DeviceSummary:
    """End-of-run accounting for one fleet device."""

    index: int
    state: str
    loss_time: Optional[float]
    detected_time: Optional[float]
    apps_completed: int
    energy: float
    peak_power: float
    #: ``rail<r>/sw<s>/rack<k>`` fault-domain tag; ``None`` without a
    #: configured topology.
    domain: Optional[str] = None

    def goodput(self, span: float) -> float:
        """Completed apps per second of fleet makespan."""
        return self.apps_completed / span if span > 0 else 0.0


@dataclass
class FleetResult:
    """Everything measured in one fleet run."""

    fleet: FleetConfig
    records: List[AppRecord]
    makespan: float
    total_time: float
    energy: float                 # sum over devices, cut at loss instants
    average_power: float          # fleet energy / makespan
    peak_power: float             # max over devices
    devices: List[DeviceSummary]
    health_events: List[HealthEvent]
    recoveries: List[RecoveryEvent]
    checkpoints: int = 0
    recovered_entries: int = 0
    resumed: bool = False
    #: Generation advances declared by the fence (one per device loss).
    fence_advances: int = 0
    #: Journal writes rejected for presenting a superseded fence token.
    stale_writes_rejected: int = 0
    #: Gray-failure mitigation accounting (all zero with hedging off).
    hedges_launched: int = 0
    hedge_wins: int = 0
    duplicate_kernels: int = 0
    hedge_events: List[dict] = field(default_factory=list)
    #: Failover-storm control accounting (all zero with storm=None).
    storm_queued: int = 0
    storm_released: int = 0
    storm_failed: int = 0
    storm_peak_depth: int = 0
    #: Shared retry-budget accounting (all zero with retry_budget=None).
    retry_budget_granted: int = 0
    retry_budget_denied: int = 0
    #: Metastability accounting (all zero/empty with brownout=None).
    metastable_windows: int = 0
    brownout_level: int = 0
    brownout_events: List[dict] = field(default_factory=list)
    goodput_windows: List[dict] = field(default_factory=list)
    journal_file: Optional[str] = None
    #: The run's telemetry (same object passed to the harness), if enabled.
    telemetry: object = None

    @property
    def completed(self) -> int:
        """Apps that ran to completion."""
        return sum(1 for r in self.records if not r.failed)

    @property
    def shed_apps(self) -> int:
        """Apps shed by deadline propagation or a level-2 brownout."""
        return sum(
            1 for r in self.records if r.outcome.startswith("shed-")
        )

    @property
    def deadline_misses(self) -> int:
        """Apps that finished (or gave up) past their deadline."""
        return sum(
            1 for r in self.records if r.outcome == "deadline-missed"
        )

    @property
    def retries_denied(self) -> int:
        """Retries/re-runs refused by the shared retry budget."""
        return sum(r.retries_denied for r in self.records)

    @property
    def failed(self) -> int:
        """Apps that could not be completed (faults or lost devices)."""
        return sum(1 for r in self.records if r.failed)

    @property
    def migrations(self) -> int:
        """Total device-loss failovers survived."""
        return sum(r.migrations for r in self.records)

    @property
    def reexecuted_kernels(self) -> int:
        """Total kernels re-run because they were in flight at a loss."""
        return sum(r.reexecuted_kernels for r in self.records)

    @property
    def devices_lost(self) -> int:
        """Devices that fell off the bus during the run."""
        return sum(1 for d in self.devices if d.state == "lost")

    @property
    def recovery_time(self) -> float:
        """Worst loss-to-resumed latency across recoveries (seconds)."""
        if not self.recoveries:
            return 0.0
        return max(r["resumed"] - r["lost"] for r in self.recoveries)

    def per_device_goodput(self) -> Dict[int, float]:
        """device index -> completed apps per second of makespan."""
        return {d.index: d.goodput(self.makespan) for d in self.devices}

    def summary(self) -> str:
        """One-paragraph digest (duck-types ``HarnessResult.summary``)."""
        text = (
            f"{len(self.records)} apps on {len(self.devices)} devices "
            f"({self.devices_lost} lost): {self.completed} completed, "
            f"{self.failed} failed, {self.migrations} migrations, "
            f"{self.reexecuted_kernels} kernels re-executed; makespan "
            f"{self.makespan * 1e3:.2f} ms, energy {self.energy:.3f} J, "
            f"avg power {self.average_power:.1f} W"
        )
        if self.recoveries:
            text += f"; worst recovery {self.recovery_time * 1e3:.2f} ms"
        return text


def _fleet_fingerprint(harness: "FleetHarness", spec: DeviceSpec) -> str:
    """Content hash of everything that determines the run's journal."""
    fleet = harness.fleet
    payload = {
        "apps": [[a.app_id, a.profile.name] for a in harness.apps],
        "num_streams": harness.num_streams,
        "memory_sync": harness.memory_sync,
        "copy_policy": harness.copy_policy,
        "spec": spec.name,
        "power_interval": harness.power_interval,
        # HARNESS_CRASH is excluded on purpose: a crash (and the resume
        # that follows) does not change what the run computes, so a
        # crashed-and-resumed journal stays byte-identical to the journal
        # of the same run executed uninterrupted.
        "plan": [
            [f.kind.value, f.time, f.target, f.duration, f.factor,
             f.direction, f.device]
            for f in harness.plan
            if f.kind.value != "harness_crash"
        ],
        "seed": harness.seed,
    }
    # A set config section is keyed by its field name, its values in
    # field order.  An unset one is absent (not None), and so is a false
    # shed_unfinishable, so journals of runs that predate a section keep
    # their bytes.  The remaining scalar fields form the "fleet" list.
    scalars = []
    for f in dataclasses.fields(fleet):
        value = getattr(fleet, f.name)
        if dataclasses.is_dataclass(value):
            payload[f.name] = dataclasses.astuple(value)
        elif value is not None and f.name != "shed_unfinishable":
            scalars.append(value)
    payload["fleet"] = scalars
    if fleet.shed_unfinishable:
        payload["shed_unfinishable"] = True
    if harness.deadlines:
        payload["deadlines"] = sorted(
            [app_id, float(t)] for app_id, t in harness.deadlines.items()
        )
    return fingerprint(payload)


class FleetHarness:
    """Executes one schedule on a fleet of devices, with failover."""

    def __init__(
        self,
        apps: Sequence[KernelApp],
        fleet: Optional[FleetConfig] = None,
        *,
        num_streams: int = 4,
        memory_sync: bool = False,
        spec: Optional[DeviceSpec] = None,
        copy_policy: str = "interleave",
        power_interval: float = 15e-3,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        journal_path=None,
        resume: bool = False,
        telemetry=None,
        tracing=None,
        deadlines: Optional[Dict[str, float]] = None,
    ) -> None:
        if not apps:
            raise ValueError("empty schedule")
        if resume and journal_path is None:
            raise ValueError("resume=True requires a journal_path")
        self.apps = list(apps)
        #: Absolute SLO deadlines per app id (may cover a subset).
        #: Drives queue priority under storm control, deadline shedding
        #: (``shed_unfinishable``), and the late-completion re-run model.
        self.deadlines: Dict[str, float] = dict(deadlines or {})
        known = {a.app_id for a in apps}
        for app_id in self.deadlines:
            if app_id not in known:
                raise ValueError(f"deadline for unknown app {app_id!r}")
        self.fleet = fleet if fleet is not None else FleetConfig()
        self.num_streams = num_streams
        self.memory_sync = memory_sync
        self.spec = spec
        self.copy_policy = copy_policy
        self.power_interval = power_interval
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self.journal_path = journal_path
        self.resume = resume
        self.telemetry = telemetry
        #: Optional repro.telemetry.Tracing: per-app causal traces with
        #: migration-stall / checkpoint / hedge spans.  None = untraced.
        self.tracing = tracing

    def run(self) -> FleetResult:
        """Build the fleet, run the schedule to completion, measure."""
        return _FleetRun(self).run()


class _FleetRun:
    """One run of a :class:`FleetHarness`, in three stages.

    The constructor builds the fleet, :meth:`run` simulates it and
    :meth:`_result` measures what the simulation left behind.
    """

    def __init__(self, harness: FleetHarness) -> None:
        from ..serving.journal import RunJournal

        self.harness = harness
        fleet = self.fleet = harness.fleet
        env = self.env = Environment()
        self.deadlines = harness.deadlines
        self.tracer = (
            harness.tracing.tracer if harness.tracing is not None else None
        )
        registry = self.registry = DeviceRegistry(
            env,
            fleet,
            num_streams=harness.num_streams,
            memory_sync=harness.memory_sync,
            spec=harness.spec,
            copy_policy=harness.copy_policy,
            power_interval=harness.power_interval,
            plan=harness.plan,
        )
        store = self.store = CheckpointStore()

        self.journal = None
        self.recovered = 0
        if harness.journal_path is not None:
            self.journal = RunJournal(harness.journal_path)
            self.recovered = self.journal.begin(
                _fleet_fingerprint(harness, registry.spec),
                resume=harness.resume,
            )

        # Every fleet write goes through the fence, journal file or not:
        # checkpoint writes present their bind-time token, coordinator
        # and terminal records pass tokenless (they are legitimate after
        # a loss).
        fence = self.fence = GenerationFence()
        fenced = self.fenced = FencedJournal(self.journal, fence)
        coordinator = self.coordinator = FailoverCoordinator(
            env, registry, fleet, store, fenced, fence,
            deadlines=self.deadlines,
        )

        # Shared retry budget: one token bucket gating supervisor-style
        # fault retries, deadline re-runs *and* hedge launches.
        self.budget: Optional[RetryBudget] = None
        if fleet.retry_budget is not None:
            self.budget = RetryBudget(fleet.retry_budget, lambda: env.now)

        # Brownout: the concurrency ladder (one width gate per device)
        # and its goodput trigger, built only when configured.  It comes
        # before the hedge manager, which reads its level.
        self.ladder: Optional[ConcurrencyLadder] = None
        self.probe: Optional[MetastabilityProbe] = None
        if fleet.brownout is not None:
            bcfg = fleet.brownout
            narrow = max(1, int(harness.num_streams * bcfg.width_factor))
            self.ladder = ConcurrencyLadder(
                env, (harness.num_streams,) + (narrow,) * bcfg.max_level,
                devices=len(registry),
            )
            self.probe = MetastabilityProbe(
                env, bcfg, lambda: len(registry.healthy()), self.ladder,
                journal=fenced,
            )

        # Gray-failure mitigation is built only when configured: with
        # ``hedging=None`` no detector exists, no observation callbacks
        # fire, no scan process runs — results stay byte-identical.
        self.detector = None
        self.hedges: Optional[HedgeManager] = None
        if fleet.hedging is not None:
            from ..resilience.gray import StragglerDetector

            hcfg = fleet.hedging
            self.detector = StragglerDetector(
                fleet.num_devices,
                ema_alpha=hcfg.ema_alpha,
                window=hcfg.window,
                min_samples=hcfg.min_samples,
                straggler_score=hcfg.straggler_score,
            )
            self.hedges = HedgeManager(
                env,
                registry,
                coordinator,
                store,
                fleet,
                self.detector,
                total_kernels={
                    a.app_id: a.profile.kernel_launches for a in harness.apps
                },
                journal=fenced,
                fence=fence,
                budget=self.budget,
                ladder=self.ladder,
            )

        self.monitor = HealthMonitor(
            env,
            registry,
            interval=fleet.heartbeat_interval,
            detection_latency=fleet.detection_latency,
            detection_jitter=fleet.detection_jitter,
            seed=fleet.seed,
            on_lost=coordinator.device_detected_lost,
            detector=self.detector,
        )
        #: The pollers and telemetry the run starts and stops, in start
        #: order.  The order shows in the journal: pollers that tick at
        #: one instant write in the order they were started.
        self.lifecycle = [
            handle
            for handle in (
                self.monitor,
                self.hedges,
                coordinator.storm,
                self.probe,
                harness.telemetry,
            )
            if handle is not None
        ]

        self.records: List[AppRecord] = []
        self.threads: List[FleetAppThread] = []
        #: Per-app high-water mark of checkpointed kernels: the probe is
        #: fed only *new* progress, and only while the app can still meet
        #: its deadline — work re-executed for doomed attempts is retry
        #: amplification, not goodput.
        self.progress_seen: Dict[str, int] = {}
        if harness.telemetry is not None:
            self._instrument(harness.telemetry)

    def _instrument(self, telemetry) -> None:
        from ..telemetry.probes import (
            instrument_cascade,
            instrument_environment,
            instrument_failover,
            instrument_fleet_device,
            instrument_health_monitor,
            instrument_hedging,
            instrument_integrity,
            instrument_records,
        )

        storm = self.coordinator.storm
        telemetry.attach(self.env)
        instrument_environment(telemetry, self.env)
        for fdev in self.registry:
            instrument_fleet_device(telemetry, fdev)
        instrument_health_monitor(telemetry, self.monitor)
        instrument_failover(telemetry, self.coordinator)
        instrument_records(telemetry, self.records)
        instrument_integrity(
            telemetry, None, fence=self.fence, journal=self.journal
        )
        if self.hedges is not None:
            instrument_hedging(telemetry, self.hedges, self.detector)
        if (
            self.probe is not None
            or storm is not None
            or self.budget is not None
        ):
            instrument_cascade(
                telemetry, probe=self.probe, storm=storm, budget=self.budget
            )

    # -- simulate ----------------------------------------------------------

    def run(self) -> FleetResult:
        """Simulate the schedule, close the run's outputs and measure."""
        env = self.env
        harness = self.harness
        done = env.process(self._parent(), name="fleet-parent")
        # The first planned harness crash kills the run at its arm time —
        # unless we are resuming past it.
        crashes = harness.plan.crash_times()
        if crashes and not harness.resume:
            env.process(self._crash(crashes[0]), name="fleet-crash")
        try:
            env.run(until=done)
        except HarnessCrash as crash:
            if self.journal is not None:
                self.journal.crash(crash.time)
            raise
        env.run()  # settle same-time trailing events
        if harness.telemetry is not None:
            harness.telemetry.finalize()
        if self.journal is not None:
            self.journal.finish()
        if self.tracer is not None:
            for thread in self.threads:
                record = thread.record
                self.tracer.end_trace(
                    thread.trace_ctx, record.complete_time,
                    outcome=record.outcome,
                )
            if self.hedges is not None:
                self._trace_hedges()
        return self._result()

    def _crash(self, at: float):
        yield self.env.timeout(at)
        raise HarnessCrash(self.env.now)

    def _parent(self):
        """Prepare every app, start the pollers, spawn the drivers, wait,
        and tear down."""
        env = self.env
        tracer = self.tracer
        for launch_index, app in enumerate(self.harness.apps):
            record = AppRecord(
                app_id=app.app_id,
                type_name=app.profile.name,
                instance=app.instance,
                stream_index=-1,
                launch_index=launch_index,
            )
            if app.app_id in self.deadlines:
                record.slo_deadline = self.deadlines[app.app_id]
            self.records.append(record)
            thread = FleetAppThread(
                env, app, record,
                checkpoint=AppCheckpoint(app_id=app.app_id),
                on_checkpoint=self._on_checkpoint,
            )
            thread.detector = self.detector
            self._bind(thread, self.coordinator.register(thread))
            self.threads.append(thread)
            if tracer is not None:
                thread.trace_ctx = tracer.start_trace(
                    record.app_id, env.now,
                    type=record.type_name, index=launch_index,
                )
            prepare_from = env.now
            yield from thread.prepare()
            if tracer is not None and env.now > prepare_from:
                tracer.record_leaf(
                    thread.trace_ctx, "host.prepare", "prepare",
                    prepare_from, env.now,
                )

        self.registry.start()
        for handle in self.lifecycle:
            handle.start()
        children = []
        for thread in self.threads:
            yield env.timeout(self.registry.spec.host.thread_spawn_cost)
            thread.record.spawn_time = env.now
            proc = env.process(
                self._drive(thread), name=f"fleet-drive-{thread.app.app_id}"
            )
            self.coordinator.register_proc(thread.app.app_id, proc)
            children.append(proc)
        yield AllOf(env, children)
        for handle in self.lifecycle:
            handle.stop()
        self.registry.stop()
        for thread in self.threads:
            yield from thread.cleanup()
        if self.hedges is not None:
            yield from self.hedges.cleanup_replicas()

    def _bind(self, thread: FleetAppThread, fdev) -> None:
        # (Re-)binding takes a fresh fencing token; snapshots carry its
        # generation so stale post-failover writes are rejected.
        thread.bind(fdev)
        thread.fence_token = self.fence.token(fdev.index)
        thread.checkpoint.generation = thread.fence_token.generation

    def _note_progress(self, thread: FleetAppThread) -> None:
        if self.probe is None:
            return
        app_id = thread.app.app_id
        completed = thread.checkpoint.completed_kernels
        seen = self.progress_seen.get(app_id, 0)
        if completed > seen:
            deadline = self.deadlines.get(app_id)
            if deadline is None or self.env.now <= deadline:
                self.probe.note_progress(completed - seen)
            self.progress_seen[app_id] = completed

    def _on_checkpoint(self, thread: FleetAppThread) -> None:
        app_id = thread.app.app_id
        now = self.env.now
        self._note_progress(thread)
        if self.tracer is not None:
            self.tracer.instant(
                thread.trace_ctx, "checkpoint", "checkpoint", now,
                kernels=thread.checkpoint.completed_kernels,
            )
        # A migrant that reached a phase boundary on its new device is
        # warmed up: its recovery slot stops gating the queue.
        self.coordinator.note_warmed(app_id)
        if self.fleet.checkpoint:
            snapshot = dataclasses.replace(thread.checkpoint)
            self.store.save(snapshot)
            self.fenced.record(snapshot.as_entry(), token=thread.fence_token)
        if self.fleet.shed_unfinishable and unfinishable(
            now, self.deadlines.get(app_id)
        ):
            # Deadline propagation: the attempt cannot produce useful
            # output anymore, so stop burning capacity on it.
            raise _ShedWork()

    @staticmethod
    def _adopt_win(record: AppRecord, win: HedgeWin) -> None:
        # The replica's result becomes the app's result; its measured
        # events join the record so all executed work stays visible.
        record.outcome = "completed"
        record.complete_time = win.time
        record.device_index = win.device
        record.stream_index = win.stream
        record.hedge_wins += 1
        record.duplicate_kernels += win.duplicates
        record.kernels.extend(win.kernels)
        record.transfers.extend(win.transfers)

    def _drive(self, thread: FleetAppThread):
        """One app's driver: attempts, retries and migrations, until the
        app reaches a terminal outcome."""
        record = thread.record
        env = self.env
        fleet = self.fleet
        coordinator = self.coordinator
        hedges = self.hedges
        budget = self.budget
        tracer = self.tracer
        app_id = thread.app.app_id
        deadline = self.deadlines.get(app_id)
        backoff_rng = (
            app_rng(self.harness.seed, app_id)
            if fleet.retry_backoff is not None
            else None
        )
        fault_failures = 0
        attempts = 0
        pending_reexec: Optional[int] = None

        def terminal(outcome: str) -> None:
            record.failed = outcome != "completed"
            record.outcome = outcome
            record.complete_time = env.now

        while True:
            acquire_from = env.now
            fdev = yield from coordinator.acquire_device(app_id)
            if tracer is not None and env.now > acquire_from:
                # Parked waiting for a surviving device: the failover/
                # re-placement stall the critical path should show.
                tracer.record(
                    thread.trace_ctx, "migration.stall", "migration-stall",
                    acquire_from, env.now, attempt=attempts + 1,
                )
            if hedges is not None:
                # A replica may have finished while this driver was
                # parked mid-failover: adopt its win instead of
                # re-running from the checkpoint.
                win = hedges.claim_win(app_id)
                if win is not None:
                    self._adopt_win(record, win)
                    break
            if fdev is None:
                terminal("device-lost")
                break
            if fleet.shed_unfinishable and unfinishable(env.now, deadline):
                # Deadline propagation at admission: do not start
                # (or restart) work that can no longer finish.
                terminal("shed-deadline")
                break
            if self.probe is not None and self.probe.shed_class(
                record.type_name
            ):
                # Level-2 brownout: low-priority classes are dropped
                # at their next admission point.
                terminal("shed-brownout")
                break
            if pending_reexec is not None:
                record.migrations += 1
                record.reexecuted_kernels += pending_reexec
                pending_reexec = None
            self._bind(thread, fdev)
            attempts += 1
            record.attempts = attempts
            # Level >= 1 brownouts narrow per-device admission width
            # so running attempts stop time-sharing with the backlog.
            gate = self.ladder.gates[fdev.index] if self.ladder else None
            holding = False
            try:
                if gate is not None:
                    gate_from = env.now
                    yield from gate.acquire()
                    holding = True
                    if tracer is not None and env.now > gate_from:
                        tracer.record_leaf(
                            thread.trace_ctx, "brownout.gate",
                            "admission-limiter", gate_from, env.now,
                        )
                yield from thread.run_attempt()
            except _ShedWork:
                terminal("shed-deadline")
                break
            except Interrupt as exc:
                cause = exc.cause
                if isinstance(cause, HedgeWin):
                    self._adopt_win(record, cause)
                    break
                if not isinstance(cause, DeviceLost):
                    raise
                pending_reexec = thread.note_device_lost(cause)
                if not fleet.checkpoint:
                    pending_reexec += thread.restart_from_scratch()
                continue
            except FaultError:
                fault_failures += 1
                record.faults_detected += 1
                if fault_failures >= fleet.max_attempts:
                    terminal("failed")
                    break
                if fleet.shed_unfinishable and unfinishable(
                    env.now, deadline
                ):
                    terminal("shed-deadline")
                    break
                if budget is not None and not budget.try_spend(
                    record.type_name, env.now
                ):
                    # The attempt cap would allow a retry, but the
                    # shared budget is empty: shed, don't amplify.
                    record.retries_denied += 1
                    terminal("retry-budget")
                    break
                record.retries += 1
                thread.reset_attempt()
                if not fleet.checkpoint:
                    thread.restart_from_scratch()
                if backoff_rng is not None:
                    delay = fleet.retry_backoff.delay(
                        fault_failures, backoff_rng
                    )
                    if delay > 0:
                        backoff_from = env.now
                        yield env.timeout(delay)
                        if tracer is not None:
                            tracer.record(
                                thread.trace_ctx, "retry.backoff",
                                "retry-backoff", backoff_from, env.now,
                                attempt=attempts,
                            )
                continue
            finally:
                if holding:
                    gate.release()
            # The attempt finished cleanly — but did it finish in
            # time?  A late completion is worthless to its client.
            if deadline is not None and env.now > deadline:
                if fleet.shed_unfinishable or attempts >= fleet.max_attempts:
                    terminal("deadline-missed")
                    break
                if budget is not None and not budget.try_spend(
                    record.type_name, env.now
                ):
                    record.retries_denied += 1
                    terminal("deadline-missed")
                    break
                # Uncontained client behaviour: the response arrived
                # too late, so the whole request is re-submitted from
                # scratch — the deadline-driven retry storm that
                # containment exists to break.
                record.retries += 1
                thread.reset_attempt()
                record.reexecuted_kernels += thread.restart_from_scratch()
                continue
            record.outcome = "completed"
            break
        coordinator.note_warmed(app_id)
        if hedges is not None:
            # Terminal either way: a still-racing replica stands down.
            hedges.primary_terminal(app_id)
        coordinator.note_done(app_id)
        # Tokenless on purpose: a "device-lost" terminal outcome is
        # legitimately written after the generation advanced.
        self.fenced.record(
            {
                "event": "app",
                "app": app_id,
                "outcome": record.outcome,
                "device": record.device_index,
                "migrations": record.migrations,
                "reexec": record.reexecuted_kernels,
                "complete": record.complete_time,
            }
        )

    def _trace_hedges(self) -> None:
        """Convert the hedge manager's event log into trace spans.

        Each ``hedge`` / ``hedge-done`` pair becomes one ``hedge`` span
        on the primary app's trace (launch -> win/cancel).  Every launch
        has its ``hedge-done`` by now: a driver settles its replica
        before it returns, and a crashed run never gets here.
        """
        ctx_of = {t.app.app_id: t.trace_ctx for t in self.threads}
        launches = {}
        for event in self.hedges.events:
            key = (event["app"], event["replica"])
            if event["event"] == "hedge":
                launches[key] = event
                continue
            launch = launches.pop(key)
            self.tracer.record(
                ctx_of[event["app"]], "hedge.replica", "hedge",
                launch["t"], event["t"],
                replica=event["replica"],
                winner=event["winner"],
                duplicates=event["dup"],
            )

    # -- measure -----------------------------------------------------------

    def _result(self) -> FleetResult:
        """Per-device summaries and fleet totals of the finished run."""
        records = self.records
        registry = self.registry
        coordinator = self.coordinator
        storm = coordinator.storm
        hedges = self.hedges
        probe = self.probe
        budget = self.budget
        span = makespan(records)
        t0 = min(r.spawn_time for r in records)
        t1 = max(r.complete_time for r in records)
        summaries: List[DeviceSummary] = []
        total_energy = 0.0
        peak = 0.0
        for device in registry:
            energy = device.energy_between(t0, t1)
            total_energy += energy
            peak = max(peak, device.monitor.peak_power())
            summaries.append(
                DeviceSummary(
                    index=device.index,
                    state=device.state.value,
                    loss_time=device.loss_time,
                    detected_time=device.detected_time,
                    apps_completed=sum(
                        1
                        for r in records
                        if not r.failed and r.device_index == device.index
                    ),
                    energy=energy,
                    peak_power=device.monitor.peak_power(),
                    domain=(
                        registry.topology.label(device.index)
                        if registry.topology is not None
                        else None
                    ),
                )
            )
        for recovery in coordinator.recoveries:
            recovery["reexecuted_kernels"] = sum(
                r.reexecuted_kernels
                for r in records
                if r.app_id in recovery["apps"]
            )
        journal_path = self.harness.journal_path
        return FleetResult(
            fleet=self.fleet,
            records=records,
            makespan=span,
            total_time=self.env.now,
            energy=total_energy,
            average_power=total_energy / span if span > 0 else 0.0,
            peak_power=peak,
            devices=summaries,
            health_events=self.monitor.events,
            recoveries=coordinator.recoveries,
            checkpoints=self.store.snapshots,
            recovered_entries=self.recovered,
            resumed=self.harness.resume,
            fence_advances=self.fence.advances,
            stale_writes_rejected=coordinator.stale_writes_rejected,
            hedges_launched=hedges.hedges_launched if hedges else 0,
            hedge_wins=hedges.hedge_wins if hedges else 0,
            duplicate_kernels=hedges.duplicate_kernels if hedges else 0,
            hedge_events=list(hedges.events) if hedges else [],
            storm_queued=storm.queued_total if storm else 0,
            storm_released=storm.released_total if storm else 0,
            storm_failed=storm.failed_total if storm else 0,
            storm_peak_depth=storm.peak_depth if storm else 0,
            retry_budget_granted=budget.granted_total if budget else 0,
            retry_budget_denied=budget.denied_total if budget else 0,
            metastable_windows=probe.metastable_windows if probe else 0,
            brownout_level=probe.level if probe else 0,
            brownout_events=list(probe.events) if probe else [],
            goodput_windows=list(probe.windows) if probe else [],
            journal_file=str(journal_path) if journal_path else None,
            telemetry=self.harness.telemetry,
        )
