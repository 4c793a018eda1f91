"""The serving layer's entry point: :func:`run_serving`.

One open-loop engine serves an arrival trace under an online
:class:`~repro.serving.dispatch.Dispatcher` and a
:class:`~repro.serving.config.ServingConfig`.  After the config handling:

* each arrival's absolute SLO deadline comes from its type's
  serial-baseline runtime (plus seeded per-arrival jitter), or rides on
  the arrival itself,
* the per-type circuit breaker panel is instantiated,
* the fault plan splits into device faults (injected as usual) and the
  first ``HARNESS_CRASH`` (which kills the run at its arm time),
* the crash-safe run journal opens, fingerprinted by the full run
  configuration,

the engine's steps — arrival source, admission, execution and settle —
run as simulation processes, and the per-record outcomes aggregate into
a :class:`ServingResult` with *goodput* (deadline-met completions per
second) reported separately from raw throughput.

Crash/resume contract: a run killed by :class:`~repro.sim.errors.\
HarnessCrash` leaves a valid journal prefix on disk; calling
:func:`run_serving` again with the same arguments and ``resume=True``
replays the run deterministically, verifies the prefix, and returns the
same :class:`ServingResult` an uninterrupted run would have produced —
byte-identical.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.registry import get_app_class
from ..core.workload import SCALES, resolve_scale
from ..framework.app_thread import AppThread
from ..framework.device_stack import DeviceStack
from ..framework.metrics import AppRecord, deadline_met_count
from ..gpu.specs import DeviceSpec
from ..integrity.record import fingerprint as sha1_fingerprint
from ..resilience.faults import FaultKind, FaultPlan
from ..sim.engine import Environment
from ..sim.errors import FaultError, HarnessCrash
from ..sim.events import AllOf, Event
from .breaker import CircuitBreakerPanel
from .config import ServingConfig
from .dispatch import (
    AdmissionStallWarning,
    Arrival,
    Dispatcher,
    GreedyDispatcher,
)
from .fleet_gate import FleetCapacityGate
from .journal import RunJournal

__all__ = [
    "ServingResult",
    "SHED_OUTCOMES",
    "measure_service_baselines",
    "run_serving",
    "BatchOutcome",
    "BatchedServingResult",
    "run_batched_serving",
]

#: Terminal outcomes that mean "never ran": shed by admission control.
SHED_OUTCOMES = ("shed-reject", "shed-oldest", "shed-deadline", "breaker-open")

#: Slack for float comparisons on the simulated clock.
_EPS = 1e-15


@dataclass
class ServingResult:
    """Measurements and outcome accounting of one serving run.

    ``jobs`` counts every *arrival*; :attr:`throughput` counts only jobs
    that actually completed, and :attr:`goodput` only the completions
    that met their SLO deadline.  ``records``, ``sojourn_times`` and
    ``queue_delays`` stay empty when a sink took the outcomes.
    """

    dispatcher: str
    jobs: int
    completion_time: float          # last job completion (s)
    records: List[AppRecord]
    sojourn_times: List[float]      # arrival -> completion per job
    queue_delays: List[float]       # arrival -> admission per job
    energy: float
    average_power: float
    peak_power: float
    peak_in_flight: int
    outcomes: Dict[str, int] = field(default_factory=dict)
    deadline_met: int = 0
    breaker_trips: int = 0
    breaker_fast_fails: int = 0
    recovered_entries: int = 0
    resumed: bool = False
    journal_file: Optional[str] = None
    # -- fleet accounting (zero outside fleet-aware runs) -----------------
    fleet_devices: int = 0       # devices the capacity was spread across
    devices_lost: int = 0        # losses detected during the run

    @property
    def mean_sojourn(self) -> float:
        """Mean time from arrival to completion."""
        return float(np.mean(self.sojourn_times)) if self.sojourn_times else 0.0

    @property
    def p95_sojourn(self) -> float:
        """95th-percentile sojourn time."""
        if not self.sojourn_times:
            return 0.0
        return float(np.percentile(self.sojourn_times, 95))

    @property
    def p99_sojourn(self) -> float:
        """99th-percentile sojourn time (the serving layer's tail metric)."""
        if not self.sojourn_times:
            return 0.0
        return float(np.percentile(self.sojourn_times, 99))

    @property
    def completed(self) -> int:
        """Jobs that ran to completion (on time or late)."""
        return self.outcomes.get("completed", 0) + self.outcomes.get("late", 0)

    @property
    def shed(self) -> int:
        """Jobs shed by admission control (never dispatched)."""
        return sum(self.outcomes.get(k, 0) for k in SHED_OUTCOMES)

    @property
    def failed(self) -> int:
        """Jobs dispatched but killed by an injected fault."""
        return self.outcomes.get("failed", 0)

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals shed before execution."""
        return self.shed / self.jobs if self.jobs else 0.0

    @property
    def throughput(self) -> float:
        """Completed jobs per second of makespan (sheds excluded)."""
        if not self.completion_time:
            return 0.0
        return self.completed / self.completion_time

    @property
    def goodput(self) -> float:
        """Deadline-met completions per second of makespan.

        The serving layer's headline metric: raw throughput counts every
        completion, goodput only the ones that still had value when they
        landed.
        """
        if not self.completion_time:
            return 0.0
        return self.deadline_met / self.completion_time

    def summary(self) -> str:
        """One-line digest for reports."""
        return (
            f"{self.dispatcher}: {self.jobs} arrivals -> "
            f"{self.completed} completed ({self.deadline_met} in-SLO), "
            f"{self.shed} shed, {self.failed} failed in "
            f"{self.completion_time * 1e3:.1f} ms; goodput "
            f"{self.goodput:.0f}/s vs throughput {self.throughput:.0f}/s, "
            f"p99 sojourn {self.p99_sojourn * 1e3:.2f} ms"
        )


#: Serial-baseline sojourns per (type, scale) on the default device.
_BASELINE_CACHE: Dict[tuple, float] = {}


def measure_service_baselines(
    type_names: Iterable[str],
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
) -> Dict[str, float]:
    """End-to-end serial-baseline latency (seconds) per application type.

    One single-arrival serving run per type on an otherwise idle device:
    the measured sojourn covers host-side preparation *and* the GPU
    section — the unit an arrival-to-completion SLO has to be scaled
    from (the resilience watchdog's GPU-section baseline would undershoot
    by the preparation cost).  Cached per (type, scale) on the default
    device.
    """
    scale_name = resolve_scale(scale)
    baselines: Dict[str, float] = {}
    for name in sorted(set(type_names)):
        key = (name, scale_name)
        if spec is None and key in _BASELINE_CACHE:
            baselines[name] = _BASELINE_CACHE[key]
            continue
        result = run_serving(
            [Arrival(index=0, time=0.0, type_name=name)],
            GreedyDispatcher(),
            num_streams=1,
            scale=scale_name,
            spec=spec,
        )
        value = result.sojourn_times[0]
        if spec is None:
            _BASELINE_CACHE[key] = value
        baselines[name] = value
    return baselines


def _fingerprint(
    arrivals: Sequence[Arrival],
    dispatcher: Dispatcher,
    num_streams: int,
    memory_sync: bool,
    scale_name: str,
    power_interval: float,
    config: ServingConfig,
    baselines: Optional[Mapping[str, float]],
) -> str:
    """Content hash of everything that determines the run's outcome log."""
    plan = config.plan
    payload = {
        "arrivals": [[a.index, a.time, a.type_name] for a in arrivals],
        "dispatcher": dispatcher.name,
        "stall_timeout": dispatcher.stall_timeout,
        "num_streams": num_streams,
        "memory_sync": memory_sync,
        "scale": scale_name,
        "power_interval": power_interval,
        "queue_depth": config.queue_depth,
        "queue_policy": config.queue_policy,
        "slo_factor": config.slo_factor,
        "slo_jitter": config.slo_jitter,
        "shed_unreachable": config.shed_unreachable,
        "breaker": (
            [
                config.breaker.threshold,
                config.breaker.cooldown,
                config.breaker.jitter,
            ]
            if config.breaker is not None
            else None
        ),
        "plan": (
            [
                [
                    f.kind.value,
                    f.time,
                    f.target,
                    f.duration,
                    f.factor,
                    f.direction,
                ]
                for f in plan
            ]
            if plan is not None
            else []
        ),
        "seed": config.seed,
        "baselines": sorted((baselines or {}).items()),
    }
    # Fleet-aware runs extend the payload; single-device payloads stay
    # exactly as before so existing journals keep their fingerprints.
    if config.fleet is not None:
        payload["fleet"] = [
            config.fleet.num_devices,
            config.fleet.detection_latency,
            config.fleet.scope_breakers,
        ]
        payload["plan_devices"] = (
            [f.device for f in plan] if plan is not None else []
        )
        if config.fleet.slow_start_window > 0:
            payload["fleet_slow_start"] = [
                config.fleet.slow_start_window,
                config.fleet.slow_start_floor,
            ]
    if config.breaker is not None and config.breaker.slow_start_initial > 0:
        payload["breaker_slow_start"] = [
            config.breaker.slow_start_initial,
            config.breaker.slow_start_interval,
            config.breaker.slow_start_steps,
        ]
    return sha1_fingerprint(payload)


def _compute_deadlines(
    arrivals: Sequence[Arrival],
    baselines: Mapping[str, float],
    config: ServingConfig,
) -> Dict[int, float]:
    """Absolute SLO deadline keyed by arrival index.

    ``deadline = arrival + slo_factor * baseline * (1 + jitter_draw)``;
    jitter draws come from one generator seeded with
    ``(seed, crc32("slo-jitter"))`` consumed in arrival-index order, so
    the schedule is reproducible and independent of trace construction.
    """
    rng = np.random.default_rng(
        [config.seed, zlib.crc32(b"slo-jitter")]
    )
    deadlines: Dict[int, float] = {}
    for arrival in sorted(arrivals, key=lambda a: a.index):
        window = config.slo_factor * baselines[arrival.type_name]
        if config.slo_jitter > 0:
            window *= 1.0 + config.slo_jitter * (2.0 * float(rng.random()) - 1.0)
        deadlines[arrival.index] = arrival.time + window
    return deadlines


def run_serving(
    arrivals: Iterable[Arrival],
    dispatcher: Dispatcher,
    config: Optional[ServingConfig] = None,
    *,
    num_streams: int = 32,
    memory_sync: bool = True,
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
    power_interval: float = 1e-3,
    journal_path=None,
    resume: bool = False,
    telemetry=None,
    tracing=None,
    fingerprint: Optional[str] = None,
    sink=None,
    front_door: bool = False,
) -> ServingResult:
    """Execute an arrival trace under a dispatcher and a serving config.

    With the default config this is the plain open-loop engine: every
    arrival is admitted when the dispatcher allows it and runs to
    completion.  Raises :class:`~repro.sim.errors.HarnessCrash` when the
    fault plan kills the harness mid-run — the journal keeps everything
    committed up to that instant; call again with ``resume=True`` to
    recover.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`) additionally
    samples queue depths, in-flight count, outcome counters and sojourn
    histograms; ``None`` leaves every code path untouched.  ``tracing``
    (a :class:`~repro.telemetry.Tracing`) records one causal trace per
    arrival — admission queue, stream, mutex and DMA waits — and feeds
    terminal outcomes to the SLO burn-rate monitor when one is
    configured.  When it also carries an ``alert_journal`` path, SLO
    burn-rate alerts are journaled there — fenced, crash-safe and
    replay-verified on resume exactly like the outcome journal.  ``None``
    leaves results byte-identical.

    **Deadlines.**  With ``config.slo_factor > 0`` each arrival's deadline
    is computed from its type's baseline; otherwise a deadline carried on
    the arrival is used.  The baselines in ``config.baseline_runtimes``
    are the service estimates whenever they are given (else, with an SLO
    factor, they are measured), and ``config.shed_unreachable`` sheds a
    job whose deadline its estimate can no longer meet — the same rule
    for a list and an iterator.

    **Streamed traces.**  ``arrivals`` may also be a lazy iterable (a
    :mod:`repro.workload` traffic stream), consumed one arrival at a time
    and never materialized.  So per-arrival deadlines must travel on the
    arrivals themselves (``config.slo_factor`` must be 0), and a journal
    needs an explicit ``fingerprint`` (the identity hash normally derived
    from the materialized trace).  Outcome aggregation can move to a
    ``sink`` — an object with a ``settle(record, arrival_time)`` method
    plus ``outcomes``/``deadline_met`` views, e.g.
    :class:`repro.workload.TrafficStats`.  With a sink the engine runs in
    bounded-memory mode: each record is dropped once settled, and no
    per-job sojourn or queue-delay list is kept.  ``front_door=True``
    sheds arrivals inside the arrival source, before the application
    object is even constructed, whenever the admission pipeline
    (preparing + ready jobs) is already at ``queue_depth``; it requires
    the ``"reject"`` policy, and keeps an overloaded million-request run
    O(queue_depth) in memory and O(1) per shed arrival.
    """
    config = config or ServingConfig()
    if resume and journal_path is None and (
        tracing is None or tracing.alert_journal is None
    ):
        raise ValueError("resume=True requires a journal_path")
    if front_door and (
        config.queue_policy != "reject" or config.queue_depth <= 0
    ):
        raise ValueError(
            "front_door shedding requires queue_policy='reject' "
            "and a positive queue_depth"
        )
    scale_name = resolve_scale(scale)
    streamed = not isinstance(arrivals, Sequence)

    deadlines: Optional[Dict[int, float]] = None
    baselines: Optional[Dict[str, float]] = None
    if config.baseline_runtimes is not None:
        baselines = dict(config.baseline_runtimes)
    if config.slo_factor > 0:
        if streamed:
            raise ValueError(
                "slo_factor requires a materialized trace; streamed "
                "arrivals carry their own deadlines"
            )
        if baselines is None:
            baselines = measure_service_baselines(
                (a.type_name for a in arrivals), scale=scale_name, spec=spec
            )
        deadlines = _compute_deadlines(arrivals, baselines, config)
    shed_unreachable = config.shed_unreachable and baselines is not None

    # Split the plan: device faults go to the injector, the first
    # HARNESS_CRASH kills the run (unless we are resuming past it).
    crash_at: Optional[float] = None
    device_plan: Optional[FaultPlan] = None
    if config.plan is not None and not config.plan.empty:
        rest = FaultPlan(
            [f for f in config.plan if f.kind is not FaultKind.HARNESS_CRASH]
        )
        if not rest.empty:
            device_plan = rest
        crashes = config.plan.crash_times()
        if crashes and not resume:
            crash_at = crashes[0]

    # Both journals are keyed by the run's fingerprint, derived once.
    alerting = (
        tracing is not None
        and tracing.monitor is not None
        and tracing.alert_journal is not None
    )
    if fingerprint is None and (journal_path is not None or alerting):
        if streamed:
            raise ValueError(
                "journaling a streamed trace requires an explicit "
                "fingerprint (the trace cannot be materialized to "
                "derive one)"
            )
        fingerprint = _fingerprint(
            arrivals,
            dispatcher,
            num_streams,
            memory_sync,
            scale_name,
            power_interval,
            config,
            baselines,
        )

    journal: Optional[RunJournal] = None
    recovered = 0
    if journal_path is not None:
        journal = RunJournal(journal_path)
        recovered = journal.begin(fingerprint, resume=resume)

    # The burn-rate monitor's alert journal: its own file, fingerprinted
    # by the run *plus* the alert policy, with every write fenced.  The
    # main journal's fingerprint is untouched (tracing cannot change the
    # outcome log), so pre-tracing journals stay valid.
    alert_journal: Optional[RunJournal] = None
    if alerting:
        from ..integrity.fencing import FencedJournal, GenerationFence

        burn = tracing.burn
        alert_fpr = sha1_fingerprint(
            {
                "run": fingerprint,
                "budget": burn.budget,
                "windows": [list(w) for w in burn.windows],
                "min_events": burn.min_events,
            }
        )
        alert_journal = RunJournal(tracing.alert_journal)
        alert_journal.begin(alert_fpr, resume=resume)
        fence = GenerationFence()
        tracing.monitor.journal = FencedJournal(alert_journal, fence)
        tracing.monitor.token = fence.token(0)
    journals = [j for j in (journal, alert_journal) if j is not None]

    breaker: Optional[CircuitBreakerPanel] = None
    if config.breaker is not None:
        breaker = CircuitBreakerPanel(
            config.breaker, seed=config.seed, telemetry=telemetry
        )

    fleet_gate: Optional[FleetCapacityGate] = None
    if config.fleet is not None:
        fleet_gate = FleetCapacityGate.from_plan(
            config.fleet, num_streams, config.plan
        )

    # -- arrival source ---------------------------------------------------
    # Any iterable ordered by arrival time, consumed one arrival at a time.
    arrival_iter = iter(arrivals)
    head = next(arrival_iter, None)
    if head is None:
        raise ValueError("empty arrival trace")
    arrival_iter = itertools.chain((head,), arrival_iter)
    retain_records = sink is None
    env = Environment()
    stack = DeviceStack(
        env,
        spec,
        num_streams,
        memory_sync,
        plan=device_plan,
        power_interval=power_interval,
    )
    device = stack.gpu
    manager = stack.manager
    synchronizer = stack.synchronizer
    monitor = stack.monitor
    if not retain_records:
        # Bounded-memory mode: drop the O(simulated-time) power history.
        # The exact running energy integral and the monitor's aggregate
        # stats survive; only retrospective series queries are given up.
        device.power.retain_segments = False
        monitor.retain_samples = False

    records: List[AppRecord] = []
    sojourns: List[float] = []
    queue_delays: List[float] = []
    state = {
        "in_flight": 0,
        "peak": 0,
        "settled": 0,
        "produced": 0,       # arrivals emitted by the source so far
        "source_done": False,
        "front_queue": 0,    # preparing + ready jobs (front-door bound)
        "last_complete": 0.0,
        "last_energy": 0.0,  # exact J integral at last_complete
    }
    #: Jobs ready for admission, ordered by (arrival time, arrival index):
    #: strict FIFO release by arrival, deterministic tie-break by index.
    ready: List[Tuple[float, int, AppThread]] = []
    #: Arrivals back-pressured by a full bounded queue, same ordering.
    blocked: List[Tuple[float, int, Event]] = []
    admit_poke = {"event": None}

    def breaker_key(record: AppRecord) -> str:
        """Breaker scope: per (device, type) with a fleet gate, else type."""
        if fleet_gate is not None:
            return fleet_gate.breaker_key(record)
        return record.type_name

    tracer = tracing.tracer if tracing is not None else None
    burn_monitor = tracing.monitor if tracing is not None else None
    #: launch_index -> root SpanContext for every traced arrival.
    trace_ctxs: Dict[int, object] = {}

    outcome_counter = None
    sojourn_hist = None
    goodput_counter = None
    if telemetry is not None:
        from ..telemetry.probes import (
            instrument_device,
            instrument_environment,
            instrument_injector,
            instrument_records,
        )

        telemetry.attach(env)
        instrument_environment(telemetry, env)
        instrument_device(telemetry, device)
        instrument_records(telemetry, records)
        instrument_injector(telemetry, stack.injector)
        admission_depth = telemetry.gauge(
            "repro_serving_admission_queue_depth",
            "Jobs prepared and waiting for admission",
        )
        blocked_depth = telemetry.gauge(
            "repro_serving_blocked_arrivals",
            "Arrivals back-pressured by a full bounded queue",
        )
        inflight_gauge = telemetry.gauge(
            "repro_serving_in_flight", "Jobs admitted and not yet settled"
        )
        outcome_counter = telemetry.counter(
            "repro_serving_outcomes_total",
            "Terminal job outcomes",
            labelnames=("outcome",),
        )
        goodput_counter = telemetry.counter(
            "repro_serving_goodput_jobs_total",
            "Jobs completed within their SLO (or with no SLO set)",
        )
        sojourn_hist = telemetry.histogram(
            "repro_serving_sojourn_seconds", "Arrival-to-completion latency"
        )
        telemetry.add_probe(lambda: admission_depth.set(len(ready)))
        telemetry.add_probe(lambda: blocked_depth.set(len(blocked)))
        telemetry.add_probe(lambda: inflight_gauge.set(state["in_flight"]))

    instance_counters: Dict[str, int] = {}

    def new_record(arrival: Arrival, app_id: str, instance: int) -> AppRecord:
        """The record of one arrival, with its deadline and tenant."""
        record = AppRecord(
            app_id=app_id,
            type_name=arrival.type_name,
            instance=instance,
            stream_index=-1,
            launch_index=arrival.index,
        )
        if deadlines is not None:
            record.slo_deadline = deadlines[arrival.index]
        elif arrival.deadline > 0.0:
            record.slo_deadline = arrival.deadline
        if arrival.tenant:
            record.tenant = arrival.tenant
            record.tenant_id = arrival.tenant_id
        return record

    def make_thread(arrival: Arrival) -> AppThread:
        count = instance_counters.get(arrival.type_name, 0)
        instance_counters[arrival.type_name] = count + 1
        kwargs = SCALES[scale_name].get(arrival.type_name, {})
        app = get_app_class(arrival.type_name).create(instance=count, **kwargs)
        record = new_record(arrival, app.app_id, count)
        records.append(record)
        return AppThread(env, device, app, synchronizer, record)

    def poke() -> None:
        evt = admit_poke["event"]
        if evt is not None and not evt.triggered:
            evt.succeed()

    # -- settle -----------------------------------------------------------
    def finalize(record: AppRecord, outcome: str, arrival_time: float) -> None:
        """Stamp a terminal outcome and journal it (host-side only)."""
        record.outcome = outcome
        if tracer is not None:
            ctx = trace_ctxs.pop(record.launch_index, None)
            if ctx is not None:
                tracer.end_trace(ctx, env.now, outcome=outcome)
        if burn_monitor is not None:
            burn_monitor.observe(env.now, outcome == "completed")
        if outcome_counter is not None:
            outcome_counter.inc(outcome=outcome)
            if outcome == "completed":
                goodput_counter.inc()
            if record.ran:
                sojourn_hist.observe(env.now - arrival_time)
        if journal is not None:
            journal.record(
                {
                    "index": record.launch_index,
                    "app_id": record.app_id,
                    "type": record.type_name,
                    "outcome": outcome,
                    "arrival": arrival_time,
                    "admit": record.spawn_time if record.spawn_time > 0 else None,
                    "complete": record.complete_time if record.ran else None,
                    "deadline": (
                        record.slo_deadline if record.slo_deadline > 0 else None
                    ),
                    "deadline_met": record.deadline_met if record.ran else None,
                    # The device key exists only in fleet-aware runs, so
                    # single-device journals stay byte-identical.
                    **(
                        {"device": record.device_index}
                        if fleet_gate is not None
                        else {}
                    ),
                    # Tenant keys exist only in multi-tenant traffic runs.
                    **(
                        {"tenant": record.tenant, "user": record.tenant_id}
                        if record.tenant
                        else {}
                    ),
                }
            )
        if record.ran and record.complete_time > state["last_complete"]:
            state["last_complete"] = record.complete_time
            # Snapshot now, while complete_time is still the present: in
            # bounded-memory mode the segment history a later query
            # would need is gone.
            state["last_energy"] = device.power.energy(record.complete_time)
        if sink is not None:
            sink.settle(record, arrival_time)
            # Identity-based removal: the live window is O(in-flight).
            for i in range(len(records) - 1, -1, -1):
                if records[i] is record:
                    del records[i]
                    break

    def shed(record: AppRecord, outcome: str, arrival_time: float) -> None:
        """Terminal outcome for a job that never starts; unblocks the loop."""
        finalize(record, outcome, arrival_time)
        state["settled"] += 1
        poke()

    # -- execution --------------------------------------------------------
    def job_body(thread: AppThread, arrival_time: float):
        record = thread.record
        failed = False
        try:
            yield from thread.run()
        except FaultError:
            failed = True
        state["in_flight"] -= 1
        if failed:
            record.failed = True
            if breaker is not None:
                breaker.on_failure(breaker_key(record), env.now)
            finalize(record, "failed", arrival_time)
        else:
            if retain_records:
                sojourns.append(env.now - arrival_time)
            if breaker is not None:
                breaker.on_success(breaker_key(record), env.now)
            late = 0 < record.slo_deadline < env.now - _EPS
            finalize(record, "late" if late else "completed", arrival_time)
        poke()

    def arrival_body(arrival: Arrival):
        # Per-job host thread: allocate/initialize concurrently with other
        # arrivals, then join the admission queue.
        thread = make_thread(arrival)
        if tracer is not None:
            trace_ctxs[arrival.index] = thread.open_trace(
                tracer, arrival.time, type=arrival.type_name, index=arrival.index
            )
        prepare_from = env.now
        yield from thread.prepare()
        if tracer is not None and env.now > prepare_from:
            tracer.record_leaf(
                thread.trace_ctx, "host.prepare", "prepare",
                prepare_from, env.now,
            )
        thread._trace_ready_at = env.now
        # With front-door shedding the bound was already enforced at the
        # source (over preparing + ready), so the ready-only check is off.
        if (
            not front_door
            and config.queue_depth > 0
            and len(ready) >= config.queue_depth
        ):
            if config.queue_policy == "reject":
                shed(thread.record, "shed-reject", arrival.time)
                return
            if config.queue_policy == "shed-oldest":
                old_time, _, old_thread = heapq.heappop(ready)
                shed(old_thread.record, "shed-oldest", old_time)
            else:  # block: wait (FIFO by arrival) until a slot frees
                while len(ready) >= config.queue_depth:
                    gate = Event(env)
                    heapq.heappush(blocked, (arrival.time, arrival.index, gate))
                    yield gate
        heapq.heappush(ready, (arrival.time, arrival.index, thread))
        poke()

    def front_door_shed(arrival: Arrival) -> None:
        """Shed an arrival before constructing its application object.

        The O(1)-per-arrival overload path: no app, no host thread, no
        ready-queue churn — just a terminal record, so a run drowning in
        traffic costs microseconds per excess arrival.
        """
        record = new_record(arrival, f"{arrival.type_name}#fd{arrival.index}", -1)
        if retain_records:
            records.append(record)
        shed(record, "shed-reject", arrival.time)

    def source():
        now = 0.0
        for arrival in arrival_iter:
            yield env.timeout(arrival.time - now)
            now = arrival.time
            state["produced"] += 1
            if front_door and state["front_queue"] >= config.queue_depth:
                front_door_shed(arrival)
                continue
            if front_door:
                state["front_queue"] += 1
            env.process(arrival_body(arrival), name=f"arrival-{arrival.index}")
        state["source_done"] = True
        poke()

    # -- admission --------------------------------------------------------
    completions: List[Event] = []

    def admitter():
        while not (
            state["source_done"] and state["settled"] >= state["produced"]
        ):
            if not ready:
                # Wait for an enqueue (or a shed that settles the count).
                gate = Event(env)
                admit_poke["event"] = gate
                yield gate
                admit_poke["event"] = None
                continue
            # Wait for the dispatcher's admission condition (head-of-line),
            # further capped by the fleet's surviving capacity when a
            # fleet gate is attached.
            def may_start() -> bool:
                return dispatcher.may_admit(
                    state["in_flight"], device.power.current_power
                ) and (
                    fleet_gate is None
                    or fleet_gate.may_admit(state["in_flight"], env.now)
                )

            wait_start = env.now
            while not may_start():
                stall = dispatcher.stall_timeout
                if stall is not None:
                    remaining = stall - (env.now - wait_start)
                    if remaining <= _EPS:
                        warnings.warn(
                            f"{dispatcher.name}: admission condition not met "
                            f"after {stall:.6g}s; releasing head-of-line job "
                            "to avoid starvation",
                            AdmissionStallWarning,
                            stacklevel=2,
                        )
                        break
                    tick = env.timeout(min(power_interval, remaining))
                else:
                    tick = env.timeout(power_interval)
                gate = Event(env)
                admit_poke["event"] = gate
                # Re-evaluate on every completion or sensor tick.
                yield env.any_of([gate, tick])
                admit_poke["event"] = None
            arrival_time, _, thread = heapq.heappop(ready)
            if front_door:
                state["front_queue"] -= 1
            if blocked:
                # A queue slot freed: wake the oldest back-pressured arrival.
                _, _, gate = heapq.heappop(blocked)
                gate.succeed()
            record = thread.record
            if fleet_gate is not None:
                # Stamp the fleet routing decision before the breaker
                # check: breaker scope is (device, type).
                record.device_index = fleet_gate.route(env.now)
            # Deadline-aware shedding: drop work whose queueing delay
            # already makes the SLO unreachable.
            if (
                shed_unreachable
                and record.slo_deadline > 0
                and env.now + baselines.get(record.type_name, 0.0)
                > record.slo_deadline + _EPS
            ):
                shed(record, "shed-deadline", arrival_time)
                continue
            # Circuit breaker: fail fast while the app type's breaker is open.
            if breaker is not None and not breaker.allow(breaker_key(record), env.now):
                shed(record, "breaker-open", arrival_time)
                continue
            state["settled"] += 1
            if retain_records:
                queue_delays.append(env.now - arrival_time)
            if tracer is not None:
                ready_at = getattr(thread, "_trace_ready_at", arrival_time)
                if env.now > ready_at:
                    tracer.record_leaf(
                        thread.trace_ctx, "admission.queue",
                        "admission-queue", ready_at, env.now,
                    )
            stream = manager.acquire(thread.app.app_id)
            thread.assign_stream(stream)
            thread.record.stream_index = stream.index
            thread.record.spawn_time = env.now
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
            proc = env.process(
                job_body(thread, arrival_time), name=thread.app.app_id
            )
            if retain_records:
                completions.append(proc)
        if completions:
            yield AllOf(env, completions)
        # Bounded-memory mode retains no process list: drain by count.
        # job_body pokes on every completion, so this wakes precisely
        # when the in-flight population changes.
        while state["in_flight"] > 0:
            gate = Event(env)
            admit_poke["event"] = gate
            yield gate
            admit_poke["event"] = None
        monitor.stop()
        if telemetry is not None:
            telemetry.stop()

    if crash_at is not None:

        def crash_body():
            yield env.timeout(crash_at)
            raise HarnessCrash(env.now)

        env.process(crash_body(), name="harness-crash")

    monitor.start()
    if telemetry is not None:
        telemetry.start()
    env.process(source(), name="arrival-source")
    done = env.process(admitter(), name="admitter")
    try:
        env.run(until=done)
        env.run()
    except HarnessCrash as crash:
        # The journals hold everything committed before the crash; stamp
        # a durable crash marker and leave them on disk for the resume.
        for j in journals:
            j.crash(crash.time)
        raise
    if telemetry is not None:
        telemetry.finalize()
    for j in journals:
        j.finish()

    if sink is not None:
        outcomes = dict(sink.outcomes)
        met = int(sink.deadline_met)
    else:
        outcomes = dict(Counter(r.outcome for r in records))
        met = deadline_met_count(records)
    completion_time = state["last_complete"]
    energy = state["last_energy"]
    return ServingResult(
        dispatcher=dispatcher.name,
        jobs=state["produced"],
        completion_time=completion_time,
        records=records,
        sojourn_times=sojourns,
        queue_delays=queue_delays,
        energy=energy,
        average_power=energy / completion_time if completion_time else 0.0,
        peak_power=device.power.peak_power,
        peak_in_flight=state["peak"],
        outcomes=outcomes,
        deadline_met=met,
        breaker_trips=breaker.trips if breaker is not None else 0,
        breaker_fast_fails=breaker.fast_fails if breaker is not None else 0,
        recovered_entries=recovered,
        resumed=resume,
        journal_file=str(journal_path) if journal_path is not None else None,
        fleet_devices=fleet_gate.num_devices if fleet_gate is not None else 0,
        devices_lost=(
            fleet_gate.devices_lost(completion_time)
            if fleet_gate is not None
            else 0
        ),
    )



# ---------------------------------------------------------------------------
# Batch-scheduled serving: admission hands whole batches to the scheduler.
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    """One admitted batch, as decided and as measured."""

    decision: object             # repro.scheduling.SchedulingDecision
    makespan: float              # measured batch makespan (s)
    energy: float                # exact energy over the batch window (J)
    records: list                # AppRecords, all stamped with the order

    @property
    def prediction_error(self) -> float:
        """Signed relative error of the scheduler's makespan prediction."""
        if self.makespan <= 0:
            return 0.0
        return (self.decision.predicted_makespan - self.makespan) / self.makespan


@dataclass
class BatchedServingResult:
    """Everything measured across a batch-scheduled serving run."""

    policy: str
    batches: List[BatchOutcome]
    total_makespan: float        # sum of batch makespans (batches run serially)
    total_energy: float
    cumulative_regret: float     # bandit regret (0 for non-learning policies)
    recovered_entries: int = 0
    resumed: bool = False
    journal_file: Optional[str] = None

    @property
    def decisions(self) -> list:
        return [b.decision for b in self.batches]

    def summary(self) -> str:
        """One-line digest for reports."""
        orders = Counter(d.order_label for d in self.decisions)
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(orders.items()))
        return (
            f"{self.policy}: {len(self.batches)} batches in "
            f"{self.total_makespan * 1e3:.1f} ms ({mix}); "
            f"regret {self.cumulative_regret * 1e3:.2f} ms"
        )


def _normalize_batch(batch, scale_name: str):
    """One admitted batch -> a Workload (grouped FIFO admission order).

    Accepts either a flat sequence of type names or ``(type, count)``
    pairs.  Types are grouped in first-appearance order — the same
    Naive-FIFO convention every offline experiment uses — so the scheduler
    permutes exactly what the workload instantiates.
    """
    from ..core.workload import Workload

    if not batch:
        raise ValueError("empty batch")
    first = batch[0]
    if isinstance(first, str):
        counts: Dict[str, int] = {}
        order: List[str] = []
        for name in batch:
            if name not in counts:
                order.append(name)
            counts[name] = counts.get(name, 0) + 1
        spec = [(name, counts[name]) for name in order]
    else:
        spec = list(batch)
    return Workload.mixed(spec, scale=scale_name)


def run_batched_serving(
    batches: Sequence,
    policy: str = "bandit",
    *,
    width: Optional[int] = None,
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
    seed: int = 0,
    epsilon: float = 0.1,
    device: int = 0,
    scheduler=None,
    scheduler_config=None,
    journal_path=None,
    resume: bool = False,
    crash_after: Optional[int] = None,
    telemetry=None,
    tracing=None,
) -> BatchedServingResult:
    """Serve admitted batches through the adaptive batch scheduler.

    Each element of ``batches`` is one admitted batch (a sequence of type
    names, or ``(type, count)`` pairs).  Per batch the scheduler picks the
    launch order, the transfer-mutex setting and the stream width; the
    batch runs on the framework harness with exactly those parameters, and
    its measured makespan is fed back so learning policies improve across
    batches.  Batches execute back-to-back (the serving layer admits the
    next batch when the previous one drains), so ``total_makespan`` is the
    sum of per-batch makespans.

    Crash/resume: with a ``journal_path``, every decision and observation
    is journaled under a fingerprint that includes a digest of the batch
    sequence.  ``crash_after=N`` kills the run after N completed batches
    (test hook, mirroring the fault plan's HARNESS_CRASH); calling again
    with ``resume=True`` replays the run, verifies the journaled prefix
    byte-identically, and returns the result an uninterrupted run would
    have produced.

    Pass a prebuilt ``scheduler`` (:class:`repro.scheduling.BatchScheduler`)
    to share learning state across calls; otherwise one is built from
    ``scheduler_config`` or the keyword arguments.  Only a scheduler built
    here is finished when the run completes (a resume shorter than its
    journal raises :class:`~repro.serving.journal.JournalMismatchError`);
    a crash ends the journal of either kind with a crash marker.
    """
    from ..framework.harness import HarnessConfig, TestHarness
    from ..scheduling import BatchScheduler, SchedulerConfig

    if resume and journal_path is None and scheduler is None and (
        scheduler_config is None or scheduler_config.journal_path is None
    ):
        raise ValueError("resume=True requires a journal_path")
    scale_name = resolve_scale(scale)
    workloads = [_normalize_batch(b, scale_name) for b in batches]

    own_scheduler = scheduler is None
    if own_scheduler:
        if scheduler_config is None:
            digest = sha1_fingerprint([w.types for w in workloads])
            scheduler_config = SchedulerConfig(
                policy=policy,
                seed=seed,
                scale=scale_name,
                spec=spec,
                max_width=width,
                epsilon=epsilon,
                journal_path=journal_path,
                resume=resume,
                salt=f"batched-serving:{digest}",
            )
        scheduler = BatchScheduler(scheduler_config)
    sched_policy = scheduler.config.policy

    if telemetry is not None:
        from ..telemetry.probes import instrument_scheduler

        instrument_scheduler(telemetry, scheduler)

    outcomes: List[BatchOutcome] = []
    try:
        for i, workload in enumerate(workloads):
            if crash_after is not None and i >= crash_after:
                # Mirrors the fault plan's HARNESS_CRASH: abandon the run
                # mid-stream, leaving the journal prefix for the resume.
                raise HarnessCrash(sum(b.makespan for b in outcomes))
            decision = scheduler.schedule(
                workload.types, device=device, width=width
            )
            apps = workload.instantiate(decision.schedule)
            batch_ctx = None
            if tracing is not None:
                # Scope the tracer so per-app trace names stay unique
                # across batches (each batch reuses instance numbers),
                # and record the scheduler's decision as its own trace.
                tracing.tracer.set_scope(f"batch-{i}")
                batch_ctx = tracing.tracer.start_trace(
                    "batch", 0.0, policy=sched_policy
                )
                tracing.tracer.instant(
                    batch_ctx,
                    "schedule.decision",
                    "scheduler-decision",
                    0.0,
                    order=decision.order_label,
                    num_streams=decision.num_streams,
                    memory_sync=decision.memory_sync,
                    predicted=decision.predicted_makespan,
                )
            harness = TestHarness(
                HarnessConfig(
                    apps=apps,
                    num_streams=decision.num_streams,
                    memory_sync=decision.memory_sync,
                    spec=spec,
                    seed=seed,
                    order_label=decision.order_label,
                    tracing=tracing,
                )
            )
            result = harness.run()
            if batch_ctx is not None:
                tracing.tracer.end_trace(
                    batch_ctx, result.makespan, outcome="completed"
                )
                tracing.tracer.set_scope("")
            scheduler.observe(decision, result.makespan, records=result.records)
            outcomes.append(
                BatchOutcome(
                    decision=decision,
                    makespan=result.makespan,
                    energy=result.energy,
                    records=result.records,
                )
            )
    except HarnessCrash as crash:
        # Decisions/observations up to the crash are on disk; stamp the
        # crash marker and leave the journal for the resume.
        scheduler.crash(crash.time)
        raise
    if own_scheduler:
        scheduler.finish()

    return BatchedServingResult(
        policy=sched_policy,
        batches=outcomes,
        total_makespan=sum(b.makespan for b in outcomes),
        total_energy=sum(b.energy for b in outcomes),
        cumulative_regret=scheduler.cumulative_regret(device),
        recovered_entries=scheduler.recovered,
        resumed=resume,
        journal_file=(
            str(scheduler.config.journal_path)
            if scheduler.config.journal_path is not None
            else None
        ),
    )
