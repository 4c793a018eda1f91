"""Scenario execution: open-loop traffic through the serving stack.

Two drivers, one accounting surface:

* :func:`run_traffic` — streams a :class:`~repro.workload.scenarios.\
BuiltScenario` (or a recorded trace) through :func:`repro.serving.\
run_serving` open-loop, **never materializing the trace**: the engine
runs in bounded-memory mode (records dropped once settled) and all
aggregation happens in a :class:`TrafficStats` sink as outcomes land.
Supports journaling, crash/resume, fleets, breakers and fault plans —
everything the serving layer supports — plus per-tenant-class telemetry
with cardinality-capped per-tenant series.

* :func:`run_traffic_batched` — groups the same arrival stream into
  admission batches and drives the adaptive batch scheduler
  (:func:`repro.serving.run_batched_serving`), scoring each policy by
  **SLO goodput on a virtual clock**: batch ``i`` starts when its last
  request has arrived and the previous batch has drained, and a request
  meets its SLO iff its in-batch completion lands before its absolute
  deadline.  This is the surface the per-policy leaderboard sweeps.

Determinism: same ``(scenario build, policy, knobs)`` -> byte-identical
serving journal and identical result payloads, including across a
mid-run crash + ``resume=True``.
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..serving import (
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    ServingConfig,
    run_batched_serving,
    run_serving,
)
from .scenarios import BuiltScenario
from .trace import TraceError, read_trace

__all__ = [
    "TrafficStats",
    "TrafficResult",
    "BatchedTrafficResult",
    "run_traffic",
    "run_traffic_batched",
]

#: Default cap on distinct per-tenant telemetry series per class (the
#: cardinality guard's ``max_series``; overflow aggregates to __other__).
DEFAULT_TENANT_SERIES_CAP = 64


@dataclass
class ClassStats:
    """Streaming aggregates for one tenant class (no per-request state)."""

    arrivals: int = 0
    completed: int = 0
    late: int = 0
    shed: int = 0
    failed: int = 0
    deadline_met: int = 0
    sojourn_sum: float = 0.0
    sojourn_max: float = 0.0

    @property
    def slo_attainment(self) -> float:
        """Deadline-met fraction of everything that arrived."""
        return self.deadline_met / self.arrivals if self.arrivals else 0.0

    @property
    def mean_sojourn(self) -> float:
        ran = self.completed + self.late
        return self.sojourn_sum / ran if ran else 0.0

    def payload(self) -> Dict:
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "late": self.late,
            "shed": self.shed,
            "failed": self.failed,
            "deadline_met": self.deadline_met,
            "slo_attainment": self.slo_attainment,
            "mean_sojourn": self.mean_sojourn,
            "max_sojourn": self.sojourn_max,
        }


class TrafficStats:
    """Bounded-memory outcome sink for streamed serving runs.

    Plugs into :func:`repro.serving.run_serving` as ``sink``: the engine
    calls :meth:`settle` once per terminal outcome and then *drops* the
    record, so memory stays O(tenant classes) no matter how many million
    requests stream through.  With a ``telemetry``, outcomes are also
    counted per tenant class, and per sub-tenant under the cardinality
    guard (``tenant_series_cap`` distinct tenants per class, the rest
    aggregated into ``__other__``).
    """

    def __init__(
        self,
        telemetry=None,
        tenant_series_cap: int = DEFAULT_TENANT_SERIES_CAP,
    ) -> None:
        self.outcomes: _Counter = _Counter()
        self.deadline_met = 0
        self.classes: Dict[str, ClassStats] = {}
        self._outcome_counter = None
        self._tenant_counter = None
        if telemetry is not None:
            self._outcome_counter = telemetry.counter(
                "repro_traffic_outcomes_total",
                "terminal outcomes per tenant class",
                labelnames=("tenant_class", "outcome"),
            )
            self._tenant_counter = telemetry.counter(
                "repro_traffic_tenant_requests_total",
                "requests per sub-tenant (cardinality-capped)",
                labelnames=("tenant_class", "tenant"),
                max_series=tenant_series_cap,
            )

    def settle(self, record, arrival_time: float) -> None:
        """One terminal outcome (engine callback; order = settle order)."""
        outcome = record.outcome or "completed"
        self.outcomes[outcome] += 1
        cls = self.classes.setdefault(record.tenant or "default", ClassStats())
        cls.arrivals += 1
        if outcome == "completed":
            cls.completed += 1
        elif outcome == "late":
            cls.late += 1
        elif outcome == "failed":
            cls.failed += 1
        else:
            cls.shed += 1
        if record.deadline_met:
            self.deadline_met += 1
            cls.deadline_met += 1
        if record.ran:
            sojourn = record.complete_time - arrival_time
            cls.sojourn_sum += sojourn
            cls.sojourn_max = max(cls.sojourn_max, sojourn)
        if self._outcome_counter is not None:
            label = record.tenant or "default"
            self._outcome_counter.inc(tenant_class=label, outcome=outcome)
            self._tenant_counter.inc(
                tenant_class=label, tenant=str(record.tenant_id)
            )

    @property
    def arrivals(self) -> int:
        return sum(self.outcomes.values())

    def payload(self) -> Dict:
        return {
            "outcomes": dict(sorted(self.outcomes.items())),
            "deadline_met": self.deadline_met,
            "classes": {
                name: stats.payload()
                for name, stats in sorted(self.classes.items())
            },
        }


@dataclass
class TrafficResult:
    """One open-loop scenario run: serving result + per-class accounting."""

    scenario: str
    policy: str
    serving: object              # repro.serving.ServingResult
    stats: TrafficStats
    fingerprint: str

    def metrics(self) -> Dict:
        """Flat JSON-able summary (leaderboard row material)."""
        s = self.serving
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "arrivals": s.jobs,
            "goodput": s.goodput,
            "throughput": s.throughput,
            "slo_attainment": (s.deadline_met / s.jobs) if s.jobs else 0.0,
            "shed_rate": s.shed_rate,
            "deadline_met": s.deadline_met,
            "completion_time": s.completion_time,
            "classes": self.stats.payload()["classes"],
        }


def run_traffic(
    built: BuiltScenario,
    *,
    policy: str = "reject",
    cap: Optional[int] = None,
    queue_depth: int = 64,
    num_streams: int = 16,
    scale: Optional[str] = None,
    spec=None,
    trace_path=None,
    journal_path=None,
    resume: bool = False,
    front_door: bool = False,
    breaker=None,
    plan=None,
    fleet=None,
    telemetry=None,
    tenant_series_cap: int = DEFAULT_TENANT_SERIES_CAP,
    stats: Optional[TrafficStats] = None,
) -> TrafficResult:
    """Serve one built scenario open-loop; see the module docstring.

    ``policy`` is a queue policy (``"block"``/``"reject"``/
    ``"shed-oldest"``) under a cap-``cap`` dispatcher, or ``"greedy"``
    (unbounded admission, the naive baseline).  ``trace_path`` replays a
    recorded trace instead of generating inline — the trace's
    fingerprint must match the build's, and (per the equivalence
    guarantee) the serving journal comes out byte-identical either way.
    A fault-plan ``HARNESS_CRASH`` propagates out of this call exactly
    like :func:`~repro.serving.run_serving`; call again with
    ``resume=True`` to recover.
    """
    scenario_fpr = built.fingerprint()
    if trace_path is not None:
        reader = read_trace(trace_path)
        if reader.fingerprint != scenario_fpr:
            reader.close()
            raise TraceError(
                f"trace {trace_path} was recorded for fingerprint "
                f"{reader.fingerprint}, scenario build is {scenario_fpr}"
            )
        arrivals = reader
    else:
        arrivals = built.stream()

    cap = built.scenario.cap if cap is None else cap
    if policy == "greedy":
        dispatcher = GreedyDispatcher()
        config = ServingConfig(
            baseline_runtimes=tuple(sorted(built.baselines.items())),
            shed_unreachable=False,
            breaker=breaker,
            plan=plan,
            seed=built.scenario.seed,
            fleet=fleet,
        )
        front_door = False
    else:
        dispatcher = ConcurrencyCapDispatcher(cap)
        config = ServingConfig(
            queue_depth=queue_depth,
            queue_policy=policy,
            baseline_runtimes=tuple(sorted(built.baselines.items())),
            shed_unreachable=True,
            breaker=breaker,
            plan=plan,
            seed=built.scenario.seed,
            fleet=fleet,
        )

    run_fpr = built.fingerprint(
        extra={
            "driver": "run_traffic",
            "policy": policy,
            "cap": cap,
            "queue_depth": config.queue_depth,
            "num_streams": num_streams,
            "front_door": front_door,
            "breaker": (
                [breaker.threshold, breaker.cooldown, breaker.jitter]
                if breaker is not None
                else None
            ),
            "plan": (
                [
                    [f.kind.value, f.time, f.target, f.duration, f.device]
                    for f in plan
                ]
                if plan is not None
                else []
            ),
            "fleet": (
                [fleet.num_devices, fleet.detection_latency]
                if fleet is not None
                else None
            ),
        }
    )

    sink = stats if stats is not None else TrafficStats(
        telemetry=telemetry, tenant_series_cap=tenant_series_cap
    )
    serving = run_serving(
        arrivals,
        dispatcher,
        config,
        num_streams=num_streams,
        scale=scale,
        spec=spec,
        journal_path=journal_path,
        resume=resume,
        telemetry=telemetry,
        fingerprint=run_fpr,
        sink=sink,
        front_door=front_door,
    )
    return TrafficResult(
        scenario=built.name,
        policy=policy,
        serving=serving,
        stats=sink,
        fingerprint=run_fpr,
    )


# ---------------------------------------------------------------------------
# Batched mode: the per-policy leaderboard surface.
# ---------------------------------------------------------------------------


@dataclass
class BatchedTrafficResult:
    """One (scenario, policy) cell of the leaderboard."""

    scenario: str
    policy: str
    batched: object              # repro.serving.BatchedServingResult
    arrivals: int
    deadline_met: int
    virtual_makespan: float      # arrival-gated, back-to-back batch clock
    class_met: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Deadline-met completions per second of virtual makespan."""
        if self.virtual_makespan <= 0:
            return 0.0
        return self.deadline_met / self.virtual_makespan

    @property
    def slo_attainment(self) -> float:
        return self.deadline_met / self.arrivals if self.arrivals else 0.0

    def metrics(self) -> Dict:
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "arrivals": self.arrivals,
            "deadline_met": self.deadline_met,
            "slo_attainment": self.slo_attainment,
            "goodput": self.goodput,
            "virtual_makespan": self.virtual_makespan,
            "total_energy": self.batched.total_energy,
            "classes": {
                name: {"deadline_met": met, "arrivals": total}
                for name, (met, total) in sorted(self.class_met.items())
            },
        }


def run_traffic_batched(
    built: BuiltScenario,
    policy: str = "bandit",
    *,
    batch_size: int = 8,
    scale: Optional[str] = None,
    spec=None,
    journal_path=None,
    resume: bool = False,
    crash_after: Optional[int] = None,
    telemetry=None,
) -> BatchedTrafficResult:
    """Score one scheduling policy on a scenario's batched admission flow.

    Consecutive arrivals are grouped into admission batches of
    ``batch_size``; each batch is scheduled by the policy (launch order,
    stream width, transfer mutex) and executed on the harness.  The
    virtual clock starts a batch at ``max(previous drain, last arrival
    of the batch)`` and stamps every request's completion at ``batch
    start + in-batch completion``; deadline hits against the arrivals'
    absolute SLO deadlines give the policy's goodput.  Journaling,
    ``crash_after`` and ``resume`` behave exactly like
    :func:`repro.serving.run_batched_serving` (the journal fingerprint
    covers the batch sequence, which this function derives
    deterministically from the scenario build).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    arrivals = list(built.stream())
    batches = [
        arrivals[i:i + batch_size]
        for i in range(0, len(arrivals), batch_size)
    ]

    batched = run_batched_serving(
        [[a.type_name for a in batch] for batch in batches],
        policy=policy,
        scale=scale,
        spec=spec,
        seed=built.scenario.seed,
        journal_path=journal_path,
        resume=resume,
        crash_after=crash_after,
        telemetry=telemetry,
    )

    # Virtual-clock SLO scoring.  Records carry per-type FIFO instance
    # numbers, so the k-th record of a type maps to the k-th arrival of
    # that type within the batch.
    clock = 0.0
    met = 0
    class_met: Dict[str, List[int]] = {}
    for batch, outcome in zip(batches, batched.batches):
        by_type: Dict[str, List] = {}
        for arrival in batch:
            by_type.setdefault(arrival.type_name, []).append(arrival)
        start = max(clock, batch[-1].time)
        for record in outcome.records:
            arrival = by_type[record.type_name][record.instance]
            tally = class_met.setdefault(arrival.tenant or "default", [0, 0])
            tally[1] += 1
            completion = start + record.complete_time
            if arrival.deadline <= 0.0 or completion <= arrival.deadline:
                met += 1
                tally[0] += 1
        clock = start + outcome.makespan

    return BatchedTrafficResult(
        scenario=built.name,
        policy=policy,
        batched=batched,
        arrivals=sum(len(b) for b in batches),
        deadline_met=met,
        virtual_makespan=clock,
        class_met=class_met,
    )
