"""Metrics: effective memory transfer latency (Eqs. 1-2) and derived stats.

The paper defines, for an application ``Ai`` whose operation sequence is
``{mHD..., k..., mDH...}`` (Eq. 1), the *effective memory transfer latency*

    Le(*) = Tend(last m*) - Tstart(first m*)        (Eq. 2)

per transfer direction: the wall time from the start of the application's
first copy to the completion of its last, *including* any time other
applications' copies held the DMA engine in between.  The aggregate
reported in Figure 6 averages Le per application over the applications of
each stream, then averages across the NS streams; both steps are
implemented verbatim here.

The same per-application record of copies and kernels is the run's only
timeline store: :func:`record_timeline` derives the profiler view of
Figures 1, 2 and 5 from it.  Its copies and kernels are named tuples,
immutable and compared by value, one per completed command.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..gpu.commands import CopyDirection, KernelLaunchCommand, MemcpyCommand
from ..sim.trace import Span, TraceRecorder

__all__ = [
    "TransferEvent",
    "KernelEvent",
    "transfer_event",
    "kernel_event",
    "AppRecord",
    "record_timeline",
    "effective_latency",
    "average_effective_latency",
    "improvement_pct",
    "makespan",
    "deadline_met_count",
    "goodput",
]


class TransferEvent(NamedTuple):
    """One completed memcpy command of an application."""

    direction: CopyDirection
    nbytes: int
    buffer: str
    enqueued: float
    started: float
    completed: float

    @property
    def service_time(self) -> float:
        """Time the DMA engine actually spent on this copy."""
        return self.completed - self.started

    @property
    def queueing_delay(self) -> float:
        """Time between enqueue and service start."""
        return self.started - self.enqueued


class KernelEvent(NamedTuple):
    """One completed kernel launch of an application."""

    name: str
    num_blocks: int
    enqueued: float
    started: float
    completed: float
    waves: int

    @property
    def execution_time(self) -> float:
        """First block placed -> last block retired."""
        return self.completed - self.started


def transfer_event(cmd: MemcpyCommand) -> TransferEvent:
    """The record of a memcpy whose ``done`` succeeded."""
    return TransferEvent(
        cmd.direction, cmd.nbytes, cmd.buffer, cmd.enqueue_time,
        cmd.start_time, cmd.done._value,
    )


def kernel_event(cmd: KernelLaunchCommand) -> KernelEvent:
    """The record of a kernel launch whose ``done`` succeeded."""
    descriptor = cmd.descriptor
    return KernelEvent(
        descriptor.name, descriptor.num_blocks, cmd.enqueue_time,
        cmd.start_time, cmd.done._value, cmd.waves,
    )


@dataclass
class AppRecord:
    """Everything measured about one application instance in one run."""

    app_id: str
    type_name: str
    instance: int
    stream_index: int
    launch_index: int            # position in the launch schedule
    spawn_time: float = 0.0      # host thread creation
    gpu_start: float = 0.0       # stream occupied (GPU section begins)
    complete_time: float = 0.0   # GPU section ends (after final sync + frees)
    transfers: List[TransferEvent] = field(default_factory=list)
    kernels: List[KernelEvent] = field(default_factory=list)
    # -- resilience accounting (all zero/False in fault-free runs) --------
    attempts: int = 1            # total attempts, including the first
    retries: int = 0             # attempts after a detected fault
    retries_denied: int = 0      # retries refused by the retry budget
    faults_detected: int = 0     # faults that killed an attempt
    deadline_hits: int = 0       # watchdog cancellations among those
    failed: bool = False         # gave up after exhausting the retry budget
    # -- serving accounting (inert outside repro.serving runs) ------------
    slo_deadline: float = 0.0    # absolute SLO deadline; 0 = no SLO
    outcome: str = ""            # terminal serving outcome ("" = not set)
    tenant: str = ""             # tenant-class name ("" = single-tenant)
    tenant_id: int = 0           # sub-tenant index within the class
    # -- fleet accounting (inert outside repro.fleet runs) ----------------
    device_index: int = 0        # device the app finally ran on
    migrations: int = 0          # device-loss failovers survived
    reexecuted_kernels: int = 0  # in-flight kernels re-run after failover
    hedges: int = 0              # speculative replicas launched for this app
    hedge_wins: int = 0          # hedges whose replica finished first
    duplicate_kernels: int = 0   # kernels both primary and replica executed
    # -- scheduling accounting (lets reports attribute makespans) ---------
    order_policy: str = ""       # launch-order policy the run used
    memory_sync: bool = False    # whether the HtoD transfer mutex was on

    @property
    def wall_time(self) -> float:
        """GPU-section duration of this instance."""
        return self.complete_time - self.gpu_start

    def transfer_events(self, direction: CopyDirection) -> List[TransferEvent]:
        """This app's copies in ``direction``, in completion order."""
        return [t for t in self.transfers if t.direction is direction]

    def effective_latency(self, direction: CopyDirection) -> Optional[float]:
        """Eq. 2 for this application, or ``None`` if no such transfers."""
        events = self.transfer_events(direction)
        if not events:
            return None
        return max(t.completed for t in events) - min(t.started for t in events)

    def pure_transfer_time(self, direction: CopyDirection) -> float:
        """Sum of DMA service times (the no-contention lower bound)."""
        return sum(t.service_time for t in self.transfer_events(direction))

    @property
    def kernel_busy_time(self) -> float:
        """Sum of kernel execution intervals (may double-count overlap)."""
        return sum(k.execution_time for k in self.kernels)

    @property
    def ran(self) -> bool:
        """Whether this instance actually executed (vs shed before start)."""
        return self.complete_time > 0.0

    @property
    def deadline_met(self) -> bool:
        """Whether this instance completed within its SLO deadline.

        ``True`` for completed work without an SLO (no deadline to miss);
        ``False`` for failed or shed instances.
        """
        if self.failed or not self.ran:
            return False
        if self.slo_deadline <= 0.0:
            return True
        return self.complete_time <= self.slo_deadline


def record_timeline(
    records: Sequence[AppRecord], marks: TraceRecorder
) -> TraceRecorder:
    """The profiler timeline of a run, derived from its records.

    Each kernel is a ``kernel`` span on ``stream-<stream_index>`` over
    ``[started, completed]``.  Each copy is a ``memcpy_htod`` or
    ``memcpy_dtoh`` span on the stream track, named by its buffer, plus a
    ``dma_htod`` or ``dma_dtoh`` span on its engine's track, named by the
    app.  The spans of ``marks`` (the fault injector's stalls) join them,
    and the whole set is ordered by ``(end, start)``, ties kept in record
    order with each record's copies before its kernels.  The instants of
    ``marks`` follow in their own order.
    """
    spans: List[Span] = []
    for record in records:
        track = f"stream-{record.stream_index}"
        app = record.app_id
        for t in record.transfers:
            d = t.direction.value.lower()
            spans.append(Span(
                track, f"memcpy_{d}", t.buffer or f"{t.nbytes}B",
                t.started, t.completed, {"app": app, "bytes": t.nbytes},
            ))
            spans.append(Span(
                f"dma-{d}", f"dma_{d}", app, t.started, t.completed,
                {"bytes": t.nbytes},
            ))
        for k in record.kernels:
            spans.append(Span(
                track, "kernel", k.name, k.started, k.completed,
                {"app": app, "blocks": k.num_blocks, "waves": k.waves},
            ))
    spans.extend(marks.spans)
    timeline = TraceRecorder()
    timeline.spans = sorted(spans, key=lambda s: (s.end, s.start))
    timeline.instants = list(marks.instants)
    return timeline


def effective_latency(
    record: AppRecord, direction: CopyDirection = CopyDirection.HTOD
) -> Optional[float]:
    """Function form of :meth:`AppRecord.effective_latency`."""
    return record.effective_latency(direction)


def average_effective_latency(
    records: Sequence[AppRecord],
    direction: CopyDirection = CopyDirection.HTOD,
) -> float:
    """The paper's two-level average of Le.

    "We calculate the average effective memory transfer latency by summing
    Le for each application Ai on stream sj, and dividing by the number of
    applications executed on that stream.  The overall average is then
    taken across all NS streams."
    """
    per_stream: Dict[int, List[float]] = defaultdict(list)
    for record in records:
        le = record.effective_latency(direction)
        if le is not None:
            per_stream[record.stream_index].append(le)
    if not per_stream:
        return 0.0
    stream_means = [sum(v) / len(v) for v in per_stream.values()]
    return sum(stream_means) / len(stream_means)


def improvement_pct(baseline: float, value: float) -> float:
    """Relative improvement of ``value`` over ``baseline``, in percent.

    Positive when ``value`` is better (smaller); this is how every
    "improvement over serialized execution" number in the paper is defined.
    """
    if baseline <= 0:
        raise ValueError(f"non-positive baseline {baseline!r}")
    return (baseline - value) / baseline * 100.0


def makespan(records: Sequence[AppRecord]) -> float:
    """Wall time from the first spawn to the last completion."""
    if not records:
        return 0.0
    return max(r.complete_time for r in records) - min(r.spawn_time for r in records)


def deadline_met_count(records: Sequence[AppRecord]) -> int:
    """Instances that completed within their SLO deadline."""
    return sum(1 for r in records if r.deadline_met)


def goodput(records: Sequence[AppRecord], horizon: float) -> float:
    """Deadline-met completions per second of ``horizon``.

    The serving layer's headline metric: raw throughput counts every
    completion, goodput only the ones that still had value when they
    landed.  ``horizon`` is usually the run's completion time.
    """
    if horizon <= 0:
        return 0.0
    return deadline_met_count(records) / horizon
