"""DMA copy engines and the copy-queue service discipline.

Current GPUs have one DMA engine per transfer direction (HtoD and DtoH).
That single engine is the contention point at the heart of the paper:
despite 32 independent Hyper-Q work queues, every host-to-device copy funnels
through one engine, and the engine *interleaves* service among streams — a
command from stream A, then one from stream B, and so on.  An application
cannot start its kernels until all of its input transfers are complete, so
interleaving stretches every application's *effective* memory transfer
latency (Figure 1 / Figure 6, up to ~8x).

Two service disciplines are provided:

``"interleave"`` (default, matches observed hardware behaviour)
    Round-robin across streams that have a ready copy command, one command
    per turn.
``"fifo"``
    Strict ready-order service; used in ablations to separate the effect of
    the discipline from the effect of a single engine.

The paper's fix — the host-side transfer mutex — works with either
discipline because it keeps at most one application's commands pending.

The engine records no timeline: a copy's ``started`` and ``done`` values
are its span on the stream and DMA tracks of every profiler view
(:func:`repro.framework.metrics.record_timeline`), and an injected stall
is recorded by the fault injector that applied it.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Optional

from ..sim.engine import Environment
from ..sim.events import Event
from .commands import CopyDirection, MemcpyCommand
from .specs import DMASpec

__all__ = ["CopyEngine", "COPY_POLICIES"]

COPY_POLICIES = ("interleave", "fifo")


class CopyEngine:
    """One DMA engine serving a single transfer direction.

    Parameters
    ----------
    env:
        Simulation environment.
    direction:
        :class:`CopyDirection` this engine serves.
    spec:
        Bandwidth/latency model.
    policy:
        ``"interleave"`` or ``"fifo"`` (see module docstring).
    on_change:
        Power-model hook invoked when the engine goes busy/idle.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        before each command is served; armed ``dma_stall`` faults freeze
        the engine for their duration (PCIe hiccup / stalled copy engine),
        and the injector records each stall on its own trace.  ``None``
        (default) leaves the service loop untouched.
    """

    def __init__(
        self,
        env: Environment,
        direction: CopyDirection,
        spec: DMASpec,
        policy: str = "interleave",
        on_change: Optional[Callable[[], None]] = None,
        injector=None,
    ) -> None:
        if policy not in COPY_POLICIES:
            raise ValueError(
                f"unknown copy policy {policy!r}; expected one of {COPY_POLICIES}"
            )
        self.env = env
        self.direction = direction
        self.spec = spec
        self.policy = policy
        self.on_change = on_change
        self.injector = injector
        self.busy: bool = False
        # interleave: per-stream FIFOs served round-robin.
        self._per_stream: "OrderedDict[int, Deque[MemcpyCommand]]" = OrderedDict()
        self._rr_order: Deque[int] = deque()
        # fifo: single ready-order queue.
        self._fifo: Deque[MemcpyCommand] = deque()
        self._wakeup: Optional[Event] = None
        # Statistics
        self.commands_served: int = 0
        self.bytes_moved: int = 0
        #: Accumulated wire time and ready->start queueing delay (seconds).
        #: Their ratio is the engine's effective-latency stretch: how much
        #: longer a transfer took end-to-end than its raw wire time
        #: (Figure 6's per-app metric, aggregated at the engine).
        self.busy_seconds: float = 0.0
        self.wait_seconds: float = 0.0
        env.process(self._service(), name=f"dma-{direction.value}")

    def __repr__(self) -> str:
        return (
            f"<CopyEngine {self.direction} policy={self.policy} "
            f"pending={self.pending_count}>"
        )

    @property
    def pending_count(self) -> int:
        """Number of commands waiting for the engine."""
        if self.policy == "fifo":
            return len(self._fifo)
        return sum(len(q) for q in self._per_stream.values())

    # -- submission --------------------------------------------------------

    def submit(self, cmd: MemcpyCommand) -> None:
        """Hand a *ready* memcpy command to the engine."""
        if cmd.direction is not self.direction:
            raise ValueError(
                f"{cmd!r} ({cmd.direction}) submitted to {self.direction} engine"
            )
        if self.policy == "fifo":
            self._fifo.append(cmd)
        else:
            sid = cmd.stream_id if cmd.stream_id is not None else -1
            queue = self._per_stream.get(sid)
            if queue is None:
                queue = deque()
                self._per_stream[sid] = queue
                self._rr_order.append(sid)
            queue.append(cmd)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _next(self) -> Optional[MemcpyCommand]:
        if self.policy == "fifo":
            return self._fifo.popleft() if self._fifo else None
        # Round-robin: advance to the next stream with work, rotating the
        # order so each stream gets one command per turn.
        for _ in range(len(self._rr_order)):
            sid = self._rr_order[0]
            self._rr_order.rotate(-1)
            queue = self._per_stream.get(sid)
            if queue:
                cmd = queue.popleft()
                if not queue:
                    # Drop empty stream queues so the RR ring stays small.
                    del self._per_stream[sid]
                    self._rr_order.remove(sid)
                return cmd
        return None

    # -- service loop --------------------------------------------------------

    def _service(self):
        env = self.env
        while True:
            cmd = self._next()
            if cmd is None:
                self._wakeup = Event(env)
                yield self._wakeup
                self._wakeup = None
                continue
            if self.injector is not None:
                stall = self.injector.dma_stall(self.direction.value, env.now)
                if stall > 0:
                    yield env.timeout(stall)
            duration = self.spec.transfer_time(cmd.nbytes)
            if self.injector is not None:
                # Gray DMA degradation: a stretched link serves the copy
                # at a fraction of spec bandwidth for the window's span.
                stretch = self.injector.dma_stretch(
                    self.direction.value, env.now
                )
                if stretch != 1.0:
                    duration *= stretch
            start = env._now
            cmd.started.stamp(start)
            self.busy = True
            if self.on_change is not None:
                self.on_change()
            yield env.timeout(duration)
            end = env._now
            self.busy = False
            self.commands_served += 1
            self.bytes_moved += cmd.nbytes
            self.busy_seconds += end - start
            if cmd.ready.triggered and cmd.ready._value is not None:
                self.wait_seconds += start - cmd.ready._value
            if self.on_change is not None:
                self.on_change()
            cmd.done.succeed(end)
