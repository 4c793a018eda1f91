"""The simulated host thread that runs one application instance.

The paper's harness launches each application class instance "on its own
independent child thread"; within the thread the instance runs its execution
pattern (in general HtoD transfers -> kernel execution -> DtoH transfers).
:class:`AppThread` is that child thread as a simulation process.  It drives
the application's :class:`~repro.framework.kernel.KernelApp` lifecycle
(Table II methods) and implements the two policies under study:

* **stream sharing** — the thread occupies its assigned framework stream
  for the whole GPU section, serializing co-resident applications;
* **memory-transfer synchronization** — when enabled, every HtoD transfer
  phase runs inside the global transfer mutex and the thread waits for the
  phase's copies to *complete* before releasing (the pseudo-burst of
  Section III-B).  When disabled, copies are enqueued asynchronously and
  the thread runs ahead, exactly like stock CUDA code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..gpu.commands import (
    CopyDirection,
    KernelLaunchCommand,
    MemcpyCommand,
)
from ..gpu.device import GPUDevice
from ..gpu.specs import HostSpec
from ..sim.events import PENDING, AllOf
from .kernel import (
    HostComputePhase,
    KernelApp,
    KernelPhase,
    SyncPhase,
    TransferPhase,
)
from .metrics import AppRecord, kernel_event, transfer_event
from .stream import Stream

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["AppContext", "AppThread"]


@dataclass
class AppContext:
    """Per-application state handed to every Table II method.

    ``stream`` is the *device* stream; it is ``None`` until the harness
    assigns one at child-thread launch time (allocation and initialization
    do not need a stream).
    """

    env: "Environment"
    device: GPUDevice
    stream: Optional[object]
    host_spec: HostSpec
    app_id: str
    device_allocations: Dict[str, object] = field(default_factory=dict)
    memcpy_commands: List[MemcpyCommand] = field(default_factory=list)
    kernel_commands: List[KernelLaunchCommand] = field(default_factory=list)
    #: Commands issued since the last :meth:`drain_new_transfers` call —
    #: the synchronizer waits on exactly these.
    _new_transfers: List[MemcpyCommand] = field(default_factory=list)

    def note_transfer(self, cmd: MemcpyCommand) -> None:
        """Record an enqueued memcpy (called by ``transfer_memory``)."""
        self.memcpy_commands.append(cmd)
        self._new_transfers.append(cmd)

    def note_kernel(self, cmd: KernelLaunchCommand) -> None:
        """Record an enqueued kernel launch."""
        self.kernel_commands.append(cmd)

    def check_faults(self) -> None:
        """Raise the first recorded command failure: kernels first, then
        copies, each in enqueue order (only :meth:`Event.fail` clears
        ``_ok``)."""
        for cmd in self.kernel_commands:
            if not cmd.done._ok:
                raise cmd.done._value
        for cmd in self.memcpy_commands:
            if not cmd.done._ok:
                raise cmd.done._value

    def drain_new_transfers(self) -> List[MemcpyCommand]:
        """Commands enqueued since the last drain (and reset the list)."""
        new, self._new_transfers = self._new_transfers, []
        return new


class AppThread:
    """One child thread executing one :class:`KernelApp` instance.

    Mirrors the paper's harness structure: the *parent* thread allocates
    and initializes every application's memory up front (:meth:`prepare`)
    and frees it after all children complete (:meth:`cleanup`); the child
    thread (:meth:`run`) executes only the application's GPU section —
    "in general, HtoD memory transfer -- kernel execution -- DtoH memory
    transfer".

    Parameters
    ----------
    env, device:
        Simulation environment and target GPU.
    app:
        The application instance to run.
    synchronizer:
        Transfer synchronizer (real or null, see
        :mod:`repro.framework.sync`).
    record:
        The :class:`~repro.framework.metrics.AppRecord` to fill in.
    """

    def __init__(
        self,
        env: "Environment",
        device: GPUDevice,
        app: KernelApp,
        synchronizer,
        record: AppRecord,
    ) -> None:
        self.env = env
        self.device = device
        self.app = app
        self.stream: Optional[Stream] = None
        self.synchronizer = synchronizer
        self.record = record
        # Causal tracer and this app's root context, both set by
        # :meth:`open_trace` in the engine that admitted it (None in
        # untraced runs: every site below is one attribute check and
        # results stay byte-identical).
        self.tracer = None
        self.trace_ctx = None
        self.ctx = AppContext(
            env=env,
            device=device,
            stream=None,
            host_spec=device.spec.host,
            app_id=app.app_id,
        )

    # -- parent-thread phases ---------------------------------------------------

    def prepare(self):
        """Allocate host + device memory and initialize host data.

        Run by the harness *parent* before any child thread starts ("The
        execution flow ... begins with ... allocating all host and device
        memory, and initializing host memory").
        """
        yield from self.app.allocate_host_memory(self.ctx)
        yield from self.app.allocate_device_memory(self.ctx)
        yield from self.app.initialize_host_memory(self.ctx)

    def cleanup(self):
        """Free all memory (parent thread, after every child completes)."""
        yield from self.app.free_device_memory(self.ctx)
        yield from self.app.free_host_memory(self.ctx)

    def open_trace(self, tracer, start: float, **attrs) -> object:
        """Open this app's causal trace on ``tracer`` and return its root.

        The thread keeps the tracer, so its own wait spans and those of
        a supervisor driving it land on the same trace.
        """
        self.tracer = tracer
        self.trace_ctx = tracer.start_trace(self.record.app_id, start, **attrs)
        return self.trace_ctx

    def assign_stream(self, stream: Stream) -> None:
        """Bind the framework stream (done at child-thread launch time)."""
        self.stream = stream
        self.ctx.stream = stream.device_stream

    # -- the child-thread body ----------------------------------------------------

    def run(self):
        """Process generator: the application's GPU section."""
        if self.stream is None:
            raise RuntimeError(f"{self.app.app_id}: no stream assigned")
        env = self.env
        app = self.app
        ctx = self.ctx
        record = self.record

        traced = self.tracer is not None

        # Serialize with other applications sharing this stream.
        occupy_from = env.now
        lock_request = yield from self.stream.occupy(app.app_id)
        record.gpu_start = env.now
        if traced:
            self._trace("stream.occupy", "stream-occupy", occupy_from)
        try:
            for phase in app.profile.phases:
                if isinstance(phase, TransferPhase):
                    yield from self._run_transfer_phase(phase)
                elif isinstance(phase, KernelPhase):
                    yield from app.execute_kernel(ctx, phase)
                elif isinstance(phase, SyncPhase):
                    sync_from = env.now
                    yield ctx.stream.synchronize_event()
                    if traced:
                        self._trace("stream.sync", "sync-wait", sync_from)
                elif isinstance(phase, HostComputePhase):
                    host_from = env.now
                    yield env.timeout(phase.duration)
                    if traced:
                        self._trace("host.compute", "host-compute", host_from)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown phase {phase!r}")

            # Final cudaStreamSynchronize: wait for everything enqueued.
            sync_from = env.now
            yield ctx.stream.synchronize_event()
            if traced:
                self._trace("stream.sync.final", "sync-wait", sync_from)
            # A failed command that was not the stream tail completes the
            # sync successfully; surface it the way a CUDA error code
            # returned by cudaStreamSynchronize would be.
            ctx.check_faults()
        finally:
            record.complete_time = env.now
            self._harvest()
            self.stream.vacate(app.app_id, lock_request)

    def reset_for_retry(self) -> None:
        """Discard one attempt's command/metric state before re-running.

        Called by the resilience supervisor between attempts.  Device and
        host allocations persist (the retry reuses them, like a server
        re-issuing the same request); only the enqueued-command bookkeeping
        and the per-attempt measured events are cleared.
        """
        ctx = self.ctx
        ctx.memcpy_commands.clear()
        ctx.kernel_commands.clear()
        ctx._new_transfers.clear()
        self.record.transfers.clear()
        self.record.kernels.clear()

    def _run_transfer_phase(self, phase: TransferPhase):
        """One transfer phase, with or without the paper's mutex."""
        app = self.app
        ctx = self.ctx
        use_mutex = (
            self.synchronizer.enabled
            and phase.direction is CopyDirection.HTOD
            and phase.synchronized
        )
        traced = self.tracer is not None
        if use_mutex:
            mutex_from = self.env.now
            token = yield from self.synchronizer.acquire(app.app_id)
            if traced:
                self._trace("transfer.mutex", "transfer-mutex", mutex_from)
            try:
                yield from app.transfer_memory(ctx, phase)
                pending = [c.done for c in ctx.drain_new_transfers()]
                if pending:
                    # Hold the mutex until this app's burst fully lands.
                    burst_from = self.env.now
                    yield AllOf(self.env, pending)
                    if traced:
                        self._trace("transfer.burst", "dma-burst", burst_from)
            finally:
                self.synchronizer.release(app.app_id, token)
        else:
            yield from app.transfer_memory(ctx, phase)
            ctx.drain_new_transfers()

    # -- measurement ------------------------------------------------------------

    def _trace(self, name: str, category: str, start: float, end=None):
        """Record one completed wait span on this app's trace.

        Skips empty intervals so untouched waits (an already-free mutex,
        an already-drained stream) do not clutter the tree.
        """
        end = self.env.now if end is None else end
        if end > start:
            self.tracer.record_leaf(self.trace_ctx, name, category, start, end)

    def _harvest(self) -> None:
        """Convert completed commands (``done`` succeeded) into records."""
        record = self.record
        transfers = record.transfers
        for cmd in self.ctx.memcpy_commands:
            done = cmd.done
            if done._value is PENDING or not done._ok:
                continue  # app failed mid-flight; keep only completed work
            transfers.append(transfer_event(cmd))
        kernels = record.kernels
        for cmd in self.ctx.kernel_commands:
            done = cmd.done
            if done._value is PENDING or not done._ok:
                continue
            kernels.append(kernel_event(cmd))
        if self.tracer is not None:
            self._harvest_spans()

    def _harvest_spans(self) -> None:
        """Engine-level leaf spans from this attempt's completed events.

        Kernel enqueue->start is Hyper-Q slot wait, start->complete is
        SMX execution; copy enqueue->start is DMA queueing, start->
        complete is DMA service.  The critical-path extractor uses these
        to sub-attribute time spent inside synchronization waits.
        """
        # Tight loop over every completed command: bind the fast-path
        # recorder locally, it runs twice per kernel and per burst.
        leaf = self.tracer.record_leaf
        ctx = self.trace_ctx
        for ev in self.record.transfers:
            if ev.started > ev.enqueued:
                leaf(ctx, "dma.queue", "dma-queue", ev.enqueued, ev.started)
            if ev.completed > ev.started:
                # Direction rides in the span name (an existing interned
                # string pair, not a per-span meta dict): detailed copy
                # identity lives in record.transfers / the GPU trace
                # tracks, the span only needs the wait category.
                leaf(
                    ctx,
                    "dma.service.htod"
                    if ev.direction is CopyDirection.HTOD
                    else "dma.service.dtoh",
                    "dma-service", ev.started, ev.completed,
                )
        for ev in self.record.kernels:
            if ev.started > ev.enqueued:
                leaf(
                    ctx, "hyperq.slot", "hyperq-slot", ev.enqueued,
                    ev.started,
                )
            if ev.completed > ev.started:
                leaf(ctx, ev.name, "smx-exec", ev.started, ev.completed)
