"""The fleet-aware application thread: checkpointed, migratable execution.

:class:`FleetAppThread` plays the role :class:`~repro.framework.app_thread.
AppThread` plays in the single-device harness, with three additions:

* **completion tracking** — every enqueued command carries its in-phase
  sequence number and a completion callback; because a device stream is
  FIFO, callbacks extend a *contiguous completed prefix* in the app's
  :class:`~repro.fleet.checkpoint.AppCheckpoint` at kernel granularity.
  Completions arriving after the device was lost (phantom retirements of
  an abandoned device) are ignored.
* **phase-boundary snapshots** — after each phase the thread synchronizes
  the stream, surfaces any command fault, harvests metrics and durably
  snapshots the checkpoint (written by the harness through the run's
  fenced journal).
* **re-binding** — an attempt may start on a different device than the
  previous one: device memory is re-allocated there and the checkpoint's
  cumulative HtoD payload is re-uploaded in one burst before execution
  resumes from the checkpointed phase/command indices.  Only commands
  that *started* before the loss and never completed are re-executed —
  stream FIFO order bounds that to at most one in-flight kernel per
  migration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..framework.app_thread import AppContext
from ..framework.kernel import (
    HostComputePhase,
    KernelApp,
    KernelPhase,
    SyncPhase,
    TransferPhase,
)
from ..framework.metrics import AppRecord, kernel_event, transfer_event
from ..gpu.commands import CopyDirection
from ..sim.events import AllOf
from .checkpoint import AppCheckpoint
from .registry import FleetDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["FleetAppThread"]

#: Buffer name of the migration re-upload transfer.
RESTORE_BUFFER = "checkpoint-restore"


class FleetAppThread:
    """One application's host thread in a multi-device fleet."""

    def __init__(
        self,
        env: "Environment",
        app: KernelApp,
        record: AppRecord,
        checkpoint: AppCheckpoint,
        on_checkpoint: Callable[["FleetAppThread"], None],
    ) -> None:
        self.env = env
        self.app = app
        self.record = record
        self.checkpoint = checkpoint
        self.on_checkpoint = on_checkpoint
        self.fdev: Optional[FleetDevice] = None
        self.stream = None
        #: Bind-time fencing token (set by the harness; see
        #: :mod:`repro.integrity.fencing`).  Checkpoint writes present it
        #: so post-failover stale writes are rejected, not interleaved.
        self.fence_token = None
        #: Root span context of the app's causal trace (set by the
        #: harness when the run is traced).
        self.trace_ctx = None
        #: Device index the app's device allocations currently live on;
        #: ``None`` forces (re-)allocation at the next attempt.
        self.bound_device: Optional[int] = None
        #: Optional :class:`~repro.resilience.gray.StragglerDetector`
        #: fed a latency-stretch observation per completed command (set
        #: by the harness when gray-failure mitigation is enabled).
        self.detector = None
        # Bound per-device observers (see StragglerDetector.kernel_
        # observer), created lazily per binding and dropped on re-bind.
        self._kernel_observe = None
        self._dma_observe = None
        self.ctx = AppContext(
            env=env,
            device=None,
            stream=None,
            host_spec=None,
            app_id=app.app_id,
        )

    # -- binding -----------------------------------------------------------

    def bind(self, fdev: FleetDevice) -> None:
        """Point the thread at a (possibly new) fleet device."""
        self.fdev = fdev
        self.ctx.device = fdev.gpu
        self.ctx.host_spec = fdev.gpu.spec.host
        self._kernel_observe = None
        self._dma_observe = None

    # -- parent-thread phases ----------------------------------------------

    def prepare(self):
        """Host + initial device allocation (parent thread, up front)."""
        yield from self.app.allocate_host_memory(self.ctx)
        yield from self.app.allocate_device_memory(self.ctx)
        self.bound_device = self.fdev.index
        yield from self.app.initialize_host_memory(self.ctx)

    def cleanup(self):
        """Free memory after the run (parent thread).

        Device buffers on a lost device are unreachable — ``cudaFree``
        against a fallen device would just error — so they are dropped
        without device bookkeeping.
        """
        ctx = self.ctx
        if self.bound_device is None or self.fdev.lost:
            ctx.device_allocations.clear()
        else:
            yield from self.app.free_device_memory(ctx)
        yield from self.app.free_host_memory(ctx)

    # -- the attempt body --------------------------------------------------

    def run_attempt(self):
        """Run (or resume) the GPU section on the currently bound device.

        Raises :class:`~repro.sim.errors.FaultError` when a command of
        this attempt failed, or lets the coordinator's
        ``Interrupt(DeviceLost)`` propagate when the device dies
        mid-attempt.
        """
        env = self.env
        app = self.app
        ctx = self.ctx
        record = self.record
        ckpt = self.checkpoint
        fdev = self.fdev

        stream = fdev.manager.acquire(app.app_id)
        self.stream = stream
        ctx.stream = stream.device_stream
        record.stream_index = stream.index
        record.device_index = fdev.index
        ckpt.device_index = fdev.index
        ckpt.stream_index = stream.index

        lock_request = yield from stream.occupy(app.app_id)
        if record.gpu_start == 0.0:
            record.gpu_start = env.now
        try:
            yield from self._ensure_device_state()
            phases = app.profile.phases
            while ckpt.phase_index < len(phases):
                phase = phases[ckpt.phase_index]
                yield from self._run_phase(phase)
                # Phase boundary: quiesce, surface faults, snapshot.
                yield ctx.stream.synchronize_event()
                ctx.check_faults()
                self._harvest_counted()
                ckpt.phase_index += 1
                ckpt.copy_index = 0
                ckpt.kernel_index = 0
                ckpt.time = env.now
                self.on_checkpoint(self)
            # Final cudaStreamSynchronize (mirrors AppThread.run).
            yield ctx.stream.synchronize_event()
            ctx.check_faults()
            self._harvest_counted()
            record.complete_time = env.now
        finally:
            # A lost device's stream is abandoned, not vacated: every app
            # holding or waiting on it is being migrated off the device.
            if not fdev.lost:
                stream.vacate(app.app_id, lock_request)

    # -- failure bookkeeping ----------------------------------------------

    def note_device_lost(self, cause) -> int:
        """Account the loss and return the re-executed-kernel count.

        A kernel is *re-executed* iff it started on the lost device at or
        before the loss instant and never entered the completed prefix;
        FIFO streams make that at most one per migration.  Uncounted
        commands are dropped (their phantom completions are ignored) and
        the device binding is cleared so the next attempt re-allocates
        and restores.
        """
        loss_time = getattr(cause, "time", self.env.now)
        reexec = 0
        for cmd in self.ctx.kernel_commands:
            if (
                cmd.start_time is not None
                and cmd.start_time <= loss_time
                and not getattr(cmd, "_fleet_counted", False)
            ):
                reexec += 1
        self._harvest_counted()
        self._clear_commands()
        self.bound_device = None
        return reexec

    def reset_attempt(self) -> None:
        """Drop one failed attempt's uncompleted commands (same device).

        The checkpointed completed prefix survives: the retry resumes
        from ``(phase_index, copy_index, kernel_index)``, not from
        scratch.
        """
        self._harvest_counted()
        self._clear_commands()

    def restart_from_scratch(self) -> int:
        """Forget all checkpointed progress (checkpointing disabled).

        Returns the number of completed kernels wiped so the driver can
        account the whole prefix as re-executed work.
        """
        self._clear_commands()
        ckpt = self.checkpoint
        wiped = ckpt.completed_kernels
        ckpt.phase_index = 0
        ckpt.copy_index = 0
        ckpt.kernel_index = 0
        ckpt.completed_copies = 0
        ckpt.completed_kernels = 0
        ckpt.restore_bytes = 0
        ckpt.time = 0.0
        self.record.transfers.clear()
        self.record.kernels.clear()
        return wiped

    def _clear_commands(self) -> None:
        ctx = self.ctx
        ctx.memcpy_commands.clear()
        ctx.kernel_commands.clear()
        ctx._new_transfers.clear()

    # -- device state ------------------------------------------------------

    def _ensure_device_state(self):
        """(Re-)allocate device memory and restore checkpointed state.

        No-op when the app is already bound to this device.  After a
        migration the checkpoint's cumulative completed HtoD payload is
        re-uploaded in one burst (the serialized restore stream), so the
        recovery cost is visible in the same transfer metrics as regular
        work.
        """
        ctx = self.ctx
        ckpt = self.checkpoint
        if self.bound_device == self.fdev.index:
            return
        ctx.device_allocations.clear()
        yield from self.app.allocate_device_memory(ctx)
        self.bound_device = self.fdev.index
        if ckpt.restore_bytes > 0:
            yield ctx.env.timeout(ctx.host_spec.api_call_overhead)
            cmd = ctx.stream.enqueue_memcpy(
                CopyDirection.HTOD,
                ckpt.restore_bytes,
                buffer=RESTORE_BUFFER,
                app_id=self.app.app_id,
            )
            self._watch_restore(cmd)
            ctx.note_transfer(cmd)
            ctx.drain_new_transfers()
            yield ctx.stream.synchronize_event()
            ctx.check_faults()

    # -- phase execution ---------------------------------------------------

    def _run_phase(self, phase):
        ctx = self.ctx
        env = self.env
        ckpt = self.checkpoint
        host = ctx.host_spec
        if isinstance(phase, TransferPhase):
            yield from self._run_transfer_phase(phase)
        elif isinstance(phase, KernelPhase):
            for seq, descriptor in enumerate(
                phase.descriptors[ckpt.kernel_index :],
                start=ckpt.kernel_index,
            ):
                yield env.timeout(
                    host.api_call_overhead + host.kernel_launch_overhead
                )
                cmd = ctx.stream.enqueue_kernel(
                    descriptor, app_id=self.app.app_id
                )
                self._watch_kernel(cmd, seq)
                ctx.note_kernel(cmd)
        elif isinstance(phase, SyncPhase):
            yield ctx.stream.synchronize_event()
        elif isinstance(phase, HostComputePhase):
            yield env.timeout(phase.duration)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown phase {phase!r}")

    def _run_transfer_phase(self, phase: TransferPhase):
        """One transfer phase, resumable, with the paper's optional mutex."""
        ctx = self.ctx
        ckpt = self.checkpoint
        buffers = phase.buffers[ckpt.copy_index :]
        if not buffers:
            return
        use_mutex = (
            self.fdev.synchronizer.enabled
            and phase.direction is CopyDirection.HTOD
            and phase.synchronized
        )
        if use_mutex:
            token = yield from self.fdev.synchronizer.acquire(self.app.app_id)
            try:
                yield from self._enqueue_copies(phase, buffers)
                pending = [c.done for c in ctx.drain_new_transfers()]
                if pending:
                    yield AllOf(self.env, pending)
            finally:
                self.fdev.synchronizer.release(self.app.app_id, token)
        else:
            yield from self._enqueue_copies(phase, buffers)
            ctx.drain_new_transfers()

    def _enqueue_copies(self, phase: TransferPhase, buffers):
        ctx = self.ctx
        start = self.checkpoint.copy_index
        for seq, buf in enumerate(buffers, start=start):
            yield ctx.env.timeout(ctx.host_spec.api_call_overhead)
            cmd = ctx.stream.enqueue_memcpy(
                phase.direction, buf.nbytes, buffer=buf.name,
                app_id=self.app.app_id,
            )
            self._watch_copy(cmd, seq, phase.direction)
            ctx.note_transfer(cmd)

    # -- completion tracking -----------------------------------------------

    def _watch_kernel(self, cmd, seq: int) -> None:
        cmd._fleet_seq = seq
        fdev = self.fdev
        ckpt = self.checkpoint
        # The observation hook runs once per completed kernel — bind a
        # per-device observer and the block duration now so the callback
        # does no repeated attribute chasing.
        observe = self._kernel_observe
        if observe is None and self.detector is not None:
            observe = self._kernel_observe = self.detector.kernel_observer(
                fdev.index
            )
        block_duration = cmd.descriptor.block_duration

        def note(
            _event,
            cmd=cmd,
            fdev=fdev,
            ckpt=ckpt,
            observe=observe,
            block_duration=block_duration,
        ):
            # Phantom completion on an abandoned device, a failed launch,
            # or an out-of-prefix completion (a failed command ahead of
            # this one broke the contiguous prefix): not progress.
            if fdev.lost or not cmd.done.ok:
                return
            if cmd._fleet_seq != ckpt.kernel_index:
                return
            ckpt.kernel_index += 1
            ckpt.completed_kernels += 1
            cmd._fleet_counted = True
            if observe is not None:
                # Latency stretch: wall time over the kernel's ideal
                # time at spec clocks (one block_duration per wave).
                ideal = (cmd.waves or 1) * block_duration
                if ideal > 0:
                    # _event is cmd.done itself; the prefix check above
                    # proves it succeeded and the launch started, so
                    # read the raw slot instead of the guarded property.
                    observe((_event._value - cmd.start_time) / ideal)

        cmd.done.callbacks.append(note)

    def _watch_copy(self, cmd, seq: int, direction: CopyDirection) -> None:
        cmd._fleet_seq = seq
        fdev = self.fdev
        ckpt = self.checkpoint
        observe = self._dma_observe
        if observe is None and self.detector is not None:
            observe = self._dma_observe = self.detector.dma_observer(
                fdev.index
            )
        # The ideal wire time depends only on direction and payload, both
        # fixed at enqueue: compute it once here, not per completion.
        wire = 0.0
        if observe is not None:
            spec = fdev.gpu.spec
            wire = (
                spec.dma_htod
                if direction is CopyDirection.HTOD
                else spec.dma_dtoh
            ).transfer_time(cmd.nbytes)

        def note(
            _event,
            cmd=cmd,
            fdev=fdev,
            ckpt=ckpt,
            direction=direction,
            observe=observe,
            wire=wire,
        ):
            if fdev.lost or not cmd.done.ok:
                return
            if cmd._fleet_seq != ckpt.copy_index:
                return
            ckpt.copy_index += 1
            ckpt.completed_copies += 1
            if direction is CopyDirection.HTOD:
                ckpt.restore_bytes += cmd.nbytes
            cmd._fleet_counted = True
            if observe is not None and wire > 0:
                observe((_event._value - cmd.start_time) / wire)

        cmd.done.callbacks.append(note)

    def _watch_restore(self, cmd) -> None:
        """The migration re-upload: harvested, but not profile progress."""
        fdev = self.fdev

        def note(_event, cmd=cmd, fdev=fdev):
            if fdev.lost or not cmd.done.ok:
                return
            cmd._fleet_counted = True

        cmd.done.callbacks.append(note)

    # -- measurement -------------------------------------------------------

    def _harvest_counted(self) -> None:
        """Move counted (completed-prefix) commands into metric events."""
        record = self.record
        ctx = self.ctx
        keep_copies = []
        for cmd in ctx.memcpy_commands:
            if not getattr(cmd, "_fleet_counted", False):
                keep_copies.append(cmd)
                continue
            record.transfers.append(transfer_event(cmd))
        ctx.memcpy_commands[:] = keep_copies
        keep_kernels = []
        for cmd in ctx.kernel_commands:
            if not getattr(cmd, "_fleet_counted", False):
                keep_kernels.append(cmd)
                continue
            record.kernels.append(kernel_event(cmd))
        ctx.kernel_commands[:] = keep_kernels
