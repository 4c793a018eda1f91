"""The simulated GPU device: streams, queue fabric, engines and power.

:class:`GPUDevice` is the hub of the hardware model.  Host-side code (the
framework layer) creates :class:`DeviceStream` objects and enqueues
commands; the device wires each command's ordering dependencies (in-stream
FIFO plus hardware work-queue FIFO, per :mod:`repro.gpu.hyperq`), routes
ready commands to the right engine (DMA per direction, grid engine for
kernels) and keeps the power model informed of every activity change.
A finished kernel launch comes back through :meth:`GPUDevice._settle`,
which completes it without a calendar event when nothing observes the
completion.

The device knows nothing about applications, scheduling policies or the
paper's experiments — it is the substrate those layers run on.  Nor does
it record a timeline for observers: each command carries its own
``ready``/``started``/``done`` times, and the profiler views are derived
from the applications' records of those times after a run
(:func:`repro.framework.metrics.record_timeline`).
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, Optional

from ..sim.engine import Environment
from ..sim.events import AllOf, Event
from .block_scheduler import GridEngine
from .commands import (
    Command,
    CopyDirection,
    KernelLaunchCommand,
    MarkerCommand,
    MemcpyCommand,
)
from .dma import CopyEngine
from .hyperq import HardwareQueue, QueueFabric
from .kernels import KernelDescriptor
from .memory import MemoryAllocator
from .power import PowerModel, PowerState
from .smx import SMXArray
from .specs import DeviceSpec, tesla_k20

__all__ = ["DeviceStream", "GPUDevice"]


def _calendar_clear(env: Environment) -> bool:
    """Whether no calendar event is due at or before ``env.now``."""
    return env.peek() > env._now


def _too_many_resources(
    descriptor: KernelDescriptor, spec: DeviceSpec
) -> ValueError:
    """CUDA's "too many resources requested for launch", naming the first
    resource one block of ``descriptor`` needs more of than an SMX has."""
    smx = spec.smx
    for needed, has, what in (
        (descriptor.threads_per_block, smx.max_threads, "threads"),
        (
            descriptor.shared_mem_per_block,
            smx.shared_memory,
            "bytes of shared memory",
        ),
        (descriptor.registers_per_block, smx.registers, "registers"),
    ):
        if needed > has:
            break
    return ValueError(
        f"too many resources requested for launch: one block of "
        f"{descriptor.name} needs {needed} {what}, and an SMX of "
        f"{spec.name} has {has}"
    )


class DeviceStream:
    """A CUDA stream: an in-order command queue owned by a device.

    Create through :meth:`GPUDevice.create_stream`.  All ``enqueue_*``
    methods are asynchronous in the CUDA sense: they return the command
    immediately; wait on ``command.done`` (or :meth:`synchronize_event`)
    for completion.
    """

    def __init__(self, device: "GPUDevice", sid: int, name: str = "") -> None:
        self.device = device
        self.sid = sid
        self.name = name or f"stream-{sid}"
        self._tail: Optional[Event] = None
        #: The hardware queue this stream maps onto, looked up at its
        #: first enqueue (a stream with no work claims no queue).
        self._queue: Optional[HardwareQueue] = None
        self.commands_enqueued: int = 0

    def __repr__(self) -> str:
        return f"<DeviceStream {self.sid} ({self.name})>"

    # -- enqueue API ---------------------------------------------------------

    def enqueue_memcpy(
        self,
        direction: CopyDirection,
        nbytes: int,
        buffer: str = "",
        app_id: Optional[str] = None,
    ) -> MemcpyCommand:
        """Enqueue an async memcpy; returns immediately."""
        cmd = MemcpyCommand(
            self.device.env, direction, nbytes, buffer=buffer, app_id=app_id
        )
        self.device._enqueue(self, cmd)
        return cmd

    def enqueue_kernel(
        self, descriptor: KernelDescriptor, app_id: Optional[str] = None
    ) -> KernelLaunchCommand:
        """Enqueue a kernel launch; returns immediately.

        Raises :class:`ValueError` when one block of ``descriptor`` needs
        more threads, registers or shared memory than an empty SMX has:
        such a grid could never be placed.
        """
        smx = self.device.spec.smx
        if (
            descriptor._threads_per_block > smx.max_threads
            or descriptor.shared_mem_per_block > smx.shared_memory
            or descriptor._registers_per_block > smx.registers
        ):
            raise _too_many_resources(descriptor, self.device.spec)
        cmd = KernelLaunchCommand(self.device.env, descriptor, app_id=app_id)
        self.device._enqueue(self, cmd)
        return cmd

    def enqueue_marker(
        self, name: str = "event", app_id: Optional[str] = None
    ) -> MarkerCommand:
        """Enqueue an ordering marker (``cudaEventRecord`` equivalent)."""
        cmd = MarkerCommand(self.device.env, name=name, app_id=app_id)
        self.device._enqueue(self, cmd)
        return cmd

    def synchronize_event(self) -> Event:
        """Event that triggers when all currently enqueued work completes.

        Equivalent to ``cudaStreamSynchronize``: host processes do
        ``yield stream.synchronize_event()``.
        """
        if self._tail is None or self._tail.callbacks is None:
            # Nothing pending (or tail already processed): complete now.
            evt = Event(self.device.env)
            evt.succeed()
            return evt
        return self._tail


class GPUDevice:
    """One simulated GPU.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Hardware description (default: the paper's Tesla K20).
    copy_policy:
        Copy-queue service discipline (``"interleave"`` or ``"fifo"``).
    admission:
        Optional admission-control hook forwarded to the grid engine
        (used by the symbiosis baseline; ``None`` = LEFTOVER policy).
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` forwarded
        to the grid engine (launch failures, kernel hangs) and both copy
        engines (DMA stalls); ``None`` keeps the device fault-free.
    """

    def __init__(
        self,
        env: Environment,
        spec: Optional[DeviceSpec] = None,
        copy_policy: str = "interleave",
        admission=None,
        injector=None,
    ) -> None:
        self.env = env
        self.spec = spec or tesla_k20()
        self.smx = SMXArray(self.spec.num_smx, self.spec.smx)
        self.power = PowerModel(
            env, self.spec.power, self.spec.max_resident_threads
        )
        self.injector = injector
        self.grid_engine = GridEngine(
            env,
            self.smx,
            on_change=self._power_changed,
            settle=self._settle,
            admission=admission,
            injector=injector,
        )
        # Direct references keep the per-update power path free of
        # enum-keyed lookups; ``dma`` is the public by-direction view.
        self._htod = CopyEngine(
            env,
            CopyDirection.HTOD,
            self.spec.dma_htod,
            policy=copy_policy,
            on_change=self._power_changed,
            injector=injector,
        )
        self._dtoh = CopyEngine(
            env,
            CopyDirection.DTOH,
            self.spec.dma_dtoh,
            policy=copy_policy,
            on_change=self._power_changed,
            injector=injector,
        )
        self.dma = {
            CopyDirection.HTOD: self._htod,
            CopyDirection.DTOH: self._dtoh,
        }
        self.fabric = QueueFabric(env, self.spec.hardware_queues)
        self.memory = MemoryAllocator(self.spec.global_memory)
        self._stream_ids = count(0)
        self.streams: Dict[int, DeviceStream] = {}
        self._inflight: int = 0
        # Per-stream in-flight command counts (for the power model's
        # active-stream term).
        self._stream_inflight: Dict[int, int] = {}
        self._active_streams: int = 0
        # One retire callback per stream id, built at its first dispatch.
        self._retire_callbacks: Dict[int, Callable[[Event], None]] = {}
        self._power_update = self.power.update
        # Statistics
        self.commands_issued: int = 0

    def __repr__(self) -> str:
        return f"<GPUDevice {self.spec.name} streams={len(self.streams)}>"

    # -- streams ----------------------------------------------------------

    def create_stream(self, name: str = "") -> DeviceStream:
        """Create a new stream (``cudaStreamCreate``)."""
        sid = next(self._stream_ids)
        stream = DeviceStream(self, sid, name=name)
        self.streams[sid] = stream
        return stream

    def destroy_stream(self, stream: DeviceStream) -> None:
        """Destroy a stream (host must have synchronized it first)."""
        self.streams.pop(stream.sid, None)

    # -- command plumbing ----------------------------------------------------

    def _enqueue(self, stream: DeviceStream, cmd: Command) -> None:
        """Append ``cmd`` to its stream and hardware queue; it dispatches
        when the unprocessed ``done`` of each predecessor has fired."""
        sid = cmd.stream_id = stream.sid
        cmd.enqueue_time = self.env._now
        self.commands_issued += 1
        queue = stream._queue
        if queue is None:
            queue = stream._queue = self.fabric.queue_for_stream(sid)
        cmd.queue_id = queue.index
        done = cmd.done
        prev_stream = stream._tail
        stream._tail = done
        stream.commands_enqueued += 1
        prev_queue = queue._tail
        queue._tail = done
        queue.depth_total += 1

        on_stream = (
            prev_stream is not None and prev_stream.callbacks is not None
        )
        on_queue = (
            prev_queue is not None
            and prev_queue is not prev_stream
            and prev_queue.callbacks is not None
        )
        if on_stream and on_queue:
            gate = AllOf(self.env, [prev_stream, prev_queue])
        elif on_stream:
            gate = prev_stream
        elif on_queue:
            gate = prev_queue
        else:
            self._dispatch(cmd)
            return
        gate.callbacks.append(lambda _e, c=cmd: self._dispatch(c))

    def _dispatch(self, cmd: Command) -> None:
        """Route a dependency-free command to its engine."""
        now = self.env._now
        cmd.ready.stamp(now)
        self._inflight += 1
        sid = cmd.stream_id
        prev = self._stream_inflight.get(sid, 0)
        self._stream_inflight[sid] = prev + 1
        if prev == 0:
            self._active_streams += 1
        retire = self._retire_callbacks.get(sid)
        if retire is None:
            retire = self._retire_callbacks[sid] = (
                lambda _e, s=sid: self._command_retired(s)
            )
        cmd.done.callbacks.append(retire)
        if isinstance(cmd, KernelLaunchCommand):
            self.grid_engine.submit(cmd)
        elif isinstance(cmd, MemcpyCommand):
            self.dma[cmd.direction].submit(cmd)
        elif isinstance(cmd, MarkerCommand):
            cmd.started.stamp(now)
            cmd.done.succeed(now)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot dispatch {cmd!r}")
        if prev == 0:
            self._power_changed()

    def _settle(self, cmd: KernelLaunchCommand) -> bool:
        """Complete a finished launch's ``done`` event at the current time.

        The grid engine's settle hook, called from a cohort retirement.
        Returns ``True`` when ``done`` settled inline, with no calendar
        entry.  That takes two things: the device's retire callback is
        the only callback on ``done``, and no calendar event is due at or
        before now.  Then ``succeed`` would put ``done`` next in line, and
        popping it would only run that callback, so it runs here instead:
        ``done`` is stamped with no subscriber left, and the in-flight
        counts and power update on the spot.  Otherwise ``done`` succeeds
        onto the calendar.
        """
        done = cmd.done
        env = self.env
        # ``_dispatch`` adds the retire callback before the engine sees
        # the launch, so a single callback is that one.
        if len(done.callbacks) == 1 and _calendar_clear(env):
            done.callbacks.clear()
            done.stamp(env._now)
            self._command_retired(cmd.stream_id)
            return True
        done.succeed(env._now)
        return False

    def _command_retired(self, stream_id: Optional[int]) -> None:
        self._inflight -= 1
        remaining = self._stream_inflight.get(stream_id, 0) - 1
        self._stream_inflight[stream_id] = remaining
        if remaining == 0:
            self._active_streams -= 1
        self._power_changed()

    # -- power ------------------------------------------------------------------

    def _power_changed(self) -> None:
        self._power_update(
            self.smx._resident_threads,
            self._htod.busy + self._dtoh.busy,
            self._inflight > 0,
            self._active_streams,
        )

    def power_state(self) -> PowerState:
        """The :class:`PowerState` of the live activity counters.

        ``power.evaluate(device.power_state())`` is the reference value of
        ``power.current_power``; the integrity checker asserts they agree.
        """
        return PowerState(
            occupancy=min(self.smx.thread_occupancy, 1.0),
            dma_busy=self._htod.busy + self._dtoh.busy,
            any_active=self._inflight > 0,
            active_streams=self._active_streams,
        )

    # -- global sync ---------------------------------------------------------

    def synchronize_event(self) -> Event:
        """Event completing when every stream's enqueued work is done
        (``cudaDeviceSynchronize``)."""
        tails = [
            s._tail
            for s in self.streams.values()
            if s._tail is not None and s._tail.callbacks is not None
        ]
        if not tails:
            evt = Event(self.env)
            evt.succeed()
            return evt
        if len(tails) == 1:
            return tails[0]
        return AllOf(self.env, tails)
