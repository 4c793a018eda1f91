"""Stream-level commands exchanged between host code and device engines.

CUDA's execution model is: host threads *enqueue* commands (async memory
copies, kernel launches, event records) onto streams; the device consumes
them subject to (a) in-stream FIFO ordering and (b) hardware work-queue
ordering (see :mod:`repro.gpu.hyperq`).  Each command here carries three
events that model code and metrics hang off:

``ready``
    All ordering dependencies satisfied; the command is eligible for its
    engine (DMA or grid).
``started``
    The engine began executing it (first byte on the wire / first thread
    block placed).
``done``
    Fully complete (last byte / last thread block retired).

``ready`` and ``started`` are set with :meth:`~repro.sim.events.Event.stamp`:
nothing in the model waits on them, so they take no calendar entry unless
a callback was registered before the trigger.  A kernel launch's ``done``
can complete without a calendar entry too: the grid engine hands the
finished launch to the device's settle method, which marks ``done``
processed on the spot when the device's own retire callback is its only
subscriber and no calendar event is due at or before now (see
:meth:`repro.gpu.device.GPUDevice._settle`).  Anything that waits on
``done`` keeps it on the calendar, and copies and markers always take it.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Optional

from ..sim.events import Event
from .kernels import KernelDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["CopyDirection", "Command", "MemcpyCommand", "KernelLaunchCommand", "MarkerCommand"]

_command_ids = count(1)


class CopyDirection(Enum):
    """Transfer direction; each direction has its own DMA engine."""

    HTOD = "HtoD"
    DTOH = "DtoH"

    def __str__(self) -> str:
        return self.value


class Command:
    """Base class for everything that can sit in a stream.

    Attributes
    ----------
    cid:
        Globally unique id, monotone in creation order — ties in engine
        queues are broken by it, keeping the whole simulation deterministic.
    stream_id / queue_id:
        Filled in by the device when the command is enqueued.
    app_id:
        The application instance that issued the command (``None`` for
        infrastructure commands); metrics group spans by it.
    """

    kind = "command"

    def __init__(self, env: "Environment", app_id: Optional[str] = None) -> None:
        self.cid: int = next(_command_ids)
        self.env = env
        self.app_id = app_id
        self.stream_id: Optional[int] = None
        self.queue_id: Optional[int] = None
        self.enqueue_time: Optional[float] = None
        self.ready: Event = Event(env)
        self.started: Event = Event(env)
        self.done: Event = Event(env)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} #{self.cid} app={self.app_id!r} "
            f"stream={self.stream_id}>"
        )

    @property
    def label(self) -> str:
        """Short human-readable description used in traces."""
        return self.kind


class MemcpyCommand(Command):
    """An asynchronous ``cudaMemcpyAsync`` of ``nbytes`` in ``direction``.

    ``buffer`` is a free-form label naming what is being moved (e.g.
    ``"matrix_a"``) so timelines read like the paper's profiler screenshots.
    """

    kind = "memcpy"

    def __init__(
        self,
        env: "Environment",
        direction: CopyDirection,
        nbytes: int,
        buffer: str = "",
        app_id: Optional[str] = None,
    ) -> None:
        super().__init__(env, app_id=app_id)
        if nbytes <= 0:
            raise ValueError(f"memcpy of {nbytes} bytes")
        self.direction = direction
        self.nbytes = int(nbytes)
        self.buffer = buffer

    @property
    def label(self) -> str:
        return f"memcpy{self.direction}({self.buffer or self.nbytes})"


class KernelLaunchCommand(Command):
    """A kernel launch: the full grid described by ``descriptor``."""

    kind = "kernel"

    def __init__(
        self,
        env: "Environment",
        descriptor: KernelDescriptor,
        app_id: Optional[str] = None,
    ) -> None:
        super().__init__(env, app_id=app_id)
        self.descriptor = descriptor
        #: Filled by the block scheduler: number of scheduling waves used.
        self.waves: int = 0
        #: Time the first / last block was placed (diagnostics).
        self.first_block_time: Optional[float] = None
        self.last_block_time: Optional[float] = None

    @property
    def label(self) -> str:
        return self.descriptor.name


class MarkerCommand(Command):
    """A no-op ordering marker (models ``cudaEventRecord``).

    Completes as soon as it becomes ready; used by host code to wait for a
    prefix of a stream without synchronizing the entire device.
    """

    kind = "marker"

    def __init__(self, env: "Environment", name: str = "event", app_id: Optional[str] = None) -> None:
        super().__init__(env, app_id=app_id)
        self.name = name

    @property
    def label(self) -> str:
        return f"marker({self.name})"
