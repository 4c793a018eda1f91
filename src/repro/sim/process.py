"""Process coroutines for the :mod:`repro.sim` engine.

A :class:`Process` wraps a Python generator.  The generator *yields* events;
whenever a yielded event is processed the generator is resumed with the
event's value (or the event's exception is thrown into it).  A process is
itself an :class:`~repro.sim.events.Event` that triggers with the
generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import NORMAL, PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

__all__ = ["Process", "Initialize", "Interruption", "ProcessGenerator"]

#: Type alias for the generator signature accepted by :class:`Process`.
ProcessGenerator = Generator[Event, Any, Any]


class Initialize(Event):
    """Private event that starts a freshly created process.

    Scheduled URGENT so that a process body begins executing at the simulated
    time of its creation, before any same-time timeouts fire.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume_cb)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Immediate event that throws :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: object) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        self.process = process
        self.callbacks.append(self._interrupt)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            return  # Process already finished; the interrupt is moot.
        # Unsubscribe the process from whatever it was waiting for, then
        # resume it with the Interrupt exception.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume_cb)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """Execution of a generator coroutine inside an environment.

    Processes trigger (as events) when their generator returns; the trigger
    value is the generator's return value.  If the generator raises, the
    process fails with that exception, which propagates to any process
    waiting on it (or aborts the simulation if unhandled).
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method for every event the process waits on, rather
        # than a new one per ``yield``.
        self._resume_cb = self._resume
        #: The event this process is currently waiting on (``None`` while
        #: the process is running or finished).
        self._target: Optional[Event] = Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw an :class:`Interrupt` into this process.

        The interrupt is delivered at the current simulated time with URGENT
        priority.  Interrupting a terminated process raises
        :class:`SimulationError`.
        """
        Interruption(self, cause)

    # -- engine integration ----------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event.defuse()
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                # Generator finished normally.
                self._target = None
                env._active_process = None
                self._ok = True
                self._value = stop.value
                env.schedule(self, priority=NORMAL)
                return
            except BaseException as exc:
                # Generator died with an exception -> fail the process event.
                self._target = None
                env._active_process = None
                self._ok = False
                self._value = exc
                env.schedule(self, priority=NORMAL)
                return

            if not isinstance(next_event, Event):
                self._target = None
                env._active_process = None
                msg = (
                    f"process {self.name!r} yielded a non-event: "
                    f"{next_event!r}"
                )
                self._ok = False
                self._value = SimulationError(msg)
                env.schedule(self, priority=NORMAL)
                return

            if next_event.callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                next_event.callbacks.append(self._resume_cb)
                self._target = next_event
                break

            # Event was already processed: loop and resume immediately with
            # its (possibly failed) value.
            event = next_event

        env._active_process = None
