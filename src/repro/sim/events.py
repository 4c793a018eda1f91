"""Event primitives for the :mod:`repro.sim` discrete-event engine.

An :class:`Event` is the unit of synchronization: processes yield events and
are resumed when the event *triggers*.  Events carry a value (delivered to
every waiter) or an exception (thrown into every waiter).  The design follows
SimPy closely so that readers familiar with SimPy can follow the GPU model
built on top, but the implementation here is self-contained — the repository
has no third-party simulation dependency.

Trigger/processing model
------------------------
An event goes through three states:

``pending``
    Created but not yet triggered; ``event.triggered`` is ``False``.
``triggered``
    ``succeed``/``fail`` was called (or the engine scheduled it); the event
    sits in the environment's queue with a timestamp.
``processed``
    The environment popped it and ran its callbacks; waiting processes have
    been resumed.  :meth:`Event.stamp` reaches this state directly, without
    a calendar entry, when nobody has subscribed to the event yet.

Callbacks are plain callables ``cb(event)`` stored in :attr:`Event.callbacks`;
after processing the list is replaced by ``None`` so late registrations are
detected as errors.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .errors import EventError, ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
]

#: Sentinel used as the value of events that have not been triggered yet.
PENDING: Any = object()

#: Scheduling priority for events that must run before same-time events.
URGENT: int = 0
#: Default scheduling priority.
NORMAL: int = 1


class Event:
    """A single occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment the event lives in.  All timing and callback
        processing is delegated to it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with the event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run and waiters were resumed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise EventError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise EventError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so that factory helpers can do
        ``return Event(env).succeed(v)``.
        """
        if self._value is not PENDING:
            raise EventError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Straight onto the calendar: the entry ``Environment.schedule``
        # would push for a zero delay, without the call.
        env = self.env
        heappush(env._queue, (env._now, priority, next(env._eid), self))
        return self

    def stamp(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value``, skipping the calendar if
        nobody is subscribed.

        Meant for record-keeping events that mostly carry a timestamp:
        a command's ``ready``/``started`` views, which the command builds
        only on demand and which the GPU model stamps when it sets the
        command's float time (see :mod:`repro.gpu.commands`).  With no
        callback registered the event is marked processed at once: no
        calendar entry, no ``events_processed`` tick, and a process that
        yields it later resumes immediately with ``value``.  If a
        callback was registered before the stamp this falls back to
        :meth:`succeed`, so the subscriber runs at the event's calendar
        slot, in order with the other same-time events.  A processed
        event takes no new callbacks, so use this only where nothing
        subscribes after the trigger.
        """
        if self._value is not PENDING:
            raise EventError(f"{self!r} has already been triggered")
        if self.callbacks:
            return self.succeed(value)
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on the event will have ``exception`` thrown
        into it.  If nothing ever waits, the engine re-raises it at the end
        of the step to avoid silently losing errors (unless
        :meth:`defused` was set).
        """
        if self.triggered:
            raise EventError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Used as a chaining callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine won't re-raise it."""
        self._defused = True

    @property
    def defused(self) -> bool:
        """Whether a failure of this event has been marked as handled."""
        return self._defused

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Timeouts are triggered at construction time; they cannot fail and cannot
    be re-triggered.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        # Every field set here, then the calendar entry pushed directly:
        # timeouts are the commonest event, so they skip both the generic
        # ``Event.__init__`` and ``Environment.schedule``.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay = float(delay)
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of events to values produced by a :class:`Condition`.

    Behaves like a read-only dict keyed by the original event objects but
    preserves the order in which events were passed to the condition, which
    makes unpacking results of ``AllOf`` deterministic.
    """

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.todict())

    def __len__(self) -> int:
        return len(self.todict())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def keys(self):
        return self.todict().keys()

    def values(self):
        return self.todict().values()

    def items(self):
        return self.todict().items()

    def todict(self) -> dict:
        """Return a plain dict of the collected events' values."""
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of other events.

    ``evaluate`` is a callable ``(events, triggered_count) -> bool`` deciding
    when the condition is satisfied.  Nested conditions flatten their values
    into a single :class:`ConditionValue`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        # Immediately check already-processed events, subscribe to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            # An empty condition is trivially satisfied.
            self.succeed(ConditionValue([]))

    def _build_value(self) -> ConditionValue:
        """Collect all (transitively) *processed* sub-events.

        Triggered-but-unprocessed events (e.g. a later timeout that already
        knows its value) are excluded: the condition's value reflects what
        has actually happened by the time it fires.
        """
        flat: List[Event] = []

        def collect(events: List[Event]) -> None:
            for e in events:
                if isinstance(e, Condition):
                    collect(e._events)
                elif e.callbacks is None and e._value is not PENDING:
                    flat.append(e)

        collect(self._events)
        return ConditionValue(flat)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._build_value())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Evaluator: every sub-event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """Evaluator: at least one sub-event has triggered."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition satisfied when *all* of ``events`` have succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition satisfied when *any* of ``events`` has succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
