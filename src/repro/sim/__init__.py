"""Self-contained discrete-event simulation substrate.

This package provides the event engine the GPU model is built on: an
:class:`Environment` with a deterministic event calendar, generator-based
:class:`Process` coroutines, FIFO :class:`Resource`/:class:`Mutex`/
:class:`Store` primitives, the fixed-interval :class:`Poller`, and the
:class:`Span`/:class:`Instant` rows (held by a :class:`TraceRecorder`)
that play the role of the NVIDIA Visual Profiler for the reproduced
timelines.  The timelines themselves
are derived from each run's command record, not recorded by the engines.

The API intentionally mirrors SimPy (``env.process``, ``env.timeout``,
``yield event``) so the model code reads like standard DES Python, but the
implementation is local — no third-party simulation dependency.
"""

from .engine import Environment, Infinity
from .errors import (
    DeadlineExceeded,
    EventError,
    FaultError,
    Interrupt,
    ScheduleError,
    SimulationError,
    StopSimulation,
)
from .events import NORMAL, URGENT, AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Poller, Process
from .resources import Mutex, Request, Resource, Store
from .trace import Instant, Span, TraceRecorder, max_overlap

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Poller",
    "Resource",
    "Request",
    "Mutex",
    "Store",
    "TraceRecorder",
    "Span",
    "Instant",
    "max_overlap",
    "SimulationError",
    "EventError",
    "ScheduleError",
    "FaultError",
    "DeadlineExceeded",
    "StopSimulation",
    "Interrupt",
    "URGENT",
    "NORMAL",
]
