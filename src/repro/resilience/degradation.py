"""Graceful concurrency degradation under sustained faults.

The paper's central knob is NS — how many concurrent streams feed the
device.  High NS is where Hyper-Q pays off, but it is also where faults
compound: a hung grid ties up SMX resources every co-running application
wants, and retries pile more work onto an already-struggling device.  The
degradation ladder responds the way a production serving stack would:
when the observed fault count crosses a threshold, halve the effective
concurrency, stepping down toward fully serialized execution (the NS=1
baseline, which the paper shows is the *safe* — if slow — operating
point).

Two pieces:

:class:`ConcurrencyLimiter`
    A FIFO admission gate the supervisors acquire before starting an
    attempt.  Unlike :class:`~repro.sim.resources.Resource` its capacity
    can be lowered on the fly; excess holders drain naturally (no
    revocation — running attempts finish, new ones wait).
:class:`DegradationController`
    Glue: counts faults, consults the ladder, lowers the limiter, and
    records every step for the resilience summary.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment
    from .faults import FaultInjector

__all__ = ["ConcurrencyLimiter", "DegradationController", "ladder_limit"]


def ladder_limit(initial: int, faults: int, threshold: int) -> int:
    """Concurrency limit after ``faults`` observed faults.

    Every ``threshold`` faults halves the limit (floor 1): with
    ``initial=8, threshold=2`` the ladder is 8, 8, 4, 4, 2, 2, 1 ... —
    a geometric descent toward serialized execution.  ``threshold <= 0``
    disables degradation entirely.
    """
    if threshold <= 0:
        return max(1, initial)
    steps = faults // threshold
    return max(1, initial >> steps) if steps < initial.bit_length() else 1


class ConcurrencyLimiter:
    """FIFO admission gate with a dynamically lowerable capacity.

    ``acquire()`` is a sub-generator (``yield from``) that returns once a
    slot is granted; ``release()`` hands the slot to the oldest waiter
    that fits under the *current* limit.  Lowering the limit never evicts
    a holder — the gate simply stops admitting until enough slots drain.
    """

    def __init__(self, env: "Environment", limit: int, name: str = "ns-gate") -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.env = env
        self.name = name
        self._limit = int(limit)
        self._active = 0
        self._waiters: Deque[Event] = deque()

    def __repr__(self) -> str:
        return (
            f"<ConcurrencyLimiter {self.name!r} {self._active}/{self._limit} "
            f"({len(self._waiters)} waiting)>"
        )

    @property
    def limit(self) -> int:
        """Current admission limit."""
        return self._limit

    @property
    def active(self) -> int:
        """Slots currently held (may exceed ``limit`` right after a cut)."""
        return self._active

    @property
    def queue_length(self) -> int:
        """Number of attempts waiting for admission."""
        return len(self._waiters)

    def set_limit(self, limit: int) -> None:
        """Change the limit; grants waiters if it rose, drains if it fell."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self._limit = int(limit)
        self._grant()

    def acquire(self):
        """Acquire one admission slot (``yield from`` inside a process)."""
        if self._active < self._limit and not self._waiters:
            self._active += 1
            return
        gate = Event(self.env)
        self._waiters.append(gate)
        try:
            yield gate
        except BaseException:
            # Interrupted while queued (or the grant raced the interrupt):
            # withdraw cleanly so the gate's accounting stays consistent.
            try:
                self._waiters.remove(gate)
            except ValueError:
                # Already granted (active was incremented at grant time).
                self._active -= 1
                self._grant()
            raise

    def release(self) -> None:
        """Return a slot and admit the oldest waiter that fits."""
        if self._active <= 0:
            raise RuntimeError(f"release() without acquire() on {self!r}")
        self._active -= 1
        self._grant()

    def _grant(self) -> None:
        while self._waiters and self._active < self._limit:
            gate = self._waiters.popleft()
            self._active += 1
            gate.succeed()


class DegradationController:
    """Maps observed fault density onto the concurrency ladder.

    Parameters
    ----------
    limiter:
        The admission gate to throttle.
    threshold:
        Faults per halving step; ``0`` disables degradation.
    injector:
        Optional fault injector whose trace gets a ``degrade`` mark at
        every step.
    """

    def __init__(
        self,
        limiter: ConcurrencyLimiter,
        threshold: int = 0,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.limiter = limiter
        self.threshold = int(threshold)
        self.injector = injector
        self.initial_limit = limiter.limit
        self.fault_count = 0
        #: ``(time, fault_count, new_limit)`` per step taken.
        self.steps: List[Tuple[float, int, int]] = []

    def note_fault(self) -> None:
        """Record one detected fault; degrade if the ladder says so."""
        self.fault_count += 1
        if self.threshold <= 0:
            return
        target = ladder_limit(self.initial_limit, self.fault_count, self.threshold)
        if target < self.limiter.limit:
            self.limiter.set_limit(target)
            now = self.limiter.env.now
            self.steps.append((now, self.fault_count, target))
            if self.injector is not None:
                self.injector.trace.mark(
                    track="resilience",
                    category="degrade",
                    name=f"NS->{target}",
                    time=now,
                    faults=self.fault_count,
                    limit=target,
                )

    @property
    def step_count(self) -> int:
        """Number of degradation steps taken."""
        return len(self.steps)
