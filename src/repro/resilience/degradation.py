"""Graceful concurrency degradation: one ladder, two triggers.

The paper's central knob is NS — how many concurrent streams feed the
device.  High NS is where Hyper-Q pays off, but it is also where faults
compound: a hung grid ties up SMX resources every co-running application
wants, and retries pile more work onto an already-struggling device.  The
concurrency ladder responds the way a production serving stack would: it
steps the admitted concurrency down toward fully serialized execution
(the NS=1 baseline, which the paper shows is the *safe* — if slow —
operating point), and back up when told to.

Two pieces:

:class:`ConcurrencyLimiter`
    A FIFO admission gate acquired before starting an attempt.  Unlike
    :class:`~repro.sim.resources.Resource` its capacity can be lowered on
    the fly; excess holders drain naturally (no revocation — running
    attempts finish, new ones wait).
:class:`ConcurrencyLadder`
    A tuple of limits, one per level, applied to one limiter per device.
    Two triggers move it, and each records its own steps: the harness's
    fault count (every ``degradation_threshold`` faults halve NS, one
    ``degrade`` trace mark per step) and the fleet's
    :class:`~repro.resilience.metastable.MetastabilityProbe` goodput
    windows (one ``brownout`` journal entry per step).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Sequence, Tuple

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["ConcurrencyLimiter", "ConcurrencyLadder"]


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


class ConcurrencyLadder:
    """Step-down ladder of admission limits over one gate per device.

    ``limits`` holds each level's admission limit (every one >= 1),
    level 0 — the undegraded width — first.  :attr:`gates` holds one
    :class:`ConcurrencyLimiter` per device, ``devices`` of them, all at
    the current level's limit.  Building the ladder schedules no event.
    """

    def __init__(
        self, env: "Environment", limits: Sequence[int], devices: int = 1
    ) -> None:
        self.limits: Tuple[int, ...] = tuple(int(x) for x in limits)
        if not self.limits or min(self.limits) < 1:
            raise ValueError(f"limits must be >= 1, got {self.limits}")
        self.env = env
        self.level = 0
        self.gates = [
            ConcurrencyLimiter(env, self.limits[0], name=f"ns-gate{i}")
            for i in range(devices)
        ]
        #: ``(time, level, limit)`` per step taken.
        self.steps: List[Tuple[float, int, int]] = []

    @classmethod
    def halving(cls, env: "Environment", width: int) -> "ConcurrencyLadder":
        """One-gate ladder halving ``width`` down to 1: 8 gives 8, 4, 2, 1."""
        return cls(env, [width >> k for k in range(width.bit_length())])

    @property
    def limit(self) -> int:
        """Admission limit of the current level."""
        return self.limits[self.level]

    def step_to(self, level: int) -> bool:
        """Move to ``level`` (clamped to the ladder); whether it moved.

        A move sets every gate's limit and appends to :attr:`steps`.
        """
        level = max(0, min(level, len(self.limits) - 1))
        if level == self.level:
            return False
        self.level = level
        limit = self.limits[level]
        for gate in self.gates:
            gate.set_limit(limit)
        self.steps.append((self.env.now, level, limit))
        return True
