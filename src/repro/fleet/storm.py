"""Failover-storm control: the paced migration queue.

When one device dies, migrating its apps immediately is right.  When a
whole fault domain dies, the historical immediate path dumps a quarter of
the fleet's work onto the survivors in a single simulated instant — every
migrant re-allocates buffers, replays its checkpoint restore burst and
re-executes lost kernels *at the same time*, on devices that are already
running their own load.  Goodput collapses, deadlines slip, deadline
misses turn into re-runs, and the system can stay collapsed long after
the loss itself: the failover storm is the ignition source of metastable
failure.

:class:`MigrationQueue` replaces the mass migration with paced,
capacity-aware admission:

* detected-lost apps are *queued* (journaled as ``migration-queued``),
  prioritised by deadline, then by checkpoint staleness (least
  checkpointed progress first — those apps lose the most per second of
  delay), then by app id for determinism;
* each surviving device exposes ``max_inflight_per_device`` *recovery
  slots*; a queued app is released only into a free slot, and the slot
  is held until the migrant reaches its next checkpoint boundary (state
  restored, one phase re-run — warmed up) or terminates;
* freed slots are refilled on the pacer tick (``pace_interval``), not
  instantly, so recovery load ramps instead of stepping.

The queue owns no placement policy of its own: the coordinator passes a
``candidates`` callable (healthy devices + live load) and a ``release``
callback that applies the assignment, journals the ``failover`` event and
wakes the parked driver — exactly the code path immediate migration used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..sim.process import Poller
from .config import StormControlConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..integrity.fencing import FencedJournal

__all__ = ["MigrationQueue"]

#: Sort placeholder for apps without a deadline (migrate after all
#: deadline-bearing work).
_NO_DEADLINE = float("inf")


class MigrationQueue(Poller):
    """Capacity-aware, deadline-prioritised failover pacing.

    Parameters
    ----------
    env:
        Simulation environment (the queue owns the pacer process).
    config:
        :class:`~repro.fleet.config.StormControlConfig`.
    candidates:
        Zero-argument callable returning ``[(device_index, live_load)]``
        for every healthy device — the admission universe.
    release:
        ``release(app_id, target)`` applies the migration (assignment,
        ``failover`` journal entry, waiter wake-up).  ``target`` is
        ``None`` only when no healthy device remains: the app fails.
    journal:
        The run's fenced journal, with or without a file behind it:
        every ``migration-queued`` decision goes through it, tokenless
        (queueing is legitimate in any generation).
    """

    def __init__(
        self,
        env,
        config: StormControlConfig,
        *,
        candidates: Callable[[], List[Tuple[int, int]]],
        release: Callable[[str, Optional[int]], None],
        journal: "FencedJournal",
    ) -> None:
        super().__init__(env, config.pace_interval, "migration-pacer")
        self.config = config
        self.candidates = candidates
        self.release = release
        self.journal = journal
        #: Queued apps as ``(deadline, checkpointed kernels, app id)``:
        #: sorted, they are in release order (app ids are unique here).
        self._queue: List[Tuple[float, int, str]] = []
        #: Recovery slots in use, per surviving device.
        self._inflight: Dict[int, int] = {}
        #: app -> device whose recovery slot it holds.
        self._slot_of: Dict[str, int] = {}
        self.queued_total = 0
        self.released_total = 0
        self.failed_total = 0
        self.peak_depth = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MigrationQueue depth={len(self._queue)} "
            f"released={self.released_total}>"
        )

    def tick(self) -> None:
        """Pacer tick: refill freed recovery slots."""
        self.drain()

    @property
    def depth(self) -> int:
        """Apps currently queued (not yet released)."""
        return len(self._queue)

    # -- enqueue / slot accounting ----------------------------------------

    def enqueue(
        self,
        app_id: str,
        *,
        from_device: int,
        deadline: Optional[float],
        checkpoint_kernels: int,
    ) -> None:
        """Queue one detected-lost app for paced re-admission.

        An app can be enqueued twice — its first failover target may die
        before it warms up — so any recovery slot it still holds from the
        previous migration is freed first.
        """
        self.free_slot(app_id)
        self._queue.append(
            (
                _NO_DEADLINE if deadline is None else deadline,
                checkpoint_kernels,
                app_id,
            )
        )
        self.queued_total += 1
        self.peak_depth = max(self.peak_depth, len(self._queue))
        self.journal.record(
            {
                "event": "migration-queued",
                "app": app_id,
                "from": from_device,
                "deadline": -1.0 if deadline is None else float(deadline),
                "kernels": checkpoint_kernels,
                "depth": len(self._queue),
                "t": self.env.now,
            }
        )

    def free_slot(self, app_id: str) -> None:
        """Release the recovery slot ``app_id`` holds, if any.

        Called when a migrant reaches its first post-migration checkpoint
        boundary or terminates (and defensively on re-enqueue).  The
        freed slot is refilled on the next pacer tick, not immediately —
        that delay *is* the pacing.
        """
        device = self._slot_of.pop(app_id, None)
        if device is not None:
            self._inflight[device] = max(0, self._inflight.get(device, 0) - 1)

    def note_device_lost(self, index: int) -> None:
        """A device died: its recovery slots no longer gate anything."""
        self._inflight.pop(index, None)
        for app_id, device in list(self._slot_of.items()):
            if device == index:
                del self._slot_of[app_id]

    # -- release -----------------------------------------------------------

    def _pick_target(self) -> Optional[int]:
        best = None
        best_key = None
        for index, load in self.candidates():
            used = self._inflight.get(index, 0)
            if used >= self.config.max_inflight_per_device:
                continue
            key = (used, load, index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def drain(self) -> int:
        """Release queued apps into free recovery slots; return the count.

        Runs at detection time (the first, capacity-capped wave) and on
        every pacer tick.  With no healthy device left the whole queue is
        failed out (``release(app, None)``) — losses are permanent in
        this model, so there is nothing to wait for.
        """
        released = 0
        if self._queue and not self.candidates():
            for _, _, app_id in sorted(self._queue):
                self.failed_total += 1
                self.release(app_id, None)
            self._queue.clear()
            return 0
        while self._queue:
            target = self._pick_target()
            if target is None:
                break
            self._queue.sort()
            _, _, app_id = self._queue.pop(0)
            self._inflight[target] = self._inflight.get(target, 0) + 1
            self._slot_of[app_id] = target
            self.released_total += 1
            self.release(app_id, target)
            released += 1
        return released
