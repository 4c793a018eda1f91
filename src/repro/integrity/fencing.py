"""Epoch/generation fencing for post-failover journal writes.

The split-brain window this closes: the :class:`~repro.fleet.coordinator.
FailoverCoordinator` declares a device lost after ``suspect_after`` missed
heartbeats, but the *declaration* is an observer-side event — an app
thread still bound to the "lost" device may have checkpoint writes in
flight.  Without fencing those writes interleave with the migrated
replica's writes in the fleet journal, and a later resume replays
checkpoints from two divergent executions of the same app.

The fix is the classic fencing-token protocol (Chubby/ZooKeeper style),
scaled down to one process:

1. Every fleet device carries a monotone **generation** counter in a
   :class:`GenerationFence`.
2. When an app binds (or re-binds after migration) to a device, it takes
   a :class:`FenceToken` — an immutable ``(device, generation)`` pair.
3. When the coordinator declares the device lost it **advances** the
   generation *before* re-placing any app.
4. Every checkpoint write presents its bind-time token; a
   :class:`FencedJournal` rejects tokens whose generation is no longer
   current with :class:`StaleGenerationError` and counts the rejection.

Writes that are legitimately post-loss (the coordinator's own
``device-lost`` / ``failover`` records, terminal app outcomes) are made
without a token and pass unfenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "FenceToken",
    "GenerationFence",
    "FencedJournal",
    "StaleGenerationError",
]


class StaleGenerationError(Exception):
    """A write presented a fencing token from a superseded generation."""

    def __init__(self, token: "FenceToken", current: int) -> None:
        super().__init__(
            f"write fenced off: device {token.device_index} token is from "
            f"generation {token.generation} but the device is at "
            f"generation {current}"
        )
        self.token = token
        self.current = current


@dataclass(frozen=True)
class FenceToken:
    """Immutable proof of *when* the holder bound to a device.

    Captured at bind time and presented with every fenced write; never
    refreshed in place — re-binding after a migration issues a new token.
    """

    device_index: int
    generation: int


class GenerationFence:
    """Monotone per-device generation counters.

    Generations start at 0 and only ever advance (one per declared device
    loss), so token comparison is a single integer equality — cheap enough
    to sit on every checkpoint write.
    """

    def __init__(self) -> None:
        self._generations: Dict[int, int] = {}
        #: Total generation advances (== device-loss declarations fenced).
        self.advances: int = 0
        #: Writes rejected for carrying a stale token.
        self.rejected: int = 0

    def generation(self, device_index: int) -> int:
        """Current generation of ``device_index`` (0 if never advanced)."""
        return self._generations.get(device_index, 0)

    def token(self, device_index: int) -> FenceToken:
        """Issue a bind-time token for the device's current generation."""
        return FenceToken(device_index, self.generation(device_index))

    def advance(self, device_index: int) -> int:
        """Supersede every outstanding token for ``device_index``.

        Called by the coordinator at the instant a device is declared
        lost, *before* any app is re-placed, so no stale write can land
        after the first post-failover write.
        """
        new = self.generation(device_index) + 1
        self._generations[device_index] = new
        self.advances += 1
        return new

    def is_current(self, token: FenceToken) -> bool:
        return token.generation == self.generation(token.device_index)

    def check(self, token: FenceToken) -> None:
        """Raise :class:`StaleGenerationError` if the token is superseded."""
        current = self.generation(token.device_index)
        if token.generation != current:
            self.rejected += 1
            raise StaleGenerationError(token, current)


class FencedJournal:
    """Journal decorator that enforces fencing tokens on writes.

    Wraps any ``record(entry)`` duck type (``RunJournal`` in practice),
    or ``None``: a run without a journal file still fences, so a stale
    write is counted whether or not there is a file it could have
    reached.  Tokened writes are validated against the fence before they
    touch the file; tokenless writes pass through for record types that
    are legitimate after a loss.  Rejections are swallowed into
    :attr:`rejected` when ``strict`` is off (the fleet harness's mode:
    the stale writer is about to be migrated anyway, its write must
    simply not land) or re-raised when ``strict`` is on (tests, and any
    caller that wants the writer to observe its own demotion).
    """

    def __init__(self, journal, fence: GenerationFence, strict: bool = False) -> None:
        self.journal = journal
        self.fence = fence
        self.strict = strict
        #: Stale writes this wrapper refused to pass through.
        self.rejected: int = 0
        #: Entries the fence rejected, kept for the audit trail.
        self.rejections: List[dict] = []

    def record(self, entry: dict, token: Optional[FenceToken] = None) -> None:
        if token is not None:
            try:
                self.fence.check(token)
            except StaleGenerationError:
                self.rejected += 1
                self.rejections.append(dict(entry))
                if self.strict:
                    raise
                return
        if self.journal is not None:
            self.journal.record(entry)

    # Pass the rest of the journal surface through untouched.

    def __getattr__(self, name):
        return getattr(self.journal, name)

    def __enter__(self) -> "FencedJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.journal is not None:
            self.journal.close()
