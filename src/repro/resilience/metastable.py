"""Metastability detection and the brownout ladder.

A *metastable* failure is the state where a system has capacity but no
goodput: every server is busy, yet nothing useful completes, because the
work being done is retries, re-runs and restores of work that already
missed its deadline.  The trigger (a fault domain dying, a load spike)
can end and the system *stays* collapsed — the amplification loop is
self-sustaining.

:class:`MetastabilityProbe` watches for that state from telemetry-shaped
signals: callers feed it *useful* progress (kernel completions of work
that can still meet its deadline) and it compares each detection window's
goodput against the fleet's current healthy capacity.  Sustained
goodput-below-floor is the second trigger of the
:class:`~repro.resilience.degradation.ConcurrencyLadder` (the first is
the harness's fault count); the fleet builds the ladder with one gate
per device, and its levels are the **brownout** levels:

* level 1 — degrade stream width: per-device admission narrows so the
  attempts already running stop time-sharing with the backlog, finish,
  and count as goodput again (the hedge manager, which reads the same
  ladder, also stands down);
* level 2 — shed low-priority classes: configured app types are dropped
  at their next admission point instead of queued.

Recovery is symmetric: ``recover_windows`` consecutive healthy windows
step the ladder back down.  The probe writes every step it takes to
the run's fenced journal (which reaches a file only when the run has
one) and mirrors it into an events list, in the same style as every
prior decision-making subsystem; with ``BrownoutConfig`` absent neither
the probe nor the ladder is constructed and results are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Tuple

from ..sim.process import Poller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..integrity.fencing import FencedJournal
    from ..sim.engine import Environment
    from .degradation import ConcurrencyLadder

__all__ = ["BrownoutConfig", "MetastabilityProbe"]


@dataclass(frozen=True)
class BrownoutConfig:
    """Detection-window and ladder parameters for metastability control.

    Attributes
    ----------
    window:
        Detection window length (simulated seconds).  Goodput is
        evaluated once per window.
    floor:
        Goodput floor as a fraction of current healthy capacity; a
        window whose ratio falls strictly below it is *unhealthy*.
    trip_windows:
        Consecutive unhealthy windows that trip the ladder one level up.
        The system is counted *metastable* only past this point — the
        ladder is supposed to fire first.
    recover_windows:
        Consecutive healthy windows that step the ladder one level down.
    max_level:
        Ladder ceiling (2 = width degrade + load shed): the fleet's
        ladder has ``max_level + 1`` levels.
    width_factor:
        Stream-width multiplier applied per device at level >= 1
        (``0.5`` halves per-device admission width).
    shed_types:
        Low-priority application type names shed at level >= 2.
    per_device_rate:
        Expected *useful* kernel completions per second per healthy
        device — the capacity calibration the goodput ratio divides by.
        ``0`` leaves the probe observational (no window ever trips).
    """

    window: float = 1e-3
    floor: float = 0.5
    trip_windows: int = 2
    recover_windows: int = 2
    max_level: int = 2
    width_factor: float = 0.5
    shed_types: Tuple[str, ...] = ()
    per_device_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("floor must be in (0, 1]")
        if self.trip_windows < 1:
            raise ValueError("trip_windows must be >= 1")
        if self.recover_windows < 1:
            raise ValueError("recover_windows must be >= 1")
        if not 1 <= self.max_level <= 2:
            raise ValueError("max_level must be 1 or 2")
        if not 0.0 < self.width_factor <= 1.0:
            raise ValueError("width_factor must be in (0, 1]")
        if self.per_device_rate < 0:
            raise ValueError("per_device_rate must be >= 0")
        object.__setattr__(
            self, "shed_types", tuple(str(t) for t in self.shed_types)
        )


class MetastabilityProbe(Poller):
    """Windowed goodput-vs-capacity watcher: the ladder's goodput trigger.

    Parameters
    ----------
    env:
        Simulation environment (the probe owns one periodic process).
    config:
        :class:`BrownoutConfig` thresholds.
    healthy_devices:
        Zero-argument callable returning the current healthy device
        count (capacity shrinks with the fleet, so a domain loss does
        not by itself read as a goodput collapse).
    ladder:
        The :class:`~repro.resilience.degradation.ConcurrencyLadder` the
        probe steps one level up per tripped window run and one level
        down per recovered one; its top level is the brownout ceiling.
    journal:
        The run's fenced journal, with or without a file behind it;
        every ladder step the probe takes is recorded tokenless (a
        brownout decision is legitimate in any generation).
    """

    def __init__(
        self,
        env: "Environment",
        config: BrownoutConfig,
        healthy_devices: Callable[[], int],
        ladder: "ConcurrencyLadder",
        *,
        journal: "FencedJournal",
    ) -> None:
        super().__init__(env, config.window, "metastability-probe")
        self.config = config
        self.healthy_devices = healthy_devices
        self.ladder = ladder
        self.journal = journal
        #: Windows spent metastable (below floor *past* the trip budget).
        self.metastable_windows = 0
        #: Admissions shed because of a level-2 brownout.
        self.sheds = 0
        #: Per-window series: ``{"t", "goodput", "capacity", "ratio",
        #: "level"}`` — the recovery timeline benchmarks read.
        self.windows: List[dict] = []
        #: Journal-shaped ladder transitions (kept even without a journal).
        self.events: List[dict] = []
        self._progress = 0.0
        self._below = 0
        self._above = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MetastabilityProbe level={self.level} "
            f"windows={len(self.windows)}>"
        )

    @property
    def level(self) -> int:
        """Current brownout level: the ladder's level."""
        return self.ladder.level

    # -- signal feed -------------------------------------------------------

    def note_progress(self, kernels: float) -> None:
        """Account useful work completed inside the current window.

        Callers feed only work that can still meet its deadline — a
        kernel executed for an already-doomed attempt is amplification,
        not goodput, and counting it would hide exactly the state this
        probe exists to detect.
        """
        self._progress += kernels

    def shed_class(self, type_name: str) -> bool:
        """Whether a level-2 brownout sheds ``type_name`` right now."""
        if self.level < 2:
            return False
        if type_name not in self.config.shed_types:
            return False
        self.sheds += 1
        return True

    # -- the window evaluation ---------------------------------------------

    def tick(self) -> None:
        """Close one detection window and step the ladder if warranted."""
        cfg = self.config
        now = self.env.now
        goodput = self._progress / cfg.window
        self._progress = 0.0
        capacity = self.healthy_devices() * cfg.per_device_rate
        ratio = goodput / capacity if capacity > 0 else 1.0
        below = ratio < cfg.floor
        if below:
            self._below += 1
            self._above = 0
            if self._below > cfg.trip_windows:
                self.metastable_windows += 1
        else:
            self._above += 1
            self._below = 0
        self.windows.append(
            {
                "t": now,
                "goodput": goodput,
                "capacity": capacity,
                "ratio": ratio,
                "level": self.level,
            }
        )
        old = self.level
        if below and self._below >= cfg.trip_windows:
            level = old + 1
        elif not below and self._above >= cfg.recover_windows:
            level = old - 1
        else:
            return
        # A streak resets only when the ladder moves: at the top level
        # step_to refuses, so a collapse the ladder cannot cure keeps
        # counting metastable windows.
        if not self.ladder.step_to(level):
            return
        self._below = self._above = 0
        entry = {
            "event": "brownout",
            "level": level,
            "from": old,
            "ratio": ratio,
            "t": now,
        }
        self.events.append(dict(entry))
        # Tokenless on purpose: a ladder decision is legitimate no
        # matter which device generations advanced around it.
        self.journal.record(entry)
