"""Health monitoring: heartbeats, seeded detection latency, classification.

The monitor is the fleet's *observability* path, deliberately separate from
ground truth: the registry knows the instant a device dies, but the system
only reacts when the monitor's missed-heartbeat budget runs out.  Every
``heartbeat_interval`` the monitor polls each device's heartbeat (liveness
flag + board power, the same signals a real fleet scrapes from NVML/DCGM)
and classifies it:

* **healthy** — alive, no throttle window open, not a straggler;
* **degraded** — alive but inside a planned ``DEVICE_THROTTLE`` window
  (asked of the device's own fault injector), *or* classified a
  straggler by the attached
  :class:`~repro.resilience.gray.StragglerDetector` (graded health score
  under threshold) — the gray-failure path heartbeats alone can't see;
* **lost** — heartbeats have been missing for at least
  ``detection_latency + jitter``; the coordinator is notified *once*, at
  the declaring tick, and failover begins.

The per-device jitter is drawn from a generator seeded with
``(seed, crc32("fleet-health"), device_index)`` so detection timing is
reproducible run-to-run and independent of everything else in the
simulation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from ..sim.process import Poller
from .registry import DeviceRegistry, DeviceState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.gray import HealthScore, StragglerDetector
    from ..sim.engine import Environment

__all__ = ["HealthEvent", "HealthMonitor"]


@dataclass(frozen=True)
class HealthEvent:
    """One observed state transition."""

    time: float
    device: int
    old_state: str
    new_state: str
    detail: str = ""


class HealthMonitor(Poller):
    """Polls device heartbeats and declares losses after a seeded delay."""

    def __init__(
        self,
        env: "Environment",
        registry: DeviceRegistry,
        *,
        interval: float = 1e-3,
        detection_latency: float = 2e-3,
        detection_jitter: float = 0.5e-3,
        seed: int = 0,
        on_lost: Optional[Callable[[int, float], None]] = None,
        detector: Optional["StragglerDetector"] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        super().__init__(env, interval, "fleet-health-monitor")
        self.registry = registry
        self.on_lost = on_lost
        #: Optional straggler detector; when attached, its graded score
        #: feeds the degraded/healthy classification alongside the
        #: plan-known throttle windows.  ``None`` keeps the monitor's
        #: pre-gray behaviour bit-for-bit.
        self.detector = detector
        self.events: List[HealthEvent] = []
        self.heartbeats_read: int = 0
        self.missed_heartbeats: Dict[int, int] = {}
        #: Per-device detection delay: base latency + seeded jitter.
        self.detect_delay: Dict[int, float] = {}
        for device in registry:
            rng = np.random.default_rng(
                [seed, zlib.crc32(b"fleet-health"), device.index]
            )
            jitter = (
                detection_jitter * float(rng.random())
                if detection_jitter > 0
                else 0.0
            )
            self.detect_delay[device.index] = detection_latency + jitter
        #: Last classification the monitor *observed* per device.
        self._observed: Dict[int, DeviceState] = {
            d.index: DeviceState.HEALTHY for d in registry
        }

    def observed_state(self, index: int) -> DeviceState:
        """The monitor's current belief about one device."""
        return self._observed[index]

    def scores(self) -> Dict[int, "HealthScore"]:
        """Graded per-device health scores (empty with no detector)."""
        if self.detector is None:
            return {}
        return self.detector.scores()

    # -- polling -----------------------------------------------------------

    def tick(self) -> None:
        """Read every device's heartbeat once and reclassify it."""
        now = self.env.now
        for device in self.registry:
            seen = self._observed[device.index]
            if seen is DeviceState.LOST:
                continue  # terminal; nothing more to observe
            beat = device.heartbeat(now)
            self.heartbeats_read += 1
            if not beat["alive"]:
                self.missed_heartbeats[device.index] = (
                    self.missed_heartbeats.get(device.index, 0) + 1
                )
                deadline = device.loss_time + self.detect_delay[device.index]
                if now >= deadline:
                    self._transition(
                        device.index,
                        seen,
                        DeviceState.LOST,
                        f"no heartbeat since t={device.loss_time:.6g}s",
                    )
                    device.detected_time = now
                    if self.on_lost is not None:
                        self.on_lost(device.index, now)
                continue
            throttled = (
                device.injector is not None
                and device.injector.throttle_active(now)
            )
            straggling = (
                self.detector is not None
                and self.detector.is_straggler(device.index)
            )
            wanted = (
                DeviceState.DEGRADED
                if throttled or straggling
                else DeviceState.HEALTHY
            )
            if wanted is not seen:
                if wanted is DeviceState.DEGRADED:
                    detail = (
                        "throttle window"
                        if throttled
                        else self.detector.score(device.index).describe()
                    )
                else:
                    detail = "degradation cleared"
                self._transition(device.index, seen, wanted, detail)
                # Observed degradation is also the registry's public
                # state (the registry owns only the lost/alive truth).
                device.state = wanted

    def _transition(
        self, index: int, old: DeviceState, new: DeviceState, detail: str
    ) -> None:
        self._observed[index] = new
        self.events.append(
            HealthEvent(
                time=self.env.now,
                device=index,
                old_state=old.value,
                new_state=new.value,
                detail=detail,
            )
        )
