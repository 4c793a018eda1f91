"""Fleet-aware admission capacity, routing and breaker scoping.

The serving engine simulates *one* executor; a serving deployment spans
several devices.  :class:`FleetCapacityGate` closes that gap as a pure
capacity/routing model layered over the engine:

* **capacity** — the deployment's admission capacity is the stream budget
  spread evenly across devices; when a device loss is *detected* (loss
  instant + ``detection_latency``, mirroring the fleet health monitor)
  the in-flight ceiling shrinks proportionally.  Work already running is
  never killed — the model constrains what is *admitted*, matching how a
  load balancer reacts to a node dropping out of its healthy set.
* **routing** — each admitted job is stamped with a device index, drawn
  by *smooth weighted round-robin* over per-device health weights: a lost
  device weighs 0, a device inside a planned ``DEVICE_THROTTLE`` window
  weighs ``1/factor`` (the graded health score a straggler detector would
  assign it — running ``factor`` times slower earns ``factor`` times less
  traffic), everything else weighs 1.  With uniform weights the sequence
  degenerates to plain round-robin, so fault-free routing is unchanged.
* **breaker scoping** — breaker keys become ``dev<i>:<type>`` so one sick
  device's failures fail fast only on that device, instead of opening
  the breaker for an app type fleet-wide.

Everything is deterministic: loss/detection/throttle instants come from
the fault plan, and the routing credits advance in admission order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..resilience.faults import FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..framework.metrics import AppRecord
    from .config import FleetServingConfig

__all__ = ["FleetCapacityGate"]


class FleetCapacityGate:
    """Device-aware admission capacity for the serving layer."""

    def __init__(
        self,
        num_devices: int,
        num_streams: int,
        *,
        detection_latency: float = 2e-3,
        loss_times: Optional[Mapping[int, float]] = None,
        throttle_windows: Optional[
            Mapping[int, Sequence[Tuple[float, float, float]]]
        ] = None,
        scope_breakers: bool = True,
        slow_start_window: float = 0.0,
        slow_start_floor: float = 0.25,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if num_streams < 1:
            raise ValueError("num_streams must be >= 1")
        self.num_devices = num_devices
        self.num_streams = num_streams
        self.scope_breakers = scope_breakers
        self.slow_start_window = slow_start_window
        self.slow_start_floor = slow_start_floor
        #: device index -> absolute instant its loss is *detected*.
        self.detect_times: Dict[int, float] = {
            int(dev) % num_devices: t + detection_latency
            for dev, t in (loss_times or {}).items()
        }
        #: device index -> ``(start, end, factor)`` throttle windows; a
        #: device inside one is *degraded* (weight ``1/factor``), not dead.
        self.throttle_windows: Dict[int, List[Tuple[float, float, float]]] = {
            int(dev) % num_devices: sorted(windows)
            for dev, windows in (throttle_windows or {}).items()
        }
        #: Smooth-weighted-round-robin credits, advanced per admission.
        self._credits: List[float] = [0.0] * num_devices
        self.admitted_per_device: Dict[int, int] = {
            i: 0 for i in range(num_devices)
        }

    @classmethod
    def from_plan(
        cls,
        fleet: "FleetServingConfig",
        num_streams: int,
        plan: Optional[FaultPlan],
    ) -> "FleetCapacityGate":
        """Build a gate from a config plus a fault plan's device specs.

        Only each device's *first* loss matters (a device dies once);
        every ``DEVICE_THROTTLE`` window feeds the graded routing weights.
        """
        loss_times: Dict[int, float] = {}
        throttles: Dict[int, List[Tuple[float, float, float]]] = {}
        if plan is not None:
            for spec in plan:
                if spec.kind is FaultKind.DEVICE_LOSS:
                    dev = spec.effective_device % fleet.num_devices
                    if dev not in loss_times or spec.time < loss_times[dev]:
                        loss_times[dev] = spec.time
                elif spec.kind is FaultKind.DEVICE_THROTTLE:
                    dev = spec.effective_device % fleet.num_devices
                    throttles.setdefault(dev, []).append(
                        (spec.time, spec.time + spec.duration, spec.factor)
                    )
        return cls(
            fleet.num_devices,
            num_streams,
            detection_latency=fleet.detection_latency,
            loss_times=loss_times,
            throttle_windows=throttles,
            scope_breakers=fleet.scope_breakers,
            slow_start_window=fleet.slow_start_window,
            slow_start_floor=fleet.slow_start_floor,
        )

    # -- health ------------------------------------------------------------

    def device_lost(self, index: int, now: float) -> bool:
        """Whether ``index``'s loss has been detected by ``now``."""
        detect = self.detect_times.get(index)
        return detect is not None and now >= detect

    def healthy_devices(self, now: float) -> List[int]:
        """Devices in the healthy set at ``now`` (detection-based)."""
        return [
            i for i in range(self.num_devices) if not self.device_lost(i, now)
        ]

    def devices_lost(self, now: float) -> int:
        """Number of devices whose loss has been detected by ``now``."""
        return self.num_devices - len(self.healthy_devices(now))

    # -- admission ---------------------------------------------------------

    def capacity(self, now: float) -> int:
        """In-flight ceiling at ``now``: the surviving share of streams.

        Never below 1: even a fleet reduced to its last device keeps
        serving (matching the degraded-but-alive philosophy of the
        dispatchers' starvation guard).

        With ``slow_start_window > 0`` the ceiling does not jump to the
        full surviving share the instant a loss is detected: it starts at
        ``slow_start_floor`` of the post-loss steady value and rises
        linearly over the window, so the survivors absorb redistributed
        load gradually instead of in one step.
        """
        healthy = len(self.healthy_devices(now))
        steady = self.num_streams * healthy / self.num_devices
        if self.slow_start_window > 0:
            latest = max(
                (t for t in self.detect_times.values() if t <= now),
                default=None,
            )
            if latest is not None and now < latest + self.slow_start_window:
                progress = (now - latest) / self.slow_start_window
                floor = self.slow_start_floor
                steady *= floor + (1.0 - floor) * progress
        return max(1, math.ceil(steady))

    def may_admit(self, in_flight: int, now: float) -> bool:
        """Whether another job fits under the current fleet capacity."""
        return in_flight < self.capacity(now)

    def throttle_factor(self, index: int, now: float) -> float:
        """Slowdown factor of ``index``'s open throttle window (1.0 = none)."""
        for start, end, factor in self.throttle_windows.get(index, ()):
            if start <= now < end:
                return factor
        return 1.0

    def health_weight(self, index: int, now: float) -> float:
        """Graded routing weight of one device at ``now``.

        0 for a (detected) lost device; ``1/factor`` inside a throttle
        window — the same "how much slower than the fleet" number a
        straggler detector's :class:`~repro.resilience.gray.HealthScore`
        grades a gray-degraded device with; 1.0 at full health.
        """
        if self.device_lost(index, now):
            return 0.0
        factor = self.throttle_factor(index, now)
        return 1.0 / factor if factor > 1.0 else 1.0

    def route(self, now: float) -> int:
        """Pick the device for the job being admitted.

        Smooth weighted round-robin (the nginx algorithm) over the
        per-device health weights: every admission adds each device's
        weight to its credit, the highest credit wins (lowest index on
        ties), and the winner pays back the total weight.  Uniform
        weights reproduce plain round-robin exactly; a half-weight
        (throttled) device is interleaved at half rate instead of being
        hammered equally while it crawls.  Falls back to device 0 when
        every device is lost (the capacity floor of 1 still admits, like
        a last-resort node).
        """
        weights = [
            self.health_weight(i, now) for i in range(self.num_devices)
        ]
        total = sum(weights)
        if total <= 0.0:
            self.admitted_per_device[0] += 1
            return 0
        best = -1
        for i, w in enumerate(weights):
            if w <= 0.0:
                continue
            self._credits[i] += w
            if best < 0 or self._credits[i] > self._credits[best] + 1e-12:
                best = i
        self._credits[best] -= total
        self.admitted_per_device[best] += 1
        return best

    # -- breaker scoping ---------------------------------------------------

    def breaker_key(self, record: "AppRecord") -> str:
        """Circuit-breaker scope for a routed job."""
        if self.scope_breakers:
            return f"dev{record.device_index}:{record.type_name}"
        return record.type_name
