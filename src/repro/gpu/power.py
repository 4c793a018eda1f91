"""Board-level power model with exact energy integration.

The paper measures GPU power through NVML's on-board sensor and observes
(Section III-D / V-D) that power consumption grows only *slightly* with the
number of concurrent streams, so reducing makespan reduces energy.  The
model here reproduces that shape:

``P = idle + context_active·[any work in flight]
       + smx_dynamic_max · occupancy^alpha + dma_active · (busy copy engines)``

with ``alpha < 1`` (``PowerSpec.concurrency_exponent``): doubling the number
of resident threads raises dynamic power by well under 2x, the
lack-of-energy-proportionality the paper's introduction leads with.

The model is piecewise-constant: the device calls :meth:`update` with its
live activity counts (resident threads, busy copy engines, any command in
flight, active streams) on every occupancy/DMA/stream state change, and
energy is the exact integral of the recorded segments.  :meth:`evaluate`
over a :class:`PowerState` is the reference formula; :meth:`update` gives
the same watts bit for bit, with the dynamic term cached per
resident-thread count so the hot path allocates nothing.  The paper's
*measurement procedure* (sampling the sensor at 15 ms / 66.7 Hz) lives in
:class:`repro.framework.power_monitor.PowerMonitor`, which samples this
model; tests compare the sampled estimate against the exact integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.engine import Environment
from .specs import PowerSpec

__all__ = ["PowerModel", "PowerState"]


@dataclass(frozen=True)
class PowerState:
    """Inputs to the power formula at one instant."""

    occupancy: float      # resident threads / device capacity, [0, 1]
    dma_busy: int         # busy copy engines (0..2)
    any_active: bool      # any command in flight anywhere
    active_streams: int = 0  # streams with at least one command in flight

    def __post_init__(self) -> None:
        if not 0.0 <= self.occupancy <= 1.0 + 1e-9:
            raise ValueError(f"occupancy {self.occupancy} outside [0, 1]")
        if self.dma_busy < 0 or self.active_streams < 0:
            raise ValueError("negative activity counts")


class PowerModel:
    """Piecewise-constant instantaneous power with exact integration.

    ``thread_capacity`` is the device's resident-thread ceiling; it turns
    the resident-thread count given to :meth:`update` into occupancy.
    """

    def __init__(
        self, env: Environment, spec: PowerSpec, thread_capacity: int
    ) -> None:
        if thread_capacity <= 0:
            raise ValueError("thread_capacity must be positive")
        self.env = env
        self.spec = spec
        self.thread_capacity = thread_capacity
        # resident threads -> smx_dynamic_max * occupancy ** alpha
        self._dynamic: Dict[int, float] = {}
        self._segments: List[Tuple[float, float]] = []  # (start_time, watts)
        self._current_power: float = self.evaluate(
            PowerState(occupancy=0.0, dma_busy=0, any_active=False)
        )
        self._last_change: float = env.now
        self._energy_before: float = 0.0  # J accumulated in closed segments
        self.peak_power: float = self._current_power
        #: Keep the full segment history.  The fleet keeps it: its
        #: per-device energy windows end at the loss instant, in the
        #: past.  A harness cell reads its window as two snapshots of
        #: the running integral, and a bounded-memory serving run keeps
        #: aggregates only, so both flip this off.  The running integral
        #: stays exact, but retrospective ``energy(until<now)`` /
        #: ``segments()`` queries need the history and raise instead of
        #: silently lying.
        self.retain_segments: bool = True

    # -- formula -----------------------------------------------------------

    def evaluate(self, state: PowerState) -> float:
        """Instantaneous board power (W) for ``state``."""
        s = self.spec
        power = s.idle
        if state.any_active:
            power += s.context_active
        if state.occupancy > 0.0:
            power += s.smx_dynamic_max * state.occupancy ** s.concurrency_exponent
        power += s.dma_active * state.dma_busy
        # Each concurrently active stream keeps front-end/driver machinery
        # busy: the per-stream increment behind the paper's "power
        # consumption increases slightly as the number of streams increases".
        power += s.stream_active * state.active_streams
        return min(power, s.tdp)

    # -- state updates -------------------------------------------------------

    def _dynamic_term(self, resident_threads: int) -> float:
        occupancy = min(resident_threads / self.thread_capacity, 1.0)
        if occupancy < 0.0:
            raise ValueError(f"occupancy {occupancy} outside [0, 1]")
        s = self.spec
        term = s.smx_dynamic_max * occupancy ** s.concurrency_exponent
        self._dynamic[resident_threads] = term
        return term

    def update(
        self,
        resident_threads: int,
        dma_busy: int,
        any_active: bool,
        active_streams: int,
    ) -> None:
        """Record the device's activity counts at the current simulated time.

        The new power is exactly ``evaluate(PowerState(occupancy=
        min(resident_threads / thread_capacity, 1.0), ...))``: the same
        float operations in the same order.  Every call is evaluated, and
        :attr:`peak_power` counts same-instant transients.  So a caller
        may drop an update only when its power is no higher than the
        current power, and the next update, at the same instant, gives
        no more than it.  Dropping it then moves no segment, energy or
        peak value.  The peak already holds the current power.  At one
        instant, the first update that differs from the power the
        instant opened with closes the open segment, and later ones only
        replace the new segment's power.  Had the dropped update been
        that first one, the current power is still the opening power,
        so the next update, below it too, closes the segment at the
        same instant.  The device's inline settle of a finished kernel
        launch drops the grid engine's update this way.
        """
        if dma_busy < 0 or active_streams < 0:
            raise ValueError("negative activity counts")
        s = self.spec
        new_power = s.idle
        if any_active:
            new_power += s.context_active
        if resident_threads:
            try:
                new_power += self._dynamic[resident_threads]
            except KeyError:
                new_power += self._dynamic_term(resident_threads)
        new_power += s.dma_active * dma_busy
        new_power += s.stream_active * active_streams
        if s.tdp < new_power:
            new_power = s.tdp
        if new_power == self._current_power:
            return
        now = self.env._now
        dt = now - self._last_change
        if dt > 0:
            if self.retain_segments:
                self._segments.append((self._last_change, self._current_power))
            self._energy_before += self._current_power * dt
        self._current_power = new_power
        self._last_change = now
        if new_power > self.peak_power:
            self.peak_power = new_power

    # -- queries ---------------------------------------------------------------

    @property
    def current_power(self) -> float:
        """Instantaneous power right now (W)."""
        return self._current_power

    def energy(self, until: Optional[float] = None) -> float:
        """Exact energy (J) consumed from t=0 to ``until`` (default: now).

        At or after the last power change this is the running integral,
        which makes the same float additions, in the same order, as the
        walk over the history for an earlier ``until``.  So a snapshot
        taken at ``t`` equals ``energy(t)`` asked later, bit for bit; an
        update at ``t`` itself moves neither.  Only an ``until`` before
        the last change needs the history (:attr:`retain_segments`).
        """
        t = self.env.now if until is None else until
        if t < self._last_change:
            if not self.retain_segments:
                raise RuntimeError(
                    "energy(until=<past>) needs the segment history, which "
                    "this model does not retain (retain_segments=False)"
                )
            # Integrate only closed segments up to t.
            total = 0.0
            segs = self._segments + [(self._last_change, self._current_power)]
            for (start, watts), (next_start, _) in zip(segs, segs[1:]):
                if next_start <= t:
                    total += watts * (next_start - start)
                elif start < t:
                    total += watts * (t - start)
            return total
        return self._energy_before + self._current_power * (t - self._last_change)

    def average_power(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Mean power over [t0, t1] (J integral / duration)."""
        t1 = self.env.now if t1 is None else t1
        if t1 <= t0:
            return self._current_power
        return (self.energy(t1) - self.energy(t0)) / (t1 - t0)

    def segments(self) -> List[Tuple[float, float]]:
        """Closed (start_time, watts) segments plus the open tail."""
        if not self.retain_segments:
            raise RuntimeError(
                "segment history not retained (retain_segments=False)"
            )
        return self._segments + [(self._last_change, self._current_power)]
