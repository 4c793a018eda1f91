"""User-facing configuration for the overload-resilient serving layer.

:class:`ServingConfig` is the single knob surface for
:func:`repro.serving.run_serving`: bounded admission, SLO deadlines,
deadline-aware shedding, circuit breaking and fault injection are all
declared here, immutably, so a config object fully identifies an
experiment (it participates in the run journal's fingerprint).

A default-constructed config is *inert*: every arrival is admitted when
the dispatcher allows it and runs to completion, with no deadline, no
shedding, no breaker and no fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..resilience.faults import FaultPlan

__all__ = [
    "BreakerConfig",
    "FleetServingConfig",
    "ServingConfig",
    "QUEUE_POLICIES",
]

#: Valid backpressure policies for a full admission queue.
QUEUE_POLICIES = ("block", "reject", "shed-oldest")


@dataclass(frozen=True)
class BreakerConfig:
    """Per-app-type circuit breaker tuning.

    Attributes
    ----------
    threshold:
        Consecutive failures of one app type that open its breaker.
    cooldown:
        Nominal seconds an open breaker stays open before probing.
    jitter:
        Relative cooldown jitter: the actual open window is
        ``cooldown * (1 + jitter * u)`` with ``u ~ Uniform(-1, 1)`` drawn
        from a seeded per-type stream, so breakers for different types do
        not re-probe in lockstep (and the schedule stays reproducible).
    slow_start_initial:
        ``0`` (default) keeps the historical half-open -> closed *snap*:
        one successful probe re-admits unlimited traffic at once, which
        after a correlated outage re-ignites the very overload that
        opened the breaker.  ``> 0`` enables slow-start re-admission:
        after the probe succeeds, at most ``initial << step`` releases
        are allowed per ``slow_start_interval`` (1, 2, 4, ... for
        ``initial=1``), doubling each interval for ``slow_start_steps``
        intervals before the cap lifts.
    slow_start_interval:
        Ramp step length in simulated seconds (required positive when
        slow-start is enabled).
    slow_start_steps:
        Number of doubling intervals before traffic is unrestricted.
    """

    threshold: int = 3
    cooldown: float = 50e-3
    jitter: float = 0.1
    slow_start_initial: int = 0
    slow_start_interval: float = 0.0
    slow_start_steps: int = 3

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("breaker cooldown must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("breaker jitter must be in [0, 1)")
        if self.slow_start_initial < 0:
            raise ValueError("slow_start_initial must be >= 0")
        if self.slow_start_initial > 0 and self.slow_start_interval <= 0:
            raise ValueError(
                "slow_start_interval must be positive when slow-start "
                "is enabled"
            )
        if self.slow_start_steps < 1:
            raise ValueError("slow_start_steps must be >= 1")


@dataclass(frozen=True)
class FleetServingConfig:
    """Fleet-aware admission for the serving layer.

    Declares that the serving deployment spans ``num_devices`` devices so
    admission capacity, routing and breaker scoping react to device loss
    (``DEVICE_LOSS`` specs in the fault plan).  See
    :class:`~repro.serving.fleet_gate.FleetCapacityGate` for exactly what
    the model does — it is a capacity/routing layer over the simulated
    executor, not N executors.

    Attributes
    ----------
    num_devices:
        Devices the serving capacity is spread across.
    detection_latency:
        Seconds between a planned device loss and the serving layer
        *observing* it (capacity shrinks at the detection instant, not
        the loss instant — mirroring the fleet health monitor).
    scope_breakers:
        Scope circuit breakers per ``(device, app type)`` instead of per
        app type, so one sick device's failures do not open the breaker
        for the whole fleet.
    slow_start_window:
        ``0`` (default) lets admission capacity stay at the full
        surviving share the instant a loss is detected.  ``> 0`` ramps
        capacity after each detection: starting at ``slow_start_floor``
        of the post-loss steady capacity and rising linearly back to it
        over this many seconds, so survivors absorb the redistributed
        load gradually instead of all at once.
    slow_start_floor:
        Fraction of post-loss capacity admitted at the detection
        instant when the ramp is enabled.
    """

    num_devices: int = 1
    detection_latency: float = 2e-3
    scope_breakers: bool = True
    slow_start_window: float = 0.0
    slow_start_floor: float = 0.25

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.detection_latency < 0:
            raise ValueError("detection_latency must be >= 0")
        if self.slow_start_window < 0:
            raise ValueError("slow_start_window must be >= 0")
        if not 0.0 < self.slow_start_floor <= 1.0:
            raise ValueError("slow_start_floor must be in (0, 1]")


@dataclass(frozen=True)
class ServingConfig:
    """Everything the serving layer adds on top of a plain open-loop run.

    Attributes
    ----------
    queue_depth:
        Maximum jobs waiting for admission; ``0`` = unbounded.
    queue_policy:
        Backpressure policy when the queue is full: ``"block"`` (the
        arrival waits), ``"reject"`` (shed the new arrival) or
        ``"shed-oldest"`` (evict the queue head to make room).
    slo_factor:
        Each job's SLO deadline is ``arrival + slo_factor * baseline``
        where ``baseline`` is its type's serial-baseline runtime.  ``0``
        computes no deadlines; a deadline carried on an arrival still
        applies.
    slo_jitter:
        Relative deadline jitter, ``Uniform(-jitter, +jitter)`` scaled
        onto the SLO window per arrival (seeded; reproducible).
    baseline_runtimes:
        ``((type_name, seconds), ...)`` serial baselines, used as the
        service estimates whenever given.  ``None`` with ``slo_factor > 0``
        means measure them (one cached single-app serial run per type,
        exactly the watchdog-deadline convention of
        :mod:`repro.resilience`).
    shed_unreachable:
        Shed a job at release time when its queueing delay already makes
        the deadline unreachable (``now + baseline > deadline``).  Takes
        effect whenever baselines exist, for a list and an iterator
        alike.
    breaker:
        :class:`BreakerConfig` enabling per-app-type circuit breakers, or
        ``None``.
    plan:
        Optional :class:`~repro.resilience.FaultPlan`.  Device-level
        faults are injected as in :mod:`repro.resilience`; a
        ``HARNESS_CRASH`` spec kills the run at its arm time (see the
        journal / resume workflow in :mod:`repro.serving.journal`).
    seed:
        Seed for every serving-side random draw (SLO jitter, breaker
        cooldown jitter).
    fleet:
        Optional :class:`FleetServingConfig` making admission capacity,
        routing and breaker scoping device-aware.  ``None`` (default)
        keeps the layer single-device and byte-identical to before.
    """

    queue_depth: int = 0
    queue_policy: str = "block"
    slo_factor: float = 0.0
    slo_jitter: float = 0.0
    baseline_runtimes: Optional[Tuple[Tuple[str, float], ...]] = None
    shed_unreachable: bool = True
    breaker: Optional[BreakerConfig] = None
    plan: Optional[FaultPlan] = None
    seed: int = 0
    fleet: Optional[FleetServingConfig] = None

    def __post_init__(self) -> None:
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {self.queue_policy!r}; "
                f"choose from {QUEUE_POLICIES}"
            )
        if self.slo_factor < 0:
            raise ValueError("slo_factor must be >= 0")
        if not 0.0 <= self.slo_jitter < 1.0:
            raise ValueError("slo_jitter must be in [0, 1)")
        if self.baseline_runtimes is not None:
            object.__setattr__(
                self,
                "baseline_runtimes",
                tuple((str(n), float(t)) for n, t in self.baseline_runtimes),
            )
