"""Per-app-type circuit breakers for the serving layer.

A breaker watches one application type's terminal outcomes.  After
``threshold`` *consecutive* failures the breaker **opens**: arrivals of
that type are failed fast at release time (outcome ``"breaker-open"``)
instead of occupying a stream that injected faults will just kill again.
After a seeded-jittered cooldown the breaker goes **half-open** and lets
exactly one probe job through; a successful probe closes the breaker, a
failed probe re-opens it with a fresh cooldown draw.

The cooldown jitter is drawn from a per-type generator seeded with
``(seed, "breaker:<type>")`` via the same CRC-32 convention as
:func:`repro.resilience.retry.app_rng`, so breaker schedules are
byte-reproducible across processes and independent across app types.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..resilience.retry import app_rng
from .config import BreakerConfig

__all__ = ["BreakerState", "CircuitBreakerPanel"]


class BreakerState:
    """The three classic breaker states (string constants)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class _TypeBreaker:
    """State machine for one application type."""

    __slots__ = (
        "state",
        "consecutive_failures",
        "open_until",
        "probing",
        "rng",
        "ramp_start",
        "ramp_until",
        "ramp_step",
        "ramp_count",
    )

    def __init__(self, rng: np.random.Generator) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.probing = False
        self.rng = rng
        # Slow-start ramp after a half-open -> closed transition: while
        # ``now < ramp_until`` at most ``initial << step`` releases pass
        # per interval.  All zero when slow-start is disabled.
        self.ramp_start = 0.0
        self.ramp_until = 0.0
        self.ramp_step = -1
        self.ramp_count = 0


class CircuitBreakerPanel:
    """One circuit breaker per application type, lazily created.

    :func:`~repro.serving.run_serving` consults it at release time:
    :meth:`allow` gates release, :meth:`on_success` / :meth:`on_failure`
    feed outcomes back.
    """

    def __init__(self, config: BreakerConfig, seed: int = 0, telemetry=None) -> None:
        self.config = config
        self.seed = seed
        self._breakers: Dict[str, _TypeBreaker] = {}
        #: Times any breaker transitioned to OPEN (incl. re-opens).
        self.trips = 0
        #: Releases refused because a breaker was open.
        self.fast_fails = 0
        #: Releases deferred by a post-recovery slow-start ramp.
        self.slow_start_rejects = 0
        # Optional repro.telemetry.Telemetry: state transitions and fast
        # fails are cold events, so pushing them costs nothing on the hot
        # path and nothing at all when telemetry is None.
        self._transitions = None
        self._fast_fail_counter = None
        self._state_gauge = None
        if telemetry is not None:
            self._transitions = telemetry.counter(
                "repro_serving_breaker_transitions_total",
                "Circuit breaker state transitions",
                labelnames=("type", "to"),
            )
            self._fast_fail_counter = telemetry.counter(
                "repro_serving_breaker_fast_fails_total",
                "Releases refused while a breaker was open",
                labelnames=("type",),
            )
            self._state_gauge = telemetry.gauge(
                "repro_serving_breaker_state",
                "Breaker state (0 closed / 1 half-open / 2 open)",
                labelnames=("type",),
            )

    _STATE_SCORE = {
        BreakerState.CLOSED: 0.0,
        BreakerState.HALF_OPEN: 1.0,
        BreakerState.OPEN: 2.0,
    }

    def _note_state(self, type_name: str, state: str) -> None:
        if self._transitions is not None:
            self._transitions.inc(type=type_name, to=state)
            self._state_gauge.set(self._STATE_SCORE[state], type=type_name)

    def _get(self, type_name: str) -> _TypeBreaker:
        breaker = self._breakers.get(type_name)
        if breaker is None:
            breaker = _TypeBreaker(app_rng(self.seed, f"breaker:{type_name}"))
            self._breakers[type_name] = breaker
        return breaker

    def _open(self, type_name: str, breaker: _TypeBreaker, now: float) -> None:
        cfg = self.config
        u = 2.0 * float(breaker.rng.random()) - 1.0
        breaker.state = BreakerState.OPEN
        breaker.open_until = now + cfg.cooldown * (1.0 + cfg.jitter * u)
        breaker.probing = False
        breaker.ramp_until = 0.0
        self.trips += 1
        self._note_state(type_name, BreakerState.OPEN)

    # -- engine-facing surface --------------------------------------------

    def allow(self, type_name: str, now: float) -> bool:
        """Whether a job of ``type_name`` may be released at ``now``."""
        breaker = self._get(type_name)
        if breaker.state == BreakerState.CLOSED:
            if now < breaker.ramp_until:
                # Slow-start: the breaker just recovered; re-admit
                # 1x, 2x, 4x... per interval instead of snapping to
                # full concurrency on one good probe.
                cfg = self.config
                step = int(
                    (now - breaker.ramp_start) / cfg.slow_start_interval
                )
                if step != breaker.ramp_step:
                    breaker.ramp_step = step
                    breaker.ramp_count = 0
                cap = cfg.slow_start_initial << step
                if breaker.ramp_count >= cap:
                    self.slow_start_rejects += 1
                    self.fast_fails += 1
                    if self._fast_fail_counter is not None:
                        self._fast_fail_counter.inc(type=type_name)
                    return False
                breaker.ramp_count += 1
            return True
        if breaker.state == BreakerState.OPEN and now >= breaker.open_until:
            # Cooldown elapsed: half-open, admit exactly one probe.
            breaker.state = BreakerState.HALF_OPEN
            breaker.probing = True
            self._note_state(type_name, BreakerState.HALF_OPEN)
            return True
        # OPEN within cooldown, or HALF_OPEN with the probe still in
        # flight: fail fast.
        self.fast_fails += 1
        if self._fast_fail_counter is not None:
            self._fast_fail_counter.inc(type=type_name)
        return False

    def on_success(self, type_name: str, now: float) -> None:
        """A job of ``type_name`` completed cleanly at ``now``."""
        breaker = self._get(type_name)
        breaker.consecutive_failures = 0
        if breaker.state == BreakerState.HALF_OPEN:
            breaker.state = BreakerState.CLOSED
            breaker.probing = False
            cfg = self.config
            if cfg.slow_start_initial > 0:
                breaker.ramp_start = now
                breaker.ramp_until = (
                    now + cfg.slow_start_steps * cfg.slow_start_interval
                )
                breaker.ramp_step = -1
                breaker.ramp_count = 0
            self._note_state(type_name, BreakerState.CLOSED)

    def on_failure(self, type_name: str, now: float) -> None:
        """A job of ``type_name`` died with a fault at ``now``."""
        breaker = self._get(type_name)
        breaker.consecutive_failures += 1
        if breaker.state == BreakerState.HALF_OPEN:
            # The probe itself failed: straight back to OPEN.
            self._open(type_name, breaker, now)
        elif (
            breaker.state == BreakerState.CLOSED
            and breaker.consecutive_failures >= self.config.threshold
        ):
            self._open(type_name, breaker, now)

    # -- introspection -----------------------------------------------------

    def state(self, type_name: str) -> str:
        """Current state of ``type_name``'s breaker (CLOSED if unseen)."""
        breaker = self._breakers.get(type_name)
        return breaker.state if breaker is not None else BreakerState.CLOSED

    def states(self) -> Dict[str, str]:
        """Snapshot of every instantiated breaker's state."""
        return {name: b.state for name, b in sorted(self._breakers.items())}
