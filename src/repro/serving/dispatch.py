"""Arrivals and online admission policies for :func:`repro.serving.run_serving`.

The paper's conclusion: "We envision designing intelligent scheduler
algorithms to support energy efficient execution or manage streaming
workloads, rather than a finite set."  Here applications *arrive over
time* (a seeded Poisson process over a type mix, or a
:mod:`repro.workload` traffic stream) and an online :class:`Dispatcher`
policy decides when to admit each arrival to a stream:

* :class:`GreedyDispatcher` — admit immediately on the next stream
  (round-robin); maximum concurrency, the throughput-first policy.
* :class:`ConcurrencyCapDispatcher` — admit only while fewer than ``cap``
  applications are in flight; queue otherwise (FIFO).  ``cap=1`` recovers
  serialized execution, ``cap=NS`` the greedy policy.
* :class:`PowerCapDispatcher` — admit only while the board's sampled power
  is below a wattage budget; the "energy efficient execution" objective.

**Queue fairness.**  Queued arrivals are released *strictly FIFO by
arrival time*: whenever the dispatcher frees a slot, the queued job with
the smallest ``(arrival.time, arrival.index)`` key is admitted next, even
if a later arrival finished its host-side preparation earlier.  Ties in
arrival time are broken deterministically by arrival index, so two runs of
the same trace always release jobs in the same order.

**Starvation guard.**  A dispatcher may carry a ``stall_timeout``: if the
head-of-line job has waited that long without the admission condition ever
holding (e.g. a power budget the board never gets under), the engine emits
an :class:`AdmissionStallWarning` and releases the job anyway, so a
mis-sized budget degrades to slow progress instead of queueing forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AdmissionStallWarning",
    "Arrival",
    "ConcurrencyCapDispatcher",
    "Dispatcher",
    "GreedyDispatcher",
    "PowerCapDispatcher",
    "poisson_arrivals",
]


class AdmissionStallWarning(RuntimeWarning):
    """A dispatcher's admission condition never held within its timeout.

    Emitted by :func:`~repro.serving.run_serving` when a head-of-line job
    is released by the starvation guard rather than by the dispatcher.
    """


@dataclass(frozen=True)
class Arrival:
    """One job of an arrival trace.

    The last four fields are the multi-tenant extension used by
    :mod:`repro.workload`; their defaults are inert, so traces built by
    :func:`poisson_arrivals` behave — and fingerprint — exactly as
    single-tenant traces.

    Attributes
    ----------
    tenant:
        Tenant-class name, or ``""`` outside multi-tenant traffic.
    tenant_id:
        Sub-tenant index within the class (seeded popularity draw).
    deadline:
        Absolute SLO deadline carried *on the arrival* (seconds); ``0``
        means none.  Used only when the serving layer does not compute a
        deadline table of its own.
    priority:
        Tenant-class priority (higher = more important); informational.
    """

    index: int
    time: float
    type_name: str
    tenant: str = ""
    tenant_id: int = 0
    deadline: float = 0.0
    priority: int = 0


def poisson_arrivals(
    rate: float,
    duration: float,
    type_mix: Sequence[Tuple[str, float]],
    seed: int = 0,
) -> List[Arrival]:
    """A seeded Poisson arrival trace over a weighted type mix.

    Parameters
    ----------
    rate:
        Mean arrivals per second.
    duration:
        Trace length in (simulated) seconds.
    type_mix:
        ``[(type_name, weight), ...]``; weights are normalized.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    names = [n for n, _ in type_mix]
    weights = np.array([w for _, w in type_mix], dtype=float)
    if weights.sum() <= 0:
        raise ValueError("type mix weights must sum to > 0")
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    arrivals: List[Arrival] = []
    t = 0.0
    index = 0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            break
        name = names[rng.choice(len(names), p=weights)]
        arrivals.append(Arrival(index=index, time=t, type_name=name))
        index += 1
    return arrivals


class Dispatcher:
    """Base class for online admission policies.

    Subclasses implement :meth:`may_admit`, consulted whenever a job is at
    the head of the queue; the engine re-consults after every completion
    (and, for power capping, every sensor sample).

    ``stall_timeout`` (seconds, ``None`` = never) bounds how long the
    head-of-line job may wait for the admission condition; see the module
    docstring's starvation guard.
    """

    name = "dispatcher"
    stall_timeout: Optional[float] = None

    def may_admit(self, in_flight: int, power_watts: float) -> bool:  # pragma: no cover
        """Whether the head-of-queue job may start now."""
        raise NotImplementedError


class GreedyDispatcher(Dispatcher):
    """Admit everything immediately (throughput-first)."""

    name = "greedy"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return True


class ConcurrencyCapDispatcher(Dispatcher):
    """At most ``cap`` applications in flight.

    Queued arrivals are released strictly FIFO by arrival time with ties
    broken by arrival index (see the module docstring); the cap bounds
    *concurrency*, never reorders the queue.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.name = f"cap-{cap}"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return in_flight < self.cap


class PowerCapDispatcher(Dispatcher):
    """Admit only while sampled board power is under ``watts``.

    A budget below the board's active floor would otherwise serialize the
    queue behind every in-flight drain (the head waits for the device to go
    fully idle before each admission).  ``stall_timeout`` bounds that wait:
    after ``stall_timeout`` seconds the head-of-line job is released anyway
    and an :class:`AdmissionStallWarning` is emitted.  ``None`` (default)
    preserves the original queue-forever behaviour.
    """

    def __init__(self, watts: float, stall_timeout: Optional[float] = None) -> None:
        if watts <= 0:
            raise ValueError("watts must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        self.watts = watts
        self.stall_timeout = stall_timeout
        self.name = f"power-cap-{watts:.0f}W"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return in_flight == 0 or power_watts < self.watts
