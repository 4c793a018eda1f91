"""Arrival-driven serving: the paper's streaming-workload extension.

The paper frames its harness as the substrate for "intelligent scheduler
algorithms to ... manage streaming workloads".  This package holds the
one open-loop engine, :func:`run_serving`: arrivals
(:func:`poisson_arrivals` or a :mod:`repro.workload` stream) are admitted
by an online dispatcher (greedy, concurrency cap or power cap; see
:mod:`repro.serving.dispatch`), and the engine stays survivable under
overload and faults:

* **Bounded admission** — a finite queue with a backpressure policy
  (block / reject / shed-oldest) instead of the implicit unbounded FIFO.
* **Deadline-aware load shedding** — every arrival carries a seeded SLO
  deadline derived from its type's serial-baseline runtime; jobs whose
  queueing delay already makes the deadline unreachable are shed, and
  *goodput* (in-SLO completions per second) is reported separately from
  raw throughput.
* **Circuit breakers** — per app type, opening after K consecutive
  faults, failing fast while open, half-open probe after a seeded-jitter
  cooldown.
* **Crash-safe journaling** — every terminal outcome is an fsynced JSONL
  line; a run killed mid-flight (the ``harness_crash`` fault kind)
  resumes by deterministic replay, verified entry-by-entry against the
  journal, reproducing the uninterrupted run byte-for-byte.
* **Fleet-aware admission** — with a :class:`FleetServingConfig`,
  admission capacity shrinks when a device loss is detected, jobs are
  routed round-robin across surviving devices, and circuit breakers are
  scoped per device (see :class:`FleetCapacityGate` and
  :mod:`repro.fleet` for the full multi-device harness).

Entry point: :func:`run_serving`.  See ``docs/serving.md`` and
``docs/fleet.md``.
"""

from .breaker import BreakerState, CircuitBreakerPanel
from .config import (
    QUEUE_POLICIES,
    BreakerConfig,
    FleetServingConfig,
    ServingConfig,
)
from .dispatch import (
    AdmissionStallWarning,
    Arrival,
    ConcurrencyCapDispatcher,
    Dispatcher,
    GreedyDispatcher,
    PowerCapDispatcher,
    poisson_arrivals,
)
from .fleet_gate import FleetCapacityGate
from .journal import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    LEGACY_JOURNAL_VERSION,
    JournalError,
    JournalMismatchError,
    RunJournal,
)
from .service import (
    SHED_OUTCOMES,
    BatchedServingResult,
    BatchOutcome,
    ServingResult,
    measure_service_baselines,
    run_batched_serving,
    run_serving,
)

__all__ = [
    "AdmissionStallWarning",
    "Arrival",
    "BatchOutcome",
    "BatchedServingResult",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreakerPanel",
    "ConcurrencyCapDispatcher",
    "Dispatcher",
    "FleetCapacityGate",
    "FleetServingConfig",
    "GreedyDispatcher",
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "LEGACY_JOURNAL_VERSION",
    "JournalError",
    "JournalMismatchError",
    "PowerCapDispatcher",
    "QUEUE_POLICIES",
    "RunJournal",
    "SHED_OUTCOMES",
    "ServingConfig",
    "ServingResult",
    "measure_service_baselines",
    "poisson_arrivals",
    "run_batched_serving",
    "run_serving",
]
