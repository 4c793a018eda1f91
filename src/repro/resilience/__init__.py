"""Fault injection and resilience for the Hyper-Q harness.

The paper measures how concurrency (NS) trades performance against power
on a healthy device.  This package asks the operational follow-up: what
happens to a shared, concurrency-saturated GPU when things go *wrong* —
and gives the harness the machinery production serving stacks use to
survive it:

* deterministic, seeded **fault injection** (:mod:`~repro.resilience.faults`):
  kernel hangs, transient launch failures, DMA stalls, power-sensor
  dropouts, armed at planned simulated timestamps;
* a **watchdog** (:mod:`~repro.resilience.watchdog`) that cancels
  applications exceeding a multiple of their serial-baseline runtime;
* per-application **retry with exponential backoff**
  (:mod:`~repro.resilience.retry`), seed-jittered and reproducible;
* **graceful concurrency degradation**
  (:mod:`~repro.resilience.degradation`): one concurrency ladder that
  steps NS down toward the paper's serialized baseline, moved by fault
  density here and by goodput collapse in the fleet;
* supervision (:mod:`~repro.resilience.supervisor`) and configuration /
  accounting (:mod:`~repro.resilience.config`) gluing it together.

Everything is off by default: with no :class:`ResilienceConfig` the
harness takes its original code paths and produces byte-identical
results.  See ``docs/resilience.md`` for the full model.
"""

from .budget import RetryBudget, RetryBudgetConfig, unfinishable
from .config import ResilienceConfig, ResilienceSummary
from .degradation import ConcurrencyLadder, ConcurrencyLimiter
from .faults import (
    CORRELATED_KINDS,
    GRAY_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRecord,
    FaultSpec,
)
from .gray import HealthScore, StragglerDetector
from .metastable import BrownoutConfig, MetastabilityProbe
from .retry import RetryPolicy, app_rng, replica_rng
from .supervisor import AppSupervisor
from .watchdog import Watchdog, WatchdogGuard

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultRecord",
    "FaultPlan",
    "FaultInjector",
    "GRAY_KINDS",
    "CORRELATED_KINDS",
    "RetryBudget",
    "RetryBudgetConfig",
    "unfinishable",
    "BrownoutConfig",
    "MetastabilityProbe",
    "HealthScore",
    "StragglerDetector",
    "RetryPolicy",
    "app_rng",
    "replica_rng",
    "Watchdog",
    "WatchdogGuard",
    "ConcurrencyLimiter",
    "ConcurrencyLadder",
    "AppSupervisor",
    "ResilienceConfig",
    "ResilienceSummary",
]
