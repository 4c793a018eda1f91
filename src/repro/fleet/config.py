"""Fleet configuration: how many devices, how failure is detected, how
apps migrate.

:class:`FleetConfig` is frozen and hashable like every other configuration
object in the repository, so it can ride inside
:class:`~repro.core.runner.RunConfig` and participate in cache keys.
Everything defaults to the *safe* single-device behaviour; the fleet layer
only changes results when a config with ``num_devices > 1`` (or a plan with
device faults) is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..resilience.budget import RetryBudgetConfig
from ..resilience.metastable import BrownoutConfig
from ..resilience.retry import RetryPolicy
from .topology import TopologyConfig

__all__ = [
    "FleetConfig",
    "HedgeConfig",
    "StormControlConfig",
    "PLACEMENT_POLICIES",
]

#: App->device placement policies (mirroring the stream-assignment ones).
PLACEMENT_POLICIES = ("round-robin", "least-loaded")


@dataclass(frozen=True)
class HedgeConfig:
    """Parameters of gray-failure mitigation (straggler detection + hedging).

    Attached to :class:`FleetConfig` as ``hedging``; ``None`` (the
    default) keeps the whole gray path off — no detector, no hedge
    manager, byte-identical results.

    Attributes
    ----------
    check_interval:
        How often the hedge manager scans running apps for straggler
        placement (simulated seconds).
    straggler_score:
        Devices whose :class:`~repro.resilience.gray.HealthScore` falls
        strictly below this are stragglers (graded, not binary).
    min_samples:
        Observations a device must accumulate before it can be
        classified (passed to the detector).
    ema_alpha / window:
        Detector EMA blend weight and p95 window (see
        :class:`~repro.resilience.gray.StragglerDetector`).
    min_remaining_kernels:
        Never hedge an app with less remaining work than this — a
        speculative replica must have enough runway to win.
    budget_fraction:
        Per-batch duplicate-work budget: hedges stop launching once the
        *worst-case* duplicated kernels (committed + this hedge's
        remaining work) would exceed this fraction of the batch's total
        kernel count.
    max_hedges_per_app:
        Speculative replicas one app may receive over the whole run.
    """

    check_interval: float = 1e-3
    straggler_score: float = 0.5
    min_samples: int = 4
    ema_alpha: float = 0.3
    window: int = 32
    min_remaining_kernels: int = 2
    budget_fraction: float = 0.15
    max_hedges_per_app: int = 1

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if not 0.0 < self.straggler_score <= 1.0:
            raise ValueError("straggler_score must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_remaining_kernels < 1:
            raise ValueError("min_remaining_kernels must be >= 1")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.max_hedges_per_app < 1:
            raise ValueError("max_hedges_per_app must be >= 1")


@dataclass(frozen=True)
class StormControlConfig:
    """Pacing parameters for failover after a correlated loss.

    Without storm control the coordinator re-admits every app of a lost
    device the instant the loss is *detected* — fine for one device, but
    a whole fault domain dying dumps a quarter of the fleet's work onto
    the survivors in a single simulated instant: the failover storm that
    seeds a metastable collapse.  With a :class:`StormControlConfig`
    attached (``FleetConfig.storm``) migrations instead pass through a
    paced queue with capacity-aware admission.

    Attributes
    ----------
    max_inflight_per_device:
        Migration slots per surviving device: how many *migrating* apps
        (re-admitted but not yet running a full attempt) one survivor
        absorbs at a time.
    pace_interval:
        Queue drain period (simulated seconds).  Each tick re-admits as
        many queued apps as open slots allow, oldest deadline first.
    """

    max_inflight_per_device: int = 2
    pace_interval: float = 0.5e-3

    def __post_init__(self) -> None:
        if self.max_inflight_per_device < 1:
            raise ValueError("max_inflight_per_device must be >= 1")
        if self.pace_interval <= 0:
            raise ValueError("pace_interval must be positive")


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one multi-device fleet run.

    Attributes
    ----------
    num_devices:
        Number of simulated GPUs in the registry.
    heartbeat_interval:
        Health-monitor polling period (seconds).  Every tick the monitor
        reads each device's heartbeat (alive flag + board power).
    detection_latency:
        Base delay between a device loss and the monitor *declaring* it
        lost (missed-heartbeat budget, seconds).
    detection_jitter:
        Amplitude of the seeded per-device jitter added to
        ``detection_latency`` (uniform in ``[0, detection_jitter)``),
        modelling monitoring-path nondeterminism reproducibly.
    failover:
        When ``False`` a lost device's apps simply fail
        (``outcome == "device-lost"``) — the no-failover baseline the
        benchmarks compare against.
    checkpoint:
        Take :class:`~repro.fleet.checkpoint.AppCheckpoint` snapshots at
        phase boundaries, each written through the run's fenced journal
        (to disk when the run has a journal file).  With checkpointing
        off a migrated app restarts from scratch.
    max_attempts:
        Retry budget per app for *fault* failures (device losses do not
        consume attempts; they are not the app's fault).
    placement:
        Initial/failover app->device placement policy.
    seed:
        Seed for the detection-jitter randomness.
    hedging:
        Gray-failure mitigation parameters (:class:`HedgeConfig`), or
        ``None`` to disable straggler detection and hedged execution
        entirely (the default; results stay byte-identical to a build
        without the gray path).
    topology:
        Fault-domain shape (:class:`~repro.fleet.topology.TopologyConfig`)
        attached to the registry, or ``None`` for the historical
        flat fleet.  Pure bookkeeping until a plan targets a domain.
    storm:
        Failover-storm pacing (:class:`StormControlConfig`), or ``None``
        (default) for the historical immediate mass-migration.
    retry_budget:
        Per-class retry token bucket
        (:class:`~repro.resilience.budget.RetryBudgetConfig`) shared by
        fleet fault retries, deadline re-runs and hedge launches, or
        ``None`` for unbudgeted retries.
    brownout:
        Metastability detection + brownout ladder
        (:class:`~repro.resilience.metastable.BrownoutConfig`), or
        ``None`` for no probe.
    retry_backoff:
        Backoff applied by the fleet driver between fault retries
        (:class:`~repro.resilience.retry.RetryPolicy`), or ``None``
        (default) to retry immediately as every PR before this one did.
    shed_unfinishable:
        When ``True`` the driver sheds work that can no longer meet its
        deadline (``outcome == "shed-deadline"``) instead of running or
        retrying it.  Only meaningful when the run supplies deadlines.

    Every one of the six knobs above defaults *off*; a config that sets
    none of them produces byte-identical journals and results to the
    previous release.
    """

    num_devices: int = 2
    heartbeat_interval: float = 1e-3
    detection_latency: float = 2e-3
    detection_jitter: float = 0.5e-3
    failover: bool = True
    checkpoint: bool = True
    max_attempts: int = 3
    placement: str = "round-robin"
    seed: int = 0
    hedging: Optional[HedgeConfig] = None
    topology: Optional[TopologyConfig] = None
    storm: Optional[StormControlConfig] = None
    retry_budget: Optional[RetryBudgetConfig] = None
    brownout: Optional[BrownoutConfig] = None
    retry_backoff: Optional[RetryPolicy] = None
    shed_unfinishable: bool = False

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.detection_latency < 0:
            raise ValueError("detection_latency must be >= 0")
        if self.detection_jitter < 0:
            raise ValueError("detection_jitter must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
