"""Multi-device fleet layer: registry, health, checkpointed failover.

Runs the paper's Hyper-Q workloads across a *fleet* of simulated devices
and keeps them running through device loss:

* :mod:`~repro.fleet.registry` — N :class:`FleetDevice` instances (GPU +
  streams + synchronizer + power monitor + per-device fault injector) and
  their ground-truth lifecycle (``DEVICE_LOSS`` faults).
* :mod:`~repro.fleet.health` — heartbeat polling, seeded detection
  latency, healthy/degraded/lost classification.
* :mod:`~repro.fleet.checkpoint` — kernel-granularity
  :class:`AppCheckpoint` snapshots taken at phase boundaries.
* :mod:`~repro.fleet.coordinator` — drains a lost device and migrates its
  checkpointed apps onto healthy devices via the launch-order placement
  policies.
* :mod:`~repro.fleet.thread` / :mod:`~repro.fleet.harness` — the
  checkpointed app thread and the multi-device harness (every write
  fenced, with crash-safe journaling and deterministic resume).
* :mod:`~repro.fleet.hedging` — gray-failure mitigation: the
  :class:`HedgeManager` races speculative replicas (forked from the
  latest checkpoint) against apps stuck on straggler devices, under a
  per-batch duplicate-work budget, with fenced journaled decisions.
* :mod:`~repro.fleet.topology` — seeded fault-domain structure (power
  rail / PCIe switch / rack) for correlated blast-radius injection.
* :mod:`~repro.fleet.storm` — failover-storm control: the paced,
  capacity-aware :class:`MigrationQueue` replacing immediate mass
  migration after a correlated loss.

The whole layer is opt-in: nothing here is imported by the single-device
paper pipeline, so fleet-off runs stay byte-identical.
"""

from .checkpoint import AppCheckpoint, CheckpointStore
from .config import FleetConfig, HedgeConfig, StormControlConfig
from .coordinator import FailoverCoordinator, RecoveryEvent
from .harness import DeviceSummary, FleetHarness, FleetResult
from .health import HealthEvent, HealthMonitor
from .hedging import Hedge, HedgeCancelled, HedgeManager, HedgeWin
from .registry import DeviceRegistry, DeviceState, FleetDevice
from .storm import MigrationQueue
from .thread import FleetAppThread
from .topology import DOMAIN_LEVELS, FleetTopology, TopologyConfig

__all__ = [
    "AppCheckpoint",
    "CheckpointStore",
    "FleetConfig",
    "HedgeConfig",
    "StormControlConfig",
    "TopologyConfig",
    "FleetTopology",
    "DOMAIN_LEVELS",
    "MigrationQueue",
    "Hedge",
    "HedgeCancelled",
    "HedgeManager",
    "HedgeWin",
    "FailoverCoordinator",
    "RecoveryEvent",
    "DeviceSummary",
    "FleetHarness",
    "FleetResult",
    "HealthEvent",
    "HealthMonitor",
    "DeviceRegistry",
    "DeviceState",
    "FleetDevice",
    "FleetAppThread",
]
