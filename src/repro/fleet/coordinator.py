"""The failover coordinator: drain a lost device, migrate its apps.

Two moments matter for every device loss, and the coordinator keeps them
deliberately separate:

* **loss instant** (ground truth, from the registry): every *running*
  driver bound to the device is interrupted with
  ``Interrupt(DeviceLost)`` — the simulation analogue of CUDA calls
  suddenly returning ``cudaErrorDeviceUnavailable``.  The interrupted
  drivers park and wait; nothing is reassigned yet, because the system
  has not *observed* the failure.
* **detection instant** (from the health monitor, after the seeded
  missed-heartbeat budget): the loss is journaled, every unfinished app
  assigned to the dead device is re-placed onto a healthy device via the
  configured placement policy, each failover is journaled, and the parked
  drivers are released to resume from their checkpoints.

With ``failover=False`` (the baseline the benchmarks compare against) the
detection step marks the apps failed instead of re-placing them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..integrity.fencing import FencedJournal, GenerationFence
from ..sim.events import Event
from .checkpoint import CheckpointStore
from .config import FleetConfig
from .registry import DeviceRegistry, FleetDevice
from .storm import MigrationQueue
from .thread import FleetAppThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["FailoverCoordinator", "RecoveryEvent"]


class RecoveryEvent(dict):
    """One device loss's recovery accounting (a dict for easy reporting).

    Keys: ``device``, ``lost`` (instant), ``detected`` (instant),
    ``resumed`` (last migrated app back on a device), ``apps`` (migrated
    app ids), ``failed_apps`` (apps that could not be re-placed),
    ``reexecuted_kernels``.
    """


class FailoverCoordinator:
    """Tracks app->device assignments and reacts to device losses."""

    def __init__(
        self,
        env: "Environment",
        registry: DeviceRegistry,
        fleet: FleetConfig,
        store: CheckpointStore,
        journal: FencedJournal,
        fence: GenerationFence,
        deadlines: Optional[Dict[str, float]] = None,
    ) -> None:
        self.env = env
        self.registry = registry
        self.fleet = fleet
        self.store = store
        #: The run's fenced journal: every fleet write goes through it.
        self.journal = journal
        #: Per-device generation counters; advanced at every detected
        #: loss so checkpoint writes from the superseded binding are
        #: fenced off (see :mod:`repro.integrity.fencing`).
        self.fence = fence
        #: Absolute SLO deadlines per app (queue priority; may be empty).
        self.deadlines: Dict[str, float] = dict(deadlines or {})
        self.assignment: Dict[str, Optional[int]] = {}
        self.threads: Dict[str, FleetAppThread] = {}
        self.procs: Dict[str, object] = {}
        self.status: Dict[str, str] = {}   # pending|running|waiting|done
        self._waiters: Dict[str, Event] = {}
        self.recoveries: List[RecoveryEvent] = []
        #: Migrated apps that have not yet landed on their new device.
        self._pending_resume: Dict[str, RecoveryEvent] = {}
        #: Queued migrations: app -> (from device, loss RecoveryEvent).
        self._queued: Dict[str, tuple] = {}
        #: Paced migration queue; ``None`` keeps the historical
        #: immediate mass-migration path byte-identical.
        self.storm: Optional[MigrationQueue] = None
        if fleet.storm is not None and fleet.failover:
            self.storm = MigrationQueue(
                env,
                fleet.storm,
                candidates=self._storm_candidates,
                release=self._storm_release,
                journal=journal,
            )
        self._rr_cursor = 0
        registry.on_down = self.device_down

    # -- placement ---------------------------------------------------------

    def _live_counts(self) -> Dict[int, int]:
        counts = {d.index: 0 for d in self.registry}
        for app_id, index in self.assignment.items():
            if index is not None and self.status.get(app_id) != "done":
                counts[index] += 1
        return counts

    def _pick_device(self) -> Optional[int]:
        healthy = self.registry.healthy()
        if not healthy:
            return None
        if self.fleet.placement == "least-loaded":
            counts = self._live_counts()
            return min(healthy, key=lambda d: (counts[d.index], d.index)).index
        # round-robin over the full index space, skipping lost devices
        for _ in range(len(self.registry)):
            index = self._rr_cursor % len(self.registry)
            self._rr_cursor += 1
            if not self.registry.devices[index].lost:
                return index
        return healthy[0].index  # pragma: no cover - unreachable

    # -- registration ------------------------------------------------------

    def register(self, thread: FleetAppThread) -> FleetDevice:
        """Place a new app on a device (parent thread, launch order)."""
        app_id = thread.app.app_id
        index = self._pick_device()
        if index is None:
            raise RuntimeError("no healthy device to place on")
        self.assignment[app_id] = index
        self.threads[app_id] = thread
        self.status[app_id] = "pending"
        return self.registry.devices[index]

    def register_proc(self, app_id: str, proc) -> None:
        """Attach the driver process (spawned after registration)."""
        self.procs[app_id] = proc

    def note_done(self, app_id: str) -> None:
        """The app reached a terminal state (completed or failed)."""
        self.status[app_id] = "done"

    # -- driver-facing protocol --------------------------------------------

    def acquire_device(self, app_id: str):
        """Yield until the app's assigned device is usable; return it.

        Returns ``None`` when the app cannot run anywhere (no healthy
        device remained, or failover is disabled) — the driver records
        the app as failed.
        """
        while True:
            index = self.assignment[app_id]
            if index is None:
                self.status[app_id] = "done"
                return None
            device = self.registry.devices[index]
            if not device.lost:
                self.status[app_id] = "running"
                self.resumed(app_id, index)
                return device
            # Assigned device is dead: park until the health monitor
            # declares it and the coordinator re-places us.
            self.status[app_id] = "waiting"
            event = Event(self.env)
            self._waiters[app_id] = event
            yield event

    def resumed(self, app_id: str, device_index: int) -> None:
        """A migrated app is back on a device (recovery-time metric)."""
        recovery = self._pending_resume.pop(app_id, None)
        if recovery is not None:
            recovery["resumed"] = max(recovery["resumed"], self.env.now)

    def note_warmed(self, app_id: str) -> None:
        """A migrant checkpointed (or terminated) on its new device.

        Frees the recovery slot it held in the paced migration queue;
        a no-op without storm control or for non-migrating apps.
        """
        if self.storm is not None:
            self.storm.free_slot(app_id)

    @property
    def stale_writes_rejected(self) -> int:
        """Journal writes fenced off for carrying a superseded token."""
        return self.fence.rejected

    # -- storm-control callbacks -------------------------------------------

    def _storm_candidates(self) -> List[tuple]:
        """Healthy ``(device, live load)`` pairs for paced admission."""
        counts = self._live_counts()
        return [(d.index, counts[d.index]) for d in self.registry.healthy()]

    def _storm_release(self, app_id: str, target: Optional[int]) -> None:
        """Apply one paced migration (the queue's release callback): the
        immediate path's :meth:`_migrate`, at queue-drain time instead of
        detection time."""
        from_device, recovery = self._queued.pop(app_id, (None, None))
        self._migrate(app_id, from_device, target, recovery)

    def _migrate(
        self,
        app_id: str,
        from_device: Optional[int],
        target: Optional[int],
        recovery: Optional[RecoveryEvent],
    ) -> None:
        """Move one app to ``target`` (``None``: fail it).

        Updates the assignment, accounts the recovery, journals the
        ``failover`` entry and wakes the parked driver.
        """
        self.assignment[app_id] = target
        checkpoint = self.store.get(app_id)
        if recovery is not None:
            if target is None:
                recovery["failed_apps"].append(app_id)
            else:
                recovery["apps"].append(app_id)
                self._pending_resume[app_id] = recovery
        self.journal.record(
            {
                "event": "failover",
                "app": app_id,
                "from": -1 if from_device is None else from_device,
                "to": -1 if target is None else target,
                "t": self.env.now,
                "phase": (
                    checkpoint.phase_index if checkpoint is not None else 0
                ),
                "kernels": (
                    checkpoint.completed_kernels
                    if checkpoint is not None
                    else 0
                ),
            }
        )
        waiter = self._waiters.pop(app_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(target)

    # -- loss handling -----------------------------------------------------

    def device_down(self, index: int, now: float) -> None:
        """Ground truth: interrupt every running driver on the device."""
        from ..sim.errors import DeviceLost

        for app_id, assigned in self.assignment.items():
            if assigned != index or self.status.get(app_id) != "running":
                continue
            proc = self.procs.get(app_id)
            if proc is not None and proc.is_alive:
                proc.interrupt(DeviceLost(index, now))

    def device_detected_lost(self, index: int, now: float) -> None:
        """Observed: journal the loss and migrate (or fail) its apps."""
        device = self.registry.devices[index]
        # Fence first: from this instant, every token issued against the
        # device before the loss is superseded, so no in-flight checkpoint
        # of the old binding can land after the migrated replica's writes.
        self.fence.advance(index)
        self.journal.record(
            {
                "event": "device-lost",
                "device": index,
                "lost": device.loss_time,
                "detected": now,
            }
        )
        recovery = RecoveryEvent(
            device=index,
            lost=device.loss_time,
            detected=now,
            resumed=now,
            apps=[],
            failed_apps=[],
            reexecuted_kernels=0,
        )
        if self.storm is not None:
            # Paced path: the dead device's recovery slots stop gating
            # admission, and its apps join the queue instead of storming
            # the survivors.  One capacity-capped wave drains now; the
            # rest follow on pacer ticks as slots free up.
            self.storm.note_device_lost(index)
            for app_id, assigned in self.assignment.items():
                if assigned != index or self.status.get(app_id) == "done":
                    continue
                checkpoint = self.store.get(app_id)
                self._queued[app_id] = (index, recovery)
                self.storm.enqueue(
                    app_id,
                    from_device=index,
                    deadline=self.deadlines.get(app_id),
                    checkpoint_kernels=(
                        checkpoint.completed_kernels
                        if checkpoint is not None
                        else 0
                    ),
                )
            self.recoveries.append(recovery)
            self.storm.drain()
            return
        for app_id, assigned in self.assignment.items():
            if assigned != index or self.status.get(app_id) == "done":
                continue
            target = self._pick_device() if self.fleet.failover else None
            self._migrate(app_id, index, target, recovery)
        self.recoveries.append(recovery)
