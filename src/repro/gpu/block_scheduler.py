"""The device grid engine: thread-block scheduling under the LEFTOVER policy.

The paper's "lazy resource utilization policy" (Section III-A) relies on the
Kepler GigaThread engine's behaviour, called LEFTOVER in Pai et al.: thread
blocks are scheduled *in the order their grids arrived* until some SMX
resource is exhausted; whenever an application's kernel leaves resources
unused, blocks from a *later* grid (possibly from a different stream) are
packed into the leftover space.  This is what lets five kernels requesting
1203 thread blocks overlap on a device with a 208-block ceiling (Figure 5).

Implementation notes
--------------------
* Blocks of one grid placed in the same scheduling pass form a *cohort*
  that shares a single completion event — this keeps the event count
  proportional to scheduling waves rather than thread blocks, which is what
  makes 32-application experiments tractable in pure Python.
* Scheduling passes are deferred to a NORMAL-priority event at the current
  time, so all same-time cohort retirements release their resources before
  the next pass runs (and multiple triggers coalesce into one pass).
* A pass walks only the grids that still have blocks to place, kept in
  arrival order beside the full in-flight list, so grids whose last
  cohorts are merely running cost it nothing.
* An optional ``admission`` hook lets :mod:`repro.core.baselines` implement
  the symbiosis-style admission control the paper compares against (a grid
  is held back until the hook admits it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..resilience.faults import FaultInjector, FaultKind
from ..sim.engine import Environment
from ..sim.errors import FaultError
from ..sim.events import NORMAL, Event
from ..sim.trace import TraceRecorder
from .commands import KernelLaunchCommand
from .kernels import KernelDescriptor
from .smx import Placement, SMXArray

__all__ = ["GridEngine", "GridState"]


@dataclass(eq=False)
class GridState:
    """Book-keeping for one in-flight kernel launch.

    Compares by identity: two launches are never the same grid, and the
    engine's list removals stay O(position) pointer checks.
    """

    cmd: KernelLaunchCommand
    to_place: int          # blocks not yet given to an SMX
    outstanding: int = 0   # blocks currently resident
    waves: int = 0         # scheduling passes that placed >= 1 block
    admitted: bool = True  # admission-control gate (LEFTOVER: always True)
    hang_factor: float = 1.0  # injected slowdown (1.0 = healthy grid)

    @property
    def kernel(self) -> KernelDescriptor:
        """The launch's kernel descriptor."""
        return self.cmd.descriptor

    @property
    def finished(self) -> bool:
        """All blocks placed and retired."""
        return self.to_place == 0 and self.outstanding == 0


class _Retirement(Event):
    """A cohort's completion event, carrying the cohort it retires."""

    __slots__ = ("grid", "placements", "placed")

    def __init__(
        self,
        env: Environment,
        grid: GridState,
        placements: List[Placement],
        placed: int,
        callback: Callable[["_Retirement"], None],
    ) -> None:
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        self._defused = False
        self.grid = grid
        self.placements = placements
        self.placed = placed


class GridEngine:
    """Schedules kernel grids onto an :class:`SMXArray`.

    Parameters
    ----------
    env:
        Simulation environment.
    smx_array:
        The device's SMX resources.
    trace:
        Optional recorder; one ``kernel`` span per launch command.
    on_change:
        Callback invoked after every occupancy change (power model hook).
    admission:
        Optional ``(GridState, List[GridState]) -> bool`` called before a
        *new* grid may receive blocks while other grids are active.  The
        default (``None``) is the LEFTOVER policy: everything is admitted.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        at every launch submission.  An armed ``launch_fail`` fails the
        command immediately (transient ``cudaLaunchKernel`` error); an
        armed ``kernel_hang`` inflates the grid's block retirement time by
        the fault's factor.  ``None`` (the default) keeps the engine
        byte-identical to a build without fault injection.
    max_concurrent_grids:
        Hardware limit on simultaneously executing grids (32 on CC 3.5).
    retire_quantum:
        Cohort retirements are rounded *up* to a multiple of this many
        seconds (default 1 us).  Without it, slightly staggered cohorts
        retire at distinct instants, each retirement triggers its own
        scheduling pass placing a slightly smaller cohort, and scheduling
        degenerates toward per-block granularity (quadratic event blowup
        under heavy contention).  The quantum bounds the timing error of
        any single block at ``retire_quantum`` while keeping the event
        count proportional to true scheduling waves.  Set to 0 to disable.
    """

    def __init__(
        self,
        env: Environment,
        smx_array: SMXArray,
        trace: Optional[TraceRecorder] = None,
        on_change: Optional[Callable[[], None]] = None,
        admission: Optional[Callable[[GridState, List["GridState"]], bool]] = None,
        injector: Optional[FaultInjector] = None,
        max_concurrent_grids: int = 32,
        retire_quantum: float = 1e-6,
    ) -> None:
        if retire_quantum < 0:
            raise ValueError("retire_quantum must be >= 0")
        self.env = env
        self.smx = smx_array
        self.trace = trace
        self.on_change = on_change
        self.admission = admission
        self.injector = injector
        self.max_concurrent_grids = max_concurrent_grids
        self.retire_quantum = retire_quantum
        # Every in-flight grid, in arrival order.
        self._pending: List[GridState] = []
        # The grids of ``_pending`` with blocks still to place
        # (to_place > 0), in the same order: all a pass needs to walk.
        self._unplaced: List[GridState] = []
        # Grids in ``_pending`` with resident blocks (outstanding > 0).
        self._executing = 0
        self._retire_cb = self._retire
        self._pass_scheduled = False
        # Statistics
        self.grids_completed: int = 0
        self.total_waves: int = 0

    # -- submission --------------------------------------------------------

    def submit(self, cmd: KernelLaunchCommand) -> Optional[GridState]:
        """Accept a ready kernel launch command for scheduling.

        Returns ``None`` when an injected launch failure rejected the
        command (its ``done`` event fails with a
        :class:`~repro.sim.errors.FaultError`; ``started`` never fires).
        """
        hang_factor = 1.0
        if self.injector is not None:
            fault = self.injector.kernel_fault(cmd.app_id, self.env.now)
            if fault is not None:
                if fault.kind is FaultKind.LAUNCH_FAIL:
                    error = FaultError(
                        f"injected launch failure for {cmd.descriptor.name} "
                        f"({cmd.app_id or 'unknown app'})",
                        kind=FaultKind.LAUNCH_FAIL.value,
                        target=cmd.app_id,
                    )
                    # Defuse: stream/queue gates and retirement callbacks
                    # still fire on a failed event, but an unwaited failure
                    # must not abort the engine — the app thread detects it
                    # at its next synchronize.
                    cmd.done.fail(error)
                    cmd.done.defuse()
                    return None
                hang_factor = fault.factor
            throttle = self.injector.throttle_factor(self.env.now)
            if throttle != 1.0:
                hang_factor *= throttle
            jitter = self.injector.clock_jitter(cmd.app_id, self.env.now)
            if jitter != 1.0:
                hang_factor *= jitter
        nblocks = cmd.descriptor.num_blocks
        grid = GridState(cmd=cmd, to_place=nblocks, hang_factor=hang_factor)
        if self.admission is not None:
            grid.admitted = False
        self._pending.append(grid)
        if nblocks > 0:
            self._unplaced.append(grid)
        self._request_pass()
        return grid

    @property
    def active_grids(self) -> int:
        """Grids currently holding or awaiting SMX resources."""
        return len(self._pending)

    # -- scheduling --------------------------------------------------------

    def _request_pass(self) -> None:
        """Schedule a scheduling pass at the current time (coalesced)."""
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        evt = Event(self.env)
        evt._ok = True
        evt._value = None
        evt.callbacks.append(self._run_pass)
        # NORMAL priority: runs after all already-queued same-time cohort
        # retirements, so released resources are visible to this pass.
        self.env.schedule(evt, priority=NORMAL)

    def _run_pass(self, _evt: Event) -> None:
        self._pass_scheduled = False
        now = self.env.now
        changed = False
        placed_out = False
        # Pass-local count for the concurrent-grid limit: it starts from
        # the grids holding blocks and counts only launches placing their
        # first blocks in this pass.
        executing = self._executing
        # Fast path: with no free block slot anywhere, no kernel can place.
        free_block_slots = self.smx.free_block_slots

        for grid in self._unplaced:
            if free_block_slots == 0:
                break
            if self.admission is not None and not grid.admitted:
                active = [g for g in self._pending if g is not grid and g.outstanding > 0]
                if not self.admission(grid, active):
                    # Admission control holds this grid back; LEFTOVER mode
                    # never takes this branch.  In-order semantics: later
                    # grids must not jump a held-back grid, mirroring a
                    # software scheduler that launches sequentially.
                    break
                grid.admitted = True
            if grid.outstanding == 0:
                if executing >= self.max_concurrent_grids:
                    continue
            placements = self.smx.place(grid.kernel, grid.to_place)
            if not placements:
                continue
            placed = 0
            for placement in placements:
                placed += placement.nblocks
            if grid.outstanding == 0:
                self._executing += 1
                if grid.to_place == grid.kernel.num_blocks:
                    # First blocks of this launch.
                    grid.cmd.started.stamp(now)
                    grid.cmd.first_block_time = now
                    executing += 1
            grid.to_place -= placed
            if not grid.to_place:
                placed_out = True
            grid.outstanding += placed
            grid.waves += 1
            self.total_waves += 1
            free_block_slots -= placed
            changed = True
            self._schedule_retirement(grid, placements, placed)

        if placed_out:
            self._unplaced = [g for g in self._unplaced if g.to_place]
        if changed and self.on_change is not None:
            self.on_change()

    def _schedule_retirement(
        self, grid: GridState, placements: List[Placement], placed: int
    ) -> None:
        """Arrange for a cohort to retire after the kernel's block duration."""
        duration = grid.kernel.block_duration * grid.hang_factor
        if self.injector is not None:
            # Gray SMX slowdown acts per *cohort*, not per launch: a
            # window opening mid-kernel slows its remaining waves, which
            # is what makes the degradation visible to latency stretch
            # while DEVICE_THROTTLE stays a submit-time property.
            slow = self.injector.smx_slowdown(self.env.now)
            self.smx.speed_scale = slow
            if slow != 1.0:
                duration *= slow
        q = self.retire_quantum
        if q > 0:
            # Round the absolute retirement instant up to the quantum so
            # near-simultaneous cohorts coalesce into one scheduling pass.
            now = self.env.now
            target = now + duration
            quantized = -(-target // q) * q  # ceil to the grid
            duration = quantized - now
        evt = _Retirement(self.env, grid, placements, placed, self._retire_cb)
        self.env.schedule(evt, delay=duration, priority=NORMAL)

    def _retire(self, evt: _Retirement) -> None:
        """Give a retired cohort's resources back and schedule a pass."""
        grid = evt.grid
        self.smx.release(grid.kernel, evt.placements)
        grid.outstanding -= evt.placed
        if grid.outstanding == 0:
            self._executing -= 1
        if grid.finished:
            self._finish(grid)
        if self.on_change is not None:
            self.on_change()
        self._request_pass()

    def _finish(self, grid: GridState) -> None:
        now = self.env.now
        self._pending.remove(grid)
        self.grids_completed += 1
        cmd = grid.cmd
        cmd.waves = grid.waves
        cmd.last_block_time = now
        if self.trace is not None and cmd.first_block_time is not None:
            self.trace.record(
                track=f"stream-{cmd.stream_id}",
                category="kernel",
                name=cmd.descriptor.name,
                start=cmd.first_block_time,
                end=now,
                app=cmd.app_id,
                blocks=cmd.descriptor.num_blocks,
                waves=grid.waves,
            )
        cmd.done.succeed(now)
