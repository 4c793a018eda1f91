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
* A scheduling pass usually runs from a NORMAL-priority calendar entry at
  the current time, so all same-time cohort retirements release their
  resources before it runs (and multiple triggers coalesce into one pass).
  The exception is a retirement that finishes its grid and whose command
  the device settles inline (no calendar event due at or before now, see
  :meth:`repro.gpu.device.GPUDevice._settle`): that pass would have been
  the next event popped, so it runs inline, or not at all when no grid
  waits for blocks.
* A pass walks only the grids that still have blocks to place, kept in
  arrival order beside the full in-flight list, so grids whose last
  cohorts are merely running cost it nothing.  It pushes each placed
  cohort's retirement straight onto the calendar.
* An optional ``admission`` hook lets :mod:`repro.core.baselines` implement
  the symbiosis-style admission control the paper compares against (a grid
  is held back until the hook admits it).
* The engine records no timeline.  It stamps a launch's ``started`` at
  its first placed block and completes ``done`` when its last cohort
  retires; those two values are the launch's kernel span in every
  profiler view (:func:`repro.framework.metrics.record_timeline`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional

from ..resilience.faults import FaultInjector, FaultKind
from ..sim.engine import Environment
from ..sim.errors import FaultError, ScheduleError
from ..sim.events import NORMAL, Event
from .commands import KernelLaunchCommand
from .kernels import KernelDescriptor
from .smx import Placement, SMXArray

__all__ = ["GridEngine", "GridState"]


def _succeed_on_calendar(cmd: KernelLaunchCommand) -> bool:
    """The settle hook of an engine without a device: ``done`` succeeds
    onto the calendar, never inline."""
    cmd.done.succeed(cmd.env.now)
    return False


class GridState:
    """Book-keeping for one in-flight kernel launch.

    Compares by identity: two launches are never the same grid, and the
    engine's list removals stay O(position) pointer checks.  ``kernel``
    is the launch's descriptor, stored once at construction.
    """

    __slots__ = (
        "cmd", "kernel", "to_place", "outstanding", "waves", "admitted",
        "hang_factor",
    )

    def __init__(
        self,
        cmd: KernelLaunchCommand,
        to_place: int,
        outstanding: int = 0,
        waves: int = 0,
        admitted: bool = True,
        hang_factor: float = 1.0,
    ) -> None:
        self.cmd = cmd
        self.kernel: KernelDescriptor = cmd.descriptor
        self.to_place = to_place        # blocks not yet given to an SMX
        self.outstanding = outstanding  # blocks currently resident
        self.waves = waves              # scheduling passes that placed >= 1 block
        self.admitted = admitted        # admission gate (LEFTOVER: always True)
        self.hang_factor = hang_factor  # injected slowdown (1.0 = healthy grid)


class _Pass(Event):
    """A scheduling pass's calendar entry, triggered when created."""

    __slots__ = ()

    def __init__(
        self, env: Environment, callback: Callable[["_Pass"], None]
    ) -> None:
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        self._defused = False


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
    on_change:
        Callback invoked after every occupancy change (power model hook).
    settle:
        ``(cmd) -> bool`` that completes a finished launch's ``done``
        event and returns whether it settled inline, with no calendar
        entry (the device's :meth:`~repro.gpu.device.GPUDevice._settle`).
        The default succeeds ``done`` onto the calendar.
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
        on_change: Optional[Callable[[], None]] = None,
        settle: Optional[Callable[[KernelLaunchCommand], bool]] = None,
        admission: Optional[Callable[[GridState, List["GridState"]], bool]] = None,
        injector: Optional[FaultInjector] = None,
        max_concurrent_grids: int = 32,
        retire_quantum: float = 1e-6,
    ) -> None:
        if retire_quantum < 0:
            raise ValueError("retire_quantum must be >= 0")
        self.env = env
        self.smx = smx_array
        self.on_change = on_change
        self._settle = settle or _succeed_on_calendar
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
        # Block slots of the whole array: a pass's free slots are this
        # less the array's resident blocks.
        self._block_capacity = len(smx_array.smxs) * smx_array.spec.max_blocks
        self._retire_cb = self._retire
        self._pass_cb = self._run_pass
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
        nblocks = cmd.descriptor._num_blocks
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
        env = self.env
        # NORMAL priority: runs after all already-queued same-time cohort
        # retirements, so released resources are visible to this pass.
        # Pushed as ``Environment.schedule`` would push it, without the
        # call, as retirements are (one of each per scheduling wave).
        heappush(
            env._queue,
            (env._now, NORMAL, next(env._eid), _Pass(env, self._pass_cb)),
        )

    def _run_pass(self, _evt: Optional[Event] = None) -> None:
        """Place blocks of waiting grids, in arrival order, and push each
        placed cohort's retirement onto the calendar."""
        self._pass_scheduled = False
        env = self.env
        now = env._now
        smx = self.smx
        injector = self.injector
        q = self.retire_quantum
        changed = False
        placed_out = False
        # Pass-local count for the concurrent-grid limit: it starts from
        # the grids holding blocks and counts only launches placing their
        # first blocks in this pass.
        executing = self._executing
        # Fast path: with no free block slot anywhere, no kernel can place.
        free_block_slots = self._block_capacity - smx._resident_blocks

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
            kernel = grid.kernel
            placements = smx.place(kernel, grid.to_place)
            if not placements:
                continue
            placed = 0
            for placement in placements:
                placed += placement.nblocks
            if grid.outstanding == 0:
                self._executing += 1
                if grid.to_place == kernel._num_blocks:
                    # First blocks of this launch.
                    cmd = grid.cmd
                    cmd.start_time = now
                    if cmd._started is not None:
                        cmd._started.stamp(now)
                    executing += 1
            grid.to_place -= placed
            if not grid.to_place:
                placed_out = True
            grid.outstanding += placed
            grid.waves += 1
            self.total_waves += 1
            free_block_slots -= placed
            changed = True

            # The cohort retires after the kernel's block duration.
            duration = kernel.block_duration * grid.hang_factor
            if injector is not None:
                # Gray SMX slowdown acts per *cohort*, not per launch: a
                # window opening mid-kernel slows its remaining waves,
                # which is what makes the degradation visible to latency
                # stretch while DEVICE_THROTTLE stays a submit-time
                # property.
                slow = injector.smx_slowdown(now)
                smx.speed_scale = slow
                if slow != 1.0:
                    duration *= slow
            if q > 0:
                # Round the absolute retirement instant up to the quantum
                # so near-simultaneous cohorts coalesce into one pass.
                target = now + duration
                quantized = -(-target // q) * q  # ceil to the grid
                duration = quantized - now
            if duration < 0:
                raise ScheduleError(f"negative delay {duration!r}")
            heappush(
                env._queue,
                (
                    now + duration,
                    NORMAL,
                    next(env._eid),
                    _Retirement(env, grid, placements, placed, self._retire_cb),
                ),
            )

        if placed_out:
            self._unplaced = [g for g in self._unplaced if g.to_place]
        if changed and self.on_change is not None:
            self.on_change()

    def _retire(self, evt: _Retirement) -> None:
        """Give a retired cohort's resources back, then let grids place.

        The cohort that retires a grid's last blocks completes its launch
        through the settle hook.
        """
        grid = evt.grid
        self.smx.release(grid.kernel, evt.placements)
        grid.outstanding -= evt.placed
        if grid.outstanding == 0:
            self._executing -= 1
            if grid.to_place == 0:
                self._pending.remove(grid)
                self.grids_completed += 1
                cmd = grid.cmd
                cmd.waves = grid.waves
                if self._settle(cmd):
                    # Settled inline: the device has updated power, and
                    # the pass below would have been the next event
                    # popped, so it runs now, or not at all when no grid
                    # waits for blocks.
                    if self._unplaced:
                        self._run_pass()
                    return
        if self.on_change is not None:
            self.on_change()
        self._request_pass()
