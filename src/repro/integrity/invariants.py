"""Runtime invariant probes over the simulated device model.

Model drift is the quiet failure mode of a reproduction: a refactor that
leaks a resident thread, double-counts a DMA byte or lets power fall
below the calibrated idle floor does not crash — it just makes Figures
7–10 subtly wrong.  The :class:`InvariantChecker` turns those laws into
cheap probes that run inside the event loop (via the engine's strided
probe slot, :meth:`~repro.sim.engine.Environment.set_probe`) and raise
:class:`IntegrityViolation` at the first violated law, with the simulated
time and the numbers that disagreed.

The invariant catalog (see ``docs/integrity.md``):

``smx-occupancy``
    Resident threads/blocks stay within the Table III device ceilings
    (26624 threads / 208 blocks on the K20) and the cached aggregates
    equal the per-SMX ground truth.
``queue-conservation``
    Every command the device issued is accounted for: Hyper-Q queue
    depth totals equal ``commands_issued``, and the in-flight aggregate
    equals the per-stream in-flight sum (never negative).
``dma-conservation``
    Copy-engine byte/command counters are monotone and busy time never
    exceeds wall-clock simulated time.
``clock-monotone``
    The simulated clock never regresses between probe ticks
    (journal-side monotonicity is checked by
    :func:`repro.integrity.record.clock_regressions` at scan time).
``energy-accounting``
    Instantaneous power stays within ``[idle, TDP]``, equals the
    reference formula over the device's live counters
    (``power.evaluate(device.power_state())``, so no activity change
    skipped its power update), and accumulated energy over any window is
    bounded by ``idle*dt <= dE <= TDP*dt`` — consistent with the
    Figures 9–10 power-state model.

Checks run every ``stride`` events (default 256): dense enough to pin a
violation near its cause, sparse enough that the ``integrity`` case of
``benchmarks/bench_observer_overhead.py`` holds the cost under 2%.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sim.errors import SimulationError

__all__ = [
    "IntegrityViolation",
    "InvariantChecker",
    "attach_environment_invariants",
    "attach_device_invariants",
]

#: Matches ``FaultKind.INTEGRITY_VIOLATION`` (``FaultKind`` is a str enum,
#: so equality with this literal holds without importing the fault model).
INTEGRITY_FAULT_KIND = "integrity_violation"

#: Absolute slop for float comparisons (energy integrals, occupancy).
_EPS = 1e-9


class IntegrityViolation(SimulationError):
    """A runtime invariant probe found state that violates a model law."""

    def __init__(
        self,
        invariant: str,
        message: str,
        time: float,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            f"[{invariant}] at t={time:.9g}: {message}"
        )
        self.invariant = invariant
        self.time = time
        self.context = dict(context or {})
        #: Classification in the resilience fault model.
        self.kind = INTEGRITY_FAULT_KIND


class InvariantChecker:
    """Strided invariant probe suite over one or more GPU devices.

    Attach with :meth:`attach` (or the module-level helpers); the checker
    registers itself as an engine step hook and from then on validates
    the full catalog every ``stride`` events.  ``on_violation`` selects
    what a failed law does: ``"raise"`` (default) aborts the run with
    :class:`IntegrityViolation`; ``"record"`` appends to
    :attr:`violations` and keeps going — the telemetry probes' mode, so a
    monitored run reports drift instead of dying of it.
    """

    def __init__(self, stride: int = 256, on_violation: str = "raise") -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if on_violation not in ("raise", "record"):
            raise ValueError("on_violation must be 'raise' or 'record'")
        self.stride = stride
        self.on_violation = on_violation
        self._devices: List[Tuple[str, Any]] = []
        self._env: Optional[Any] = None
        self._ticks = 0
        self._last_now = float("-inf")
        # Per-device (label -> (time, energy, bytes_htod, bytes_dtoh,
        # served_htod, served_dtoh, grids_completed)) watermarks.
        self._watermarks: Dict[str, Dict[str, float]] = {}
        #: Full catalog passes executed.
        self.checks_run: int = 0
        #: Violations found (equals ``len(violations)`` in record mode).
        self.violations_found: int = 0
        #: Recorded violations (``on_violation="record"`` only).
        self.violations: List[IntegrityViolation] = []

    # -- wiring ------------------------------------------------------------

    def watch_device(self, device: Any, label: Optional[str] = None) -> None:
        """Add a :class:`~repro.gpu.device.GPUDevice` to the probe set."""
        if label is None:
            label = f"gpu{len(self._devices)}"
        self._devices.append((label, device))

    def attach(self, env: Any) -> "InvariantChecker":
        """Install on ``env``'s strided probe slot; returns self.

        The engine fires :meth:`probe_tick` every ``stride``-th event
        pop via an inline integer countdown
        (:meth:`~repro.sim.engine.Environment.set_probe`), so ordinary
        events pay no Python call for the probes at all — the per-event
        cost that dominates any hook-based design on event-dense
        workloads.
        """
        self._last_now = env.now
        env.set_probe(self.probe_tick, self.stride)
        self._env = env
        return self

    def detach(self) -> None:
        """Unregister from the environment (idempotent)."""
        if self._env is not None:
            self._env.clear_probe()
            self._env = None

    def probe_tick(self, now: float) -> None:
        """One strided engine probe: clock check + full catalog.

        When attached, clock monotonicity is verified at probe
        granularity (the engine's calendar pop makes intra-stride
        regressions structurally impossible short of an engine bug,
        which the strided compare still catches as a net regression).
        """
        if now < self._last_now:
            self._violate(
                "clock-monotone",
                f"simulated clock regressed from {self._last_now!r} "
                f"to {now!r}",
                now,
            )
        self._last_now = now
        self._ticks += self.stride
        self.check_now(now)

    # -- probe entry point -------------------------------------------------

    def __call__(self, now: float) -> None:
        # Direct per-event invocation (tests and manual stepping): clock
        # check on every call, catalog every stride-th.  attach() does
        # NOT register this — the engine's inline countdown dispatches
        # probe_tick instead, which is far cheaper per event.
        if now < self._last_now:
            self._violate(
                "clock-monotone",
                f"simulated clock regressed from {self._last_now!r} to {now!r}",
                now,
            )
        self._last_now = now
        self._ticks += 1
        if self._ticks % self.stride:
            return
        self.check_now(now)

    def check_now(self, now: float) -> None:
        """Run the full catalog immediately (also used at run teardown)."""
        for label, device in self._devices:
            self._check_smx(label, device, now)
            self._check_queues(label, device, now)
            self._check_dma(label, device, now)
            self._check_energy(label, device, now)
        self.checks_run += 1

    # -- the catalog -------------------------------------------------------

    def _violate(
        self,
        invariant: str,
        message: str,
        now: float,
        **context: Any,
    ) -> None:
        self.violations_found += 1
        violation = IntegrityViolation(invariant, message, now, context)
        if self.on_violation == "raise":
            raise violation
        self.violations.append(violation)

    def _check_smx(self, label: str, device: Any, now: float) -> None:
        smx = device.smx
        spec = device.spec
        threads = smx.resident_threads
        blocks = smx.resident_blocks
        if not 0 <= threads <= spec.max_resident_threads:
            self._violate(
                "smx-occupancy",
                f"{label}: resident threads {threads} outside "
                f"[0, {spec.max_resident_threads}] (Table III ceiling)",
                now, device=label, threads=threads,
            )
        if not 0 <= blocks <= spec.max_resident_blocks:
            self._violate(
                "smx-occupancy",
                f"{label}: resident blocks {blocks} outside "
                f"[0, {spec.max_resident_blocks}] (Table III ceiling)",
                now, device=label, blocks=blocks,
            )
        ground_threads = sum(s.resident_threads for s in smx)
        if threads != ground_threads:
            self._violate(
                "smx-occupancy",
                f"{label}: cached resident-thread aggregate {threads} != "
                f"per-SMX sum {ground_threads} (leaked release?)",
                now, device=label,
            )
        occ = smx.thread_occupancy
        if not -_EPS <= occ <= 1.0 + _EPS:
            self._violate(
                "smx-occupancy",
                f"{label}: thread occupancy {occ!r} outside [0, 1]",
                now, device=label, occupancy=occ,
            )
        if smx.busy_smx_count > len(smx):
            self._violate(
                "smx-occupancy",
                f"{label}: busy SMX count {smx.busy_smx_count} exceeds "
                f"{len(smx)} SMXs",
                now, device=label,
            )

    def _check_queues(self, label: str, device: Any, now: float) -> None:
        issued = device.commands_issued
        queued = sum(q.depth_total for q in device.fabric.queues)
        if issued != queued:
            self._violate(
                "queue-conservation",
                f"{label}: device issued {issued} commands but Hyper-Q "
                f"queues absorbed {queued} (command lost between stream "
                "and hardware queue)",
                now, device=label, issued=issued, queued=queued,
            )
        inflight = device._inflight
        per_stream = sum(device._stream_inflight.values())
        if inflight < 0 or inflight != per_stream:
            self._violate(
                "queue-conservation",
                f"{label}: in-flight aggregate {inflight} != per-stream "
                f"sum {per_stream}",
                now, device=label, inflight=inflight,
            )
        active = sum(
            1 for v in device._stream_inflight.values() if v > 0
        )
        if device._active_streams != active:
            self._violate(
                "queue-conservation",
                f"{label}: active-stream count {device._active_streams} != "
                f"streams with work in flight {active}",
                now, device=label,
            )
        grids = device.grid_engine
        if grids.active_grids < 0 or grids.grids_completed < 0:
            self._violate(
                "queue-conservation",
                f"{label}: grid engine counters negative "
                f"(active={grids.active_grids}, "
                f"completed={grids.grids_completed})",
                now, device=label,
            )

    def _check_dma(self, label: str, device: Any, now: float) -> None:
        marks = self._watermarks.setdefault(label, {})
        for direction, engine in device.dma.items():
            key = f"dma-{getattr(direction, 'value', direction)}"
            if engine.bytes_moved < marks.get(f"{key}-bytes", 0):
                self._violate(
                    "dma-conservation",
                    f"{label}/{key}: bytes_moved went backwards "
                    f"({marks[f'{key}-bytes']:.0f} -> {engine.bytes_moved})",
                    now, device=label,
                )
            if engine.commands_served < marks.get(f"{key}-served", 0):
                self._violate(
                    "dma-conservation",
                    f"{label}/{key}: commands_served went backwards",
                    now, device=label,
                )
            if engine.busy_seconds > now + _EPS:
                self._violate(
                    "dma-conservation",
                    f"{label}/{key}: busy for {engine.busy_seconds!r} s in a "
                    f"run that is only {now!r} s old",
                    now, device=label,
                )
            if engine.pending_count < 0:
                self._violate(
                    "dma-conservation",
                    f"{label}/{key}: negative pending queue",
                    now, device=label,
                )
            marks[f"{key}-bytes"] = engine.bytes_moved
            marks[f"{key}-served"] = engine.commands_served

    def _check_energy(self, label: str, device: Any, now: float) -> None:
        power = device.power
        spec = device.spec.power
        current = power.current_power
        if not spec.idle - _EPS <= current <= spec.tdp + _EPS:
            self._violate(
                "energy-accounting",
                f"{label}: instantaneous power {current!r} W outside "
                f"[{spec.idle}, {spec.tdp}] W",
                now, device=label, power=current,
            )
        expected = power.evaluate(device.power_state())
        if current != expected:
            self._violate(
                "energy-accounting",
                f"{label}: power {current!r} W != formula {expected!r} W over "
                "the live counters (activity changed without a power update)",
                now, device=label, power=current, expected=expected,
            )
        if power.peak_power > spec.tdp + _EPS:
            self._violate(
                "energy-accounting",
                f"{label}: peak power {power.peak_power!r} W exceeds TDP "
                f"{spec.tdp} W",
                now, device=label,
            )
        marks = self._watermarks.setdefault(label, {})
        energy = power.energy(until=now)
        last_t = marks.get("energy-t")
        last_e = marks.get("energy-j")
        if last_t is not None:
            dt = now - last_t
            de = energy - last_e
            lo = spec.idle * dt - 1e-6
            hi = spec.tdp * dt + 1e-6
            if de < -_EPS or not lo <= de <= hi:
                self._violate(
                    "energy-accounting",
                    f"{label}: energy grew {de!r} J over {dt!r} s, outside "
                    f"the [idle*dt, TDP*dt] = [{lo:.3g}, {hi:.3g}] J band",
                    now, device=label, delta_energy=de, delta_t=dt,
                )
        marks["energy-t"] = now
        marks["energy-j"] = energy


def attach_environment_invariants(
    env: Any,
    devices: Any = (),
    stride: int = 256,
    on_violation: str = "raise",
) -> InvariantChecker:
    """Build a checker watching ``devices`` and hook it into ``env``."""
    checker = InvariantChecker(stride=stride, on_violation=on_violation)
    for device in devices:
        checker.watch_device(device)
    return checker.attach(env)


def attach_device_invariants(
    device: Any,
    stride: int = 256,
    on_violation: str = "raise",
    label: Optional[str] = None,
) -> InvariantChecker:
    """Convenience: probe one device on its own environment."""
    checker = InvariantChecker(stride=stride, on_violation=on_violation)
    checker.watch_device(device, label=label)
    return checker.attach(device.env)
