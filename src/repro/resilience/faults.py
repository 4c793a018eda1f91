"""Deterministic fault injection: plans, specs and the runtime injector.

Real shared-GPU serving must survive hung kernels, transient launch
failures, stalled DMA engines and flaky sensors — exactly the failure
modes concurrency characterization work shows get amplified when
independent streams share SMX and copy-engine resources.  This module is
the *model* of those failures:

* :class:`FaultSpec` — one fault, pinned to a simulated timestamp.
* :class:`FaultPlan` — an ordered, immutable set of specs.  Plans are
  either written explicitly (tests, demos) or *generated* from a seed
  (:meth:`FaultPlan.generate`), and the same seed always produces the
  same schedule — results under fault injection stay reproducible.
* :class:`FaultInjector` — the runtime object the engines consult.  Each
  consultation first *arms* every spec whose time the simulated clock has
  reached, then the hooks in :mod:`repro.gpu.block_scheduler` (kernel
  hangs / launch failures), :mod:`repro.gpu.dma` (engine stalls) and
  :mod:`repro.framework.power_monitor` (sample dropouts) consume them.
  The injector marks what it applied on its own
  :class:`~repro.sim.trace.TraceRecorder`, which a harness run's
  timeline merges with the command record.

Nothing here imports above :mod:`repro.sim`; the package sits beside
:mod:`repro.gpu` in the layering so the device model can depend on it
without cycles.
"""

from __future__ import annotations

import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.trace import TraceRecorder

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultRecord",
    "FaultPlan",
    "FaultInjector",
    "GRAY_KINDS",
    "CORRELATED_KINDS",
]

#: Trace track that fault/retry instants are recorded on.
RESILIENCE_TRACK = "resilience"


class FaultKind(str, Enum):
    """The failure modes the injector can model."""

    #: A kernel's thread blocks run ``factor``x slower than specified —
    #: the grid occupies SMX resources far past its deadline (a hang the
    #: watchdog is expected to detect; the grid *does* eventually retire,
    #: so simulations always terminate).
    KERNEL_HANG = "kernel_hang"
    #: A transient ``cudaLaunchKernel`` failure: the launch command fails
    #: immediately and the grid never reaches the device.
    LAUNCH_FAIL = "launch_fail"
    #: The DMA engine freezes for ``duration`` seconds before serving its
    #: next copy command (stalled copy engine / PCIe hiccup).
    DMA_STALL = "dma_stall"
    #: The power sensor returns no readings for ``duration`` seconds
    #: (NVML dropout); the monitor records nothing in the window.
    POWER_DROPOUT = "power_dropout"
    #: The *harness process itself* dies at ``time``: the serving engine
    #: raises :class:`~repro.sim.errors.HarnessCrash` out of the run, as
    #: if the host had been SIGKILLed.  Consumed by ``repro.serving``
    #: (crash-safe journaling / resume); ignored by the device engines.
    HARNESS_CRASH = "harness_crash"
    #: A whole device falls off the bus at ``time`` (ECC double-bit,
    #: driver reset, preemption): everything in flight on it is lost.
    #: Consumed by the fleet layer (:mod:`repro.fleet`), which interrupts
    #: the apps bound to the device and migrates them from their last
    #: checkpoint; ignored by the single-device engines.
    DEVICE_LOSS = "device_loss"
    #: The device is thermally/power throttled: every grid submitted
    #: during ``[time, time + duration)`` runs ``factor``x slower.
    #: Consumed by the grid engine; the fleet health monitor classifies
    #: the device *degraded* while a throttle window is open.
    DEVICE_THROTTLE = "device_throttle"
    #: *Gray* compute degradation: every thread-block cohort *placed*
    #: during ``[time, time + duration)`` retires ``factor``x slower.
    #: Unlike DEVICE_THROTTLE (which stamps a whole grid at submit time)
    #: this acts at scheduling-pass granularity, so a window opening
    #: mid-kernel slows the kernel's remaining waves — the SMX clock
    #: itself dropped, not one launch.  The device keeps heartbeating.
    SMX_SLOWDOWN = "smx_slowdown"
    #: *Gray* DMA degradation: every copy command *served* during
    #: ``[time, time + duration)`` takes ``factor``x its wire time
    #: (degraded PCIe link / copy-engine contention).  ``direction``
    #: optionally pins the stretch to one engine.
    DMA_STRETCH = "dma_stretch"
    #: *Gray* timing jitter: each kernel submitted during
    #: ``[time, time + duration)`` draws an independent slowdown uniform
    #: in ``[1, factor)`` from a per-window seeded stream (unstable
    #: boost clocks).  Deterministic for a given plan, noisy-looking to
    #: any latency percentile.
    CLOCK_JITTER = "clock_jitter"
    #: A runtime invariant probe found model state that violates a
    #: conservation law or calibrated bound (see
    #: :mod:`repro.integrity.invariants`).  Unlike the kinds above this is
    #: never *injected* — it is the classification the integrity subsystem
    #: reports when the model itself has drifted.
    INTEGRITY_VIOLATION = "integrity_violation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The gray-failure degradation kinds: the device stays alive (heartbeats
#: keep flowing) but runs slow.  Detected by the straggler detector
#: (:mod:`repro.resilience.gray`), never by the missed-heartbeat budget.
GRAY_KINDS = (
    FaultKind.SMX_SLOWDOWN,
    FaultKind.DMA_STRETCH,
    FaultKind.CLOCK_JITTER,
)

#: The kinds that act over a ``[time, time + duration)`` window rather
#: than on one activity.
WINDOW_KINDS = (
    FaultKind.POWER_DROPOUT,
    FaultKind.DEVICE_THROTTLE,
) + GRAY_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    kind:
        Failure mode.
    time:
        Simulated timestamp (seconds) at which the fault arms.  An armed
        fault applies to the *next* matching activity (kernel launch, DMA
        service, power sample) at or after this time.
    target:
        Restrict kernel faults to one application: either a full app id
        (``"gaussian#2"``) or a type name (``"gaussian"``, matching every
        instance).  ``None`` matches any application.  Ignored by DMA and
        power faults.
    duration:
        Stall/dropout length in seconds (DMA_STALL, POWER_DROPOUT).
    factor:
        Slowdown multiplier for KERNEL_HANG (how much longer than spec
        the hung grid's blocks take to retire).
    direction:
        ``"HtoD"``/``"DtoH"`` to pin a DMA stall to one engine; ``None``
        stalls whichever engine serves next.
    device:
        Fleet device index the fault lands on (DEVICE_LOSS,
        DEVICE_THROTTLE; also scopes kernel/DMA/power faults when a plan
        is split per device).  ``None`` means device 0 — single-device
        plans never need to set it.
    """

    kind: FaultKind
    time: float
    target: Optional[str] = None
    duration: float = 0.0
    factor: float = 8.0
    direction: Optional[str] = None
    device: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.INTEGRITY_VIOLATION:
            raise ValueError(
                "integrity_violation is reported by the integrity checker, "
                "never injected"
            )
        if self.time < 0:
            raise ValueError(f"fault time {self.time!r} is negative")
        if self.duration < 0:
            raise ValueError(f"fault duration {self.duration!r} is negative")
        if self.kind is FaultKind.KERNEL_HANG and self.factor <= 1.0:
            raise ValueError("kernel hang factor must exceed 1.0")
        if self.kind is FaultKind.DEVICE_THROTTLE:
            if self.factor <= 1.0:
                raise ValueError("device throttle factor must exceed 1.0")
            if self.duration <= 0:
                raise ValueError("device throttle needs a positive duration")
        if self.kind in GRAY_KINDS:
            if self.factor <= 1.0:
                raise ValueError(
                    f"{self.kind.value} factor must exceed 1.0"
                )
            if self.duration <= 0:
                raise ValueError(
                    f"{self.kind.value} needs a positive duration"
                )
        if self.device is not None and self.device < 0:
            raise ValueError(f"device index {self.device!r} is negative")

    @property
    def effective_device(self) -> int:
        """The fleet device index this fault lands on (default 0)."""
        return self.device if self.device is not None else 0

    def matches(self, app_id: Optional[str]) -> bool:
        """Whether this fault applies to ``app_id`` (kernel faults only)."""
        if self.target is None:
            return True
        if app_id is None:
            return False
        return app_id == self.target or app_id.split("#", 1)[0] == self.target


@dataclass(frozen=True)
class FaultRecord:
    """One fault that was actually applied during a run."""

    kind: FaultKind
    scheduled: float      # the spec's arm time
    applied: float        # simulated time the fault hit its activity
    target: Optional[str]  # app id / engine the fault landed on
    detail: str = ""


class FaultPlan:
    """An immutable, time-ordered set of :class:`FaultSpec` entries.

    Construct explicitly from specs, or deterministically from a seed via
    :meth:`generate`.  Two plans generated with the same arguments are
    identical — the injected schedule is part of the experiment's
    reproducible configuration, not a source of noise.
    """

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(
            sorted(
                faults,
                key=lambda f: (
                    f.time,
                    f.kind.value,
                    f.target or "",
                    -1 if f.device is None else f.device,
                ),
            )
        )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaultPlan):
            return self.faults == other.faults
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.faults)

    def __repr__(self) -> str:
        counts = Counter(f.kind.value for f in self.faults)
        inner = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"<FaultPlan {len(self.faults)} faults ({inner or 'empty'})>"

    @property
    def empty(self) -> bool:
        """Whether the plan injects nothing."""
        return not self.faults

    def counts(self) -> Dict[str, int]:
        """Planned faults per kind (kind value -> count)."""
        return dict(Counter(f.kind.value for f in self.faults))

    def crash_times(self) -> List[float]:
        """Arm times of every planned harness crash, earliest first."""
        return [
            f.time for f in self.faults if f.kind is FaultKind.HARNESS_CRASH
        ]

    def loss_specs(self) -> List[FaultSpec]:
        """Planned device losses, earliest first."""
        return [f for f in self.faults if f.kind is FaultKind.DEVICE_LOSS]

    def gray_specs(self) -> List[FaultSpec]:
        """Every planned gray degradation (slowdown/stretch/jitter)."""
        return [f for f in self.faults if f.kind in GRAY_KINDS]

    @classmethod
    def gray(
        cls,
        device: int,
        *,
        kind: "FaultKind | str" = FaultKind.SMX_SLOWDOWN,
        start: float = 0.0,
        duration: float,
        factor: float = 4.0,
        period: Optional[float] = None,
        duty: float = 0.5,
        direction: Optional[str] = None,
    ) -> "FaultPlan":
        """A sustained or intermittent gray degradation on one device.

        With ``period=None`` (default) the degradation is *sustained*: one
        window covering ``[start, start + duration)``.  With a ``period``
        the degradation is *intermittent*: a duty-cycled train of windows
        each open for ``duty * period`` seconds, repeating until the total
        span is covered — the oscillating thermal throttle that defeats
        any single-shot health check.
        """
        kind = FaultKind(kind)
        if kind not in GRAY_KINDS:
            raise ValueError(f"{kind.value} is not a gray-failure kind")
        if duration <= 0:
            raise ValueError("gray degradation needs a positive duration")
        specs: List[FaultSpec] = []
        if period is None:
            specs.append(
                FaultSpec(
                    kind,
                    start,
                    duration=duration,
                    factor=factor,
                    direction=direction,
                    device=device,
                )
            )
        else:
            if period <= 0:
                raise ValueError("period must be positive")
            if not 0.0 < duty <= 1.0:
                raise ValueError("duty must be in (0, 1]")
            t = start
            end = start + duration
            while t < end:
                window = min(duty * period, end - t)
                specs.append(
                    FaultSpec(
                        kind,
                        t,
                        duration=window,
                        factor=factor,
                        direction=direction,
                        device=device,
                    )
                )
                t += period
        return cls(specs)

    #: Kinds a correlated blast may arm (fail-stop, power, gray).
    CORRELATED_KINDS = (
        FaultKind.DEVICE_LOSS,
        FaultKind.POWER_DROPOUT,
        FaultKind.DEVICE_THROTTLE,
    ) + GRAY_KINDS

    @classmethod
    def correlated(
        cls,
        devices: Sequence[int],
        *,
        kind: "FaultKind | str" = FaultKind.DEVICE_LOSS,
        time: float = 0.0,
        skew: float = 0.0,
        seed: int = 0,
        duration: float = 0.0,
        factor: float = 4.0,
        direction: Optional[str] = None,
    ) -> "FaultPlan":
        """A blast-radius fault: one failure hits a whole domain at once.

        Models a correlated loss — a power rail browning out, a PCIe
        switch wedging — by arming the same fault on every device in
        ``devices`` (typically one :class:`~repro.fleet.topology.
        FleetTopology` domain's member set).  ``kind`` may be a fail-stop
        ``DEVICE_LOSS``, a ``POWER_DROPOUT``/``DEVICE_THROTTLE``, or any
        gray degradation kind (the domain browns out instead of dying).

        With ``skew=0`` (default) every member fails at exactly ``time``.
        A positive ``skew`` staggers the arms by per-device draws uniform
        in ``[0, skew)`` from a stream seeded by ``(seed, time)`` — real
        rails collapse over milliseconds, not instantaneously — while
        staying byte-reproducible for a given plan.
        """
        kind = FaultKind(kind)
        if kind not in cls.CORRELATED_KINDS:
            raise ValueError(
                f"{kind.value} cannot be armed as a correlated blast"
            )
        if not devices:
            raise ValueError("a correlated blast needs at least one device")
        if len(set(devices)) != len(devices):
            raise ValueError("duplicate device in correlated blast")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        needs_window = kind is not FaultKind.DEVICE_LOSS
        if needs_window and duration <= 0:
            raise ValueError(f"{kind.value} needs a positive duration")
        rng = None
        if skew > 0:
            rng = np.random.default_rng(
                [
                    seed,
                    zlib.crc32(b"correlated-blast"),
                    int(round(time * 1e9)) & 0x7FFFFFFF,
                ]
            )
        specs: List[FaultSpec] = []
        for device in devices:
            offset = skew * float(rng.random()) if rng is not None else 0.0
            specs.append(
                FaultSpec(
                    kind,
                    time + offset,
                    duration=duration if needs_window else 0.0,
                    factor=factor,
                    direction=direction,
                    device=int(device),
                )
            )
        return cls(specs)

    def for_device(self, index: int) -> "FaultPlan":
        """The sub-plan one fleet device's injector should consume.

        Keeps the engine-consumed kinds (kernel, DMA, power-sample and
        throttle faults) whose :attr:`FaultSpec.effective_device` equals
        ``index``; drops DEVICE_LOSS (handled by the registry's loss
        processes) and HARNESS_CRASH (handled by the harness).
        """
        return FaultPlan(
            [
                f
                for f in self.faults
                if f.kind
                not in (FaultKind.DEVICE_LOSS, FaultKind.HARNESS_CRASH)
                and f.effective_device == index
            ]
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: float,
        *,
        kernel_hang_rate: float = 0.0,
        launch_fail_rate: float = 0.0,
        dma_stall_rate: float = 0.0,
        power_dropout_rate: float = 0.0,
        targets: Optional[Sequence[str]] = None,
        hang_factor: float = 8.0,
        stall_duration: float = 1e-3,
        dropout_duration: float = 50e-3,
        num_devices: int = 1,
        device_loss_rate: float = 0.0,
        device_throttle_rate: float = 0.0,
        throttle_factor: float = 4.0,
        throttle_duration: float = 2e-3,
        smx_slowdown_rate: float = 0.0,
        dma_stretch_rate: float = 0.0,
        clock_jitter_rate: float = 0.0,
        slowdown_factor: float = 4.0,
        slowdown_duration: float = 2e-3,
        stretch_factor: float = 4.0,
        stretch_duration: float = 2e-3,
        jitter_factor: float = 1.5,
        jitter_duration: float = 2e-3,
    ) -> "FaultPlan":
        """Draw a seeded fault schedule over ``[0, horizon)``.

        Rates are expected faults per simulated second; the number of
        faults of each kind is Poisson(rate * horizon) and arm times are
        uniform over the horizon.  Everything is drawn from one
        ``numpy`` generator seeded with ``seed``, in a fixed kind order,
        so the same arguments always yield the same plan.

        With ``num_devices > 1`` every fault additionally draws a device
        index; the fleet kinds (``device_loss_rate`` /
        ``device_throttle_rate``) are drawn *after* the original four, so
        plans generated with the pre-fleet arguments are bit-identical to
        what older seeds produced (a zero rate consumes no draws).
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon!r}")
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices!r}")
        rng = np.random.default_rng(seed)
        faults: List[FaultSpec] = []

        def pick_target() -> Optional[str]:
            if not targets:
                return None
            return targets[int(rng.integers(len(targets)))]

        def pick_device() -> Optional[int]:
            if num_devices <= 1:
                return None
            return int(rng.integers(num_devices))

        def times(rate: float) -> List[float]:
            n = int(rng.poisson(rate * horizon)) if rate > 0 else 0
            return sorted(float(t) for t in rng.uniform(0.0, horizon, size=n))

        for t in times(kernel_hang_rate):
            faults.append(
                FaultSpec(
                    FaultKind.KERNEL_HANG,
                    t,
                    target=pick_target(),
                    factor=hang_factor,
                    device=pick_device(),
                )
            )
        for t in times(launch_fail_rate):
            faults.append(
                FaultSpec(
                    FaultKind.LAUNCH_FAIL,
                    t,
                    target=pick_target(),
                    device=pick_device(),
                )
            )
        for t in times(dma_stall_rate):
            direction = "HtoD" if rng.random() < 0.5 else "DtoH"
            faults.append(
                FaultSpec(
                    FaultKind.DMA_STALL,
                    t,
                    duration=stall_duration,
                    direction=direction,
                    device=pick_device(),
                )
            )
        for t in times(power_dropout_rate):
            faults.append(
                FaultSpec(
                    FaultKind.POWER_DROPOUT,
                    t,
                    duration=dropout_duration,
                    device=pick_device(),
                )
            )
        for t in times(device_loss_rate):
            faults.append(
                FaultSpec(FaultKind.DEVICE_LOSS, t, device=pick_device())
            )
        for t in times(device_throttle_rate):
            faults.append(
                FaultSpec(
                    FaultKind.DEVICE_THROTTLE,
                    t,
                    duration=throttle_duration,
                    factor=throttle_factor,
                    device=pick_device(),
                )
            )
        # Gray kinds draw last, mirroring how the fleet kinds were
        # appended after the original four: a zero rate consumes no
        # draws, so plans generated with the pre-gray arguments stay
        # bit-identical to what older seeds produced.
        for t in times(smx_slowdown_rate):
            faults.append(
                FaultSpec(
                    FaultKind.SMX_SLOWDOWN,
                    t,
                    duration=slowdown_duration,
                    factor=slowdown_factor,
                    device=pick_device(),
                )
            )
        for t in times(dma_stretch_rate):
            direction = "HtoD" if rng.random() < 0.5 else "DtoH"
            faults.append(
                FaultSpec(
                    FaultKind.DMA_STRETCH,
                    t,
                    duration=stretch_duration,
                    factor=stretch_factor,
                    direction=direction,
                    device=pick_device(),
                )
            )
        for t in times(clock_jitter_rate):
            faults.append(
                FaultSpec(
                    FaultKind.CLOCK_JITTER,
                    t,
                    duration=jitter_duration,
                    factor=jitter_factor,
                    device=pick_device(),
                )
            )
        return cls(faults)


#: Module-level alias of :attr:`FaultPlan.CORRELATED_KINDS` (mirrors how
#: ``GRAY_KINDS`` is exposed).
CORRELATED_KINDS = FaultPlan.CORRELATED_KINDS


class FaultInjector:
    """Runtime fault state for one simulation run.

    The injector holds the plan's specs in a pending queue ordered by arm
    time.  Every engine-facing method first moves the specs due at
    ``now`` into per-kind armed queues and windows, then consumes armed
    faults that match the activity at hand.  Every applied fault is
    appended to :attr:`records` and marked as an instant on the
    ``resilience`` track of :attr:`trace`, so timelines and Chrome-trace
    exports show exactly where faults landed.  The trace also holds the
    supervisors' retry and deadline marks, the degradation steps and a
    ``dma_stall`` span over each interval a copy engine stood stalled.
    """

    def __init__(self, env, plan: Optional[FaultPlan] = None) -> None:
        self.env = env
        self.plan = plan if plan is not None else FaultPlan()
        self.trace = TraceRecorder()
        self.records: List[FaultRecord] = []
        self._pending: Deque[FaultSpec] = deque(self.plan.faults)
        # Kernel hangs and launch failures share one queue so a submit
        # consumes the earliest-armed matching kernel fault of either kind.
        self._armed_kernel: Deque[FaultSpec] = deque()
        self._armed_stalls: Deque[FaultSpec] = deque()
        # Armed windows per kind, in arm order; each window is recorded
        # once, on the first activity it actually affects.
        self._windows: Dict[FaultKind, List[FaultSpec]] = {
            kind: [] for kind in WINDOW_KINDS
        }
        self._noted: set = set()
        # Per-window jitter streams, created lazily and seeded from the
        # spec itself so every draw is independent of global rng state.
        self._jitter_rng: Dict[int, np.random.Generator] = {}

    def __repr__(self) -> str:
        return (
            f"<FaultInjector applied={len(self.records)} "
            f"pending={len(self._pending)}>"
        )

    # -- arming ------------------------------------------------------------

    def _arm(self, now: float) -> None:
        """Arm every pending fault whose time has been reached.

        Harness crashes and device losses are dropped here: the serving
        engine schedules crashes up front and the fleet registry runs its
        own loss processes, so no engine hook consumes them.
        """
        pending = self._pending
        while pending and pending[0].time <= now:
            spec = pending.popleft()
            if spec.kind in (FaultKind.KERNEL_HANG, FaultKind.LAUNCH_FAIL):
                self._armed_kernel.append(spec)
            elif spec.kind is FaultKind.DMA_STALL:
                self._armed_stalls.append(spec)
            elif spec.kind in self._windows:
                self._windows[spec.kind].append(spec)

    def _open(
        self, kind: FaultKind, now: float, direction: Optional[str] = None
    ) -> List[FaultSpec]:
        """The armed windows of ``kind`` open at ``now``, in arm order.

        Expired windows are dropped.  With a ``direction``, windows pinned
        to the other direction are skipped (but kept until they expire).
        """
        self._arm(now)
        live = [
            spec
            for spec in self._windows[kind]
            if now < spec.time + spec.duration
        ]
        self._windows[kind] = live
        return [
            spec
            for spec in live
            if now >= spec.time
            and (
                direction is None
                or spec.direction is None
                or spec.direction == direction
            )
        ]

    def _note(self, spec: FaultSpec, target: Optional[str], detail: str) -> None:
        """Record a window the first time it affects an activity."""
        if id(spec) not in self._noted:
            self._noted.add(id(spec))
            self._record(spec, target, detail)

    # -- accounting --------------------------------------------------------

    @property
    def applied_count(self) -> int:
        """Total faults applied so far."""
        return len(self.records)

    def applied_counts(self) -> Dict[str, int]:
        """Applied faults per kind (kind value -> count)."""
        return dict(Counter(r.kind.value for r in self.records))

    def _record(
        self,
        spec: FaultSpec,
        target: Optional[str],
        detail: str,
    ) -> FaultRecord:
        record = FaultRecord(
            kind=spec.kind,
            scheduled=spec.time,
            applied=self.env.now,
            target=target,
            detail=detail,
        )
        self.records.append(record)
        self.trace.mark(
            track=RESILIENCE_TRACK,
            category="fault",
            name=spec.kind.value,
            time=self.env.now,
            target=target or "",
            scheduled=spec.time,
            detail=detail,
        )
        return record

    # -- engine-facing consumption ----------------------------------------

    def kernel_fault(self, app_id: Optional[str], now: float) -> Optional[FaultSpec]:
        """Armed kernel fault matching ``app_id``, consumed, or ``None``.

        Called by the grid engine once per kernel-launch submission.  The
        caller applies the returned spec (fail the launch or inflate the
        grid's block duration) — recording happens here.
        """
        self._arm(now)
        for i, spec in enumerate(self._armed_kernel):
            if spec.matches(app_id):
                del self._armed_kernel[i]
                detail = (
                    f"factor={spec.factor:g}"
                    if spec.kind is FaultKind.KERNEL_HANG
                    else "transient launch failure"
                )
                self._record(spec, app_id, detail)
                return spec
        return None

    def dma_stall(self, direction: str, now: float) -> float:
        """Total armed stall seconds for ``direction``, consumed.

        Called by a copy engine immediately before serving a command;
        every matching armed stall is applied (summed) and recorded, and
        the engine's frozen interval ``[now, now + total]`` becomes one
        ``dma_stall`` span on the engine's track.
        """
        self._arm(now)
        track = f"dma-{direction.lower()}"
        total = 0.0
        remaining: Deque[FaultSpec] = deque()
        for spec in self._armed_stalls:
            if spec.direction is None or spec.direction == direction:
                total += spec.duration
                self._record(spec, track, f"stall={spec.duration:g}s")
            else:
                remaining.append(spec)
        self._armed_stalls = remaining
        if total > 0:
            self.trace.record(
                track=track,
                category="dma_stall",
                name="injected stall",
                start=now,
                end=now + total,
            )
        return total

    def throttle_factor(self, now: float) -> float:
        """Combined slowdown of every open throttle window at ``now``.

        Called by the grid engine once per kernel-launch submission; the
        returned factor multiplies the grid's block duration.  ``1.0``
        when no DEVICE_THROTTLE window is open.  Each window is recorded
        once, on the first submission it slows down.
        """
        factor = 1.0
        for spec in self._open(FaultKind.DEVICE_THROTTLE, now):
            factor *= spec.factor
            self._note(
                spec,
                f"device-{spec.effective_device}",
                f"throttle x{spec.factor:g} for {spec.duration:g}s",
            )
        return factor

    def throttle_active(self, now: float) -> bool:
        """Whether any DEVICE_THROTTLE window is open at ``now``.

        A read-only probe for the fleet health monitor's classification.
        It arms due specs, as every consumer does before it reads, but
        does *not* record the window as applied (only a slowed-down
        submission does).
        """
        return bool(self._open(FaultKind.DEVICE_THROTTLE, now))

    def smx_slowdown(self, now: float) -> float:
        """Combined gray compute slowdown at ``now`` (cohort placement).

        Called by the grid engine once per cohort-retirement scheduling;
        the returned factor multiplies the cohort's retirement duration.
        ``1.0`` when no SMX_SLOWDOWN window is open.  Each window is
        recorded once, on the first cohort it slows.
        """
        factor = 1.0
        for spec in self._open(FaultKind.SMX_SLOWDOWN, now):
            factor *= spec.factor
            self._note(
                spec,
                f"device-{spec.effective_device}",
                f"smx x{spec.factor:g} for {spec.duration:g}s",
            )
        return factor

    def dma_stretch(self, direction: str, now: float) -> float:
        """Combined gray DMA stretch for ``direction`` at ``now``.

        Called by a copy engine once per served command; the returned
        factor multiplies the command's wire time.  Windows pinned to the
        other direction are skipped (but kept until they expire).
        """
        factor = 1.0
        for spec in self._open(FaultKind.DMA_STRETCH, now, direction):
            factor *= spec.factor
            self._note(
                spec,
                f"dma-{direction.lower()}",
                f"stretch x{spec.factor:g} for {spec.duration:g}s",
            )
        return factor

    def clock_jitter(self, app_id: Optional[str], now: float) -> float:
        """Per-submission jitter multiplier at ``now`` (``>= 1.0``).

        Each open CLOCK_JITTER window contributes an independent draw
        uniform in ``[1, factor)`` from a stream seeded by the window's
        own ``(time, device)`` identity — deterministic for a given plan
        no matter what else the run draws.
        """
        factor = 1.0
        for spec in self._open(FaultKind.CLOCK_JITTER, now):
            rng = self._jitter_rng.get(id(spec))
            if rng is None:
                rng = np.random.default_rng(
                    [
                        zlib.crc32(b"clock-jitter"),
                        int(round(spec.time * 1e9)) & 0x7FFFFFFF,
                        spec.effective_device,
                    ]
                )
                self._jitter_rng[id(spec)] = rng
            factor *= 1.0 + (spec.factor - 1.0) * float(rng.random())
            self._note(
                spec,
                app_id,
                f"jitter <=x{spec.factor:g} for {spec.duration:g}s",
            )
        return factor

    def gray_active(self, now: float) -> bool:
        """Whether any gray-degradation window is open at ``now``.

        A read-only probe (mirrors :meth:`throttle_active`): does *not*
        record windows as applied — only a slowed activity does.
        """
        return any(self._open(kind, now) for kind in GRAY_KINDS)

    def drop_power_sample(self, now: float) -> bool:
        """Whether the power sample at ``now`` falls in a dropout window."""
        windows = self._open(FaultKind.POWER_DROPOUT, now)
        for spec in windows:
            self._note(spec, "power-monitor", f"window={spec.duration:g}s")
        return bool(windows)

    # -- framework-facing marks -------------------------------------------

    def mark_retry(self, app_id: str, attempt: int, delay: float) -> None:
        """Trace-mark a retry decision (no fault accounting)."""
        self.trace.mark(
            track=RESILIENCE_TRACK,
            category="retry",
            name=f"{app_id} retry#{attempt}",
            time=self.env.now,
            app=app_id,
            attempt=attempt,
            backoff=delay,
        )

    def mark_deadline(self, app_id: str, deadline: float) -> None:
        """Trace-mark a watchdog cancellation."""
        self.trace.mark(
            track=RESILIENCE_TRACK,
            category="deadline",
            name=f"{app_id} deadline",
            time=self.env.now,
            app=app_id,
            deadline=deadline,
        )

    def mark_degrade(self, faults: int, limit: int) -> None:
        """Trace-mark a fault-triggered concurrency step-down."""
        self.trace.mark(
            track=RESILIENCE_TRACK,
            category="degrade",
            name=f"NS->{limit}",
            time=self.env.now,
            faults=faults,
            limit=limit,
        )
