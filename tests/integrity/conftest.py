"""Shared builders for the integrity suite.

Each ``*_store`` helper runs one tiny deterministic workload with its
journal at a caller-chosen path, exposing exactly the interface
:func:`repro.integrity.crashfuzz.run_crash_sweep` consumes: the
uninterrupted run's reference bytes plus ``resume``/``fresh`` callables
that re-run the *same* configuration against an arbitrary path.  The
stores cover every persisted-write site in the repo: the serving
outcome journal, the fleet checkpoint/failover journal (plain, hedged
and cascade variants), the batch scheduler's decision journal, the
burn-rate monitor's alert-record journal and the traffic recorder's
cursor journal — every one a :class:`~repro.serving.journal.RunJournal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

import pytest

from repro.apps.registry import get_app
from repro.core.streaming import ConcurrencyCapDispatcher, poisson_arrivals
from repro.fleet import FleetConfig, FleetHarness
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.integrity.record import JournalIntegrityError
from repro.serving import (
    JournalError,
    ServingConfig,
    run_batched_serving,
    run_serving,
)
from repro.telemetry import BurnRateConfig, Tracing

SEED = 7

#: Tight health timings so loss -> detection -> migration resolves inside
#: a tiny-scale fleet run (mirrors tests/fleet/conftest.py).
FAST_HEALTH = dict(
    heartbeat_interval=2e-5,
    detection_latency=5e-5,
    detection_jitter=1e-5,
)

_APP_SIZES = {
    "gaussian": {"n": 48},
    "needle": {"n": 64},
}


@dataclass
class Store:
    """One journaled store, packaged for the crash-point fuzzer."""

    name: str
    reference: bytes
    resume: Callable[[Path], None]
    fresh: Callable[[Path], None]
    clean_errors: Tuple[type, ...]


def _fleet_apps(count: int = 4):
    kinds = ("gaussian", "needle")
    return [
        get_app(kinds[i % 2], instance=i, **_APP_SIZES[kinds[i % 2]])
        for i in range(count)
    ]


def serving_store(base: Path) -> Store:
    """The serving layer's terminal-outcome journal."""
    arrivals = lambda: poisson_arrivals(
        rate=4000.0,
        duration=0.002,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=SEED,
    )

    def run(path: Path, resume: bool = False) -> None:
        run_serving(
            arrivals(),
            ConcurrencyCapDispatcher(2),
            ServingConfig(seed=SEED),
            num_streams=8,
            journal_path=path,
            resume=resume,
        )

    ref = base / "serving-ref.jsonl"
    run(ref)
    return Store(
        "serving",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def scheduler_store(base: Path) -> Store:
    """The adaptive batch scheduler's decision journal."""
    batch = [("gaussian", 2), ("needle", 2)]

    def run(path: Path, resume: bool = False) -> None:
        run_batched_serving(
            [batch] * 3,
            policy="bandit",
            scale="tiny",
            seed=SEED,
            journal_path=path,
            resume=resume,
        )

    ref = base / "scheduler-ref.jsonl"
    run(ref)
    return Store(
        "scheduler",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def fleet_store(base: Path) -> Store:
    """The fleet checkpoint/failover journal, with a mid-run device loss.

    The loss makes the journal representative: it carries checkpoint,
    device-lost, failover *and* terminal app records, so the sweep
    exercises recovery across every fleet record type.
    """
    fleet = FleetConfig(num_devices=2, seed=SEED, **FAST_HEALTH)

    # Place the loss mid-GPU-section of device 0's longest app, measured
    # from a clean unjournaled baseline (fault times are absolute).
    baseline = FleetHarness(
        _fleet_apps(), fleet, num_streams=2, seed=SEED
    ).run()
    on_dev0 = [r for r in baseline.records if r.device_index == 0]
    target = max(on_dev0, key=lambda r: r.complete_time - r.gpu_start)
    loss_at = (target.gpu_start + target.complete_time) / 2
    plan = FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, loss_at, device=0)])

    def run(path: Path, resume: bool = False) -> None:
        FleetHarness(
            _fleet_apps(),
            fleet,
            num_streams=2,
            seed=SEED,
            plan=plan,
            journal_path=path,
            resume=resume,
        ).run()

    ref = base / "fleet-ref.jsonl"
    run(ref)
    return Store(
        "fleet",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def hedge_store(base: Path) -> Store:
    """The fleet journal of a *hedged* run under a gray slowdown.

    A sustained 4x SMX slowdown on device 0 makes the straggler detector
    fire and the hedge manager journal ``hedge`` / ``hedge-done``
    decisions plus fenced replica checkpoints — record types the plain
    ``fleet`` store never writes, so crash points inside a speculative
    race get swept too.
    """
    from repro.fleet import HedgeConfig

    fleet = FleetConfig(
        num_devices=2,
        seed=SEED,
        hedging=HedgeConfig(check_interval=0.2e-3, budget_fraction=0.5),
        **FAST_HEALTH,
    )
    plan = FaultPlan.gray(
        0, kind=FaultKind.SMX_SLOWDOWN, start=0.0, duration=1.0, factor=4.0
    )

    def run(path: Path, resume: bool = False) -> None:
        FleetHarness(
            _fleet_apps(),
            fleet,
            plan=plan,
            journal_path=path,
            resume=resume,
        ).run()

    ref = base / "hedge-ref.jsonl"
    run(ref)
    return Store(
        "hedge",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def cascade_store(base: Path) -> Store:
    """The fleet journal of a contained correlated-failure run.

    A skewed rail loss under storm control and a tripped brownout ladder
    makes the journal carry ``migration-queued`` pacing records and
    ``brownout`` ladder transitions — the record types the containment
    work added — so crash points inside a paced failover or a level
    change get swept alongside the older stores.
    """
    from repro.fleet import StormControlConfig, TopologyConfig
    from repro.fleet.topology import FleetTopology
    from repro.resilience import BrownoutConfig

    fleet = FleetConfig(
        num_devices=4,
        seed=SEED,
        topology=TopologyConfig(rails=2),
        storm=StormControlConfig(max_inflight_per_device=1, pace_interval=2e-4),
        brownout=BrownoutConfig(
            window=2e-4, trip_windows=1, per_device_rate=1e9, max_level=1
        ),
        **FAST_HEALTH,
    )
    # Rail 0 (devices 0 and 1) collapses over ~0.1 ms mid-run: four apps
    # funnel through the migration queue onto the two survivors.
    plan = FaultPlan.correlated(
        FleetTopology(4, fleet.topology).members("rail", 0),
        kind=FaultKind.DEVICE_LOSS,
        time=1.5e-3,
        skew=1e-4,
        seed=SEED,
    )

    def run(path: Path, resume: bool = False) -> None:
        FleetHarness(
            _fleet_apps(8),
            fleet,
            num_streams=2,
            seed=SEED,
            plan=plan,
            journal_path=path,
            resume=resume,
        ).run()

    ref = base / "cascade-ref.jsonl"
    run(ref)
    return Store(
        "cascade",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def alerts_store(base: Path) -> Store:
    """The burn-rate monitor's fenced alert-record journal.

    An overloaded serving run (tight SLO, small cap) drives the monitor
    through alert / alert-resolved cycles on both lookback windows, so
    the journal carries the observability PR's record type.  The store
    journals *only* alerts — no outcome journal — exercising the
    serving path that resumes from the alert journal alone.
    """
    arrivals = lambda: poisson_arrivals(
        rate=4000.0,
        duration=0.006,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=SEED,
    )

    def run(path: Path, resume: bool = False) -> None:
        tracing = Tracing(
            seed=SEED,
            burn=BurnRateConfig(
                budget=0.05,
                windows=((1e-3, 6e-3, 2.0), (3e-3, 18e-3, 1.0)),
                min_events=2,
            ),
            alert_journal=path,
        )
        run_serving(
            arrivals(),
            ConcurrencyCapDispatcher(3),
            ServingConfig(seed=SEED, slo_factor=2.5),
            num_streams=8,
            resume=resume,
            tracing=tracing,
        )

    ref = base / "alerts-ref.jsonl"
    run(ref)
    return Store(
        "alerts",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError,),
    )


def traffic_cursor_store(base: Path) -> Store:
    """The workload recorder's trace-cursor checkpoint journal.

    Recording a small multi-tenant trace with tight checkpoints packs
    many cursor records (plus the terminal ``end`` record) into the
    store.  On resume the recorder either fast-forwards from the newest
    usable cursor or — when the sweep's scratch dir has destroyed the
    trace file — regenerates from scratch while replay-verifying every
    surviving cursor, so both recovery paths converge byte-identically.
    """
    from repro.workload import ArrivalSpec, TenantClass, TenantModel, record_trace

    model = TenantModel(
        classes=(
            TenantClass(
                name="interactive",
                arrival=ArrivalSpec("poisson", rate=2000.0),
                app_mix=(("nn", 0.7), ("gaussian", 0.3)),
                slo_factor=4.0,
                tenants=50,
                popularity="zipf",
            ),
            TenantClass(
                name="batch",
                arrival=ArrivalSpec("pareto", rate=1000.0, alpha=1.4),
                app_mix=(("needle", 1.0),),
                slo_factor=0.0,
            ),
        ),
        seed=SEED,
    )
    baselines = {"nn": 1e-3, "gaussian": 2e-3, "needle": 4e-3}
    fingerprint = "traffic-cursor-store-test"

    def run(path: Path, resume: bool = False) -> None:
        record_trace(
            model.stream(baselines, limit=200),
            path.parent / (path.name + ".trace"),
            fingerprint,
            cursor_path=path,
            cursor_every=16,
            resume=resume,
        )

    ref = base / "traffic-cursor-ref.jsonl"
    run(ref)
    return Store(
        "traffic-cursor",
        ref.read_bytes(),
        lambda p: run(p, resume=True),
        run,
        (JournalError, JournalIntegrityError),
    )


STORE_BUILDERS = {
    "serving": serving_store,
    "scheduler": scheduler_store,
    "fleet": fleet_store,
    "hedge": hedge_store,
    "cascade": cascade_store,
    "alerts": alerts_store,
    "traffic-cursor": traffic_cursor_store,
}


@pytest.fixture(scope="module", params=sorted(STORE_BUILDERS))
def store(request, tmp_path_factory) -> Store:
    """One journaled store per param, reference run already taken."""
    base = tmp_path_factory.mktemp(f"store-{request.param}")
    return STORE_BUILDERS[request.param](base)
