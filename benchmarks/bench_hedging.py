"""Hedging economics — p99 batch makespan under a gray 4x slowdown.

A fleet of 8 devices runs one compute-dense app per device; one device
is grayed with a sustained 4x SMX slowdown (it heartbeats normally, so
fail-stop failover never triggers).  Unhedged, the batch makespan is the
straggler's 4x-stretched runtime.  With hedging on, the straggler
detector flags the device from observed kernel-latency stretch and the
hedge manager races a checkpoint-forked replica on a healthy peer.

The bench sweeps batches (slow device and gray onset vary per batch),
reports the p99 batch makespan hedged vs. unhedged, and pins the PR's
acceptance bargain in ``BENCH_hedging.json``:

* hedging cuts p99 batch makespan by >= 30%;
* duplicate (wasted) kernel work stays <= 15% of the batch's kernels.

A second test pins the other half of the bargain: with gray faults
absent, enabling hedging changes *nothing* (identical records — the
detector observes, the scanner scans, nobody acts) and the hedging path
costs < 2% host time, measured by :func:`overhead.measure_overhead`.

The workload is synthetic rather than a Rodinia port because the tiny
test-scale Rodinia profiles are launch-overhead-dominated: a 4x compute
slowdown moves their makespan by a few percent, which would say nothing
about hedging.  The dense app is one device-filling 50us kernel per
phase, 40 phases, so compute dominates and every phase boundary is a
checkpoint the replica can fork from.
"""

from pathlib import Path

import pytest
from conftest import once
from overhead import measure_overhead

from repro.analysis.tables import format_table, write_csv
from repro.fleet import FleetConfig, FleetHarness, HedgeConfig
from repro.framework.kernel import (
    AppProfile,
    Buffer,
    KernelApp,
    KernelPhase,
    TransferPhase,
)
from repro.gpu.commands import CopyDirection
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.resilience.faults import FaultKind, FaultPlan
from repro.telemetry.trajectory import record_trajectory_point

DEVICES = 8
KERNELS = 40
#: Full-occupancy launches: 8 resident 256-thread blocks per SMX on the
#: 13-SMX K20 (the threads-per-SMX limit), times two scheduling waves.
#: A 13-block one-wave grid would be the degenerate minimum of compute
#: per launch and overstate the relative cost of the observation hook.
WAVES = 2
GRID_BLOCKS = 13 * 8 * WAVES
BLOCK_DURATION = 50e-6
SLOWDOWN = 4.0
BATCHES = 12

FAST_HEALTH = dict(
    heartbeat_interval=2e-5,
    detection_latency=5e-5,
    detection_jitter=1e-5,
)
#: Sweep config: scan fast enough to hedge inside a ~10 ms batch.
HEDGE = HedgeConfig(check_interval=0.2e-3)
#: Overhead config: the defaults a production fleet would run.
HEDGE_DEFAULT = HedgeConfig()

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_hedging.json"


def _dense_app(instance):
    """One device-filling compute-dense app, checkpointed per kernel."""
    buf = Buffer("data", 1 << 20)
    kernel = KernelDescriptor(
        name="dense",
        grid=Dim3(GRID_BLOCKS),
        block=Dim3(256),
        block_duration=BLOCK_DURATION,
    )
    phases = [TransferPhase(CopyDirection.HTOD, (buf,))]
    phases += [KernelPhase((kernel,)) for _ in range(KERNELS)]
    phases.append(TransferPhase(CopyDirection.DTOH, (buf,)))
    profile = AppProfile(
        name="dense",
        data_dim=f"{KERNELS}x{BLOCK_DURATION * 1e6:.0f}us",
        host_allocs=(buf,),
        device_allocs=(buf,),
        phases=tuple(phases),
    )
    return KernelApp(profile, instance=instance)


def _apps():
    return [_dense_app(i) for i in range(DEVICES)]


def _fleet(hedging, seed=0, fast_health=True):
    # FAST_HEALTH shrinks *loss-detection* timings so fail-stop faults
    # resolve inside tiny runs; straggler detection and hedge latency are
    # governed by the hedge scan interval instead, so the fault-free
    # overhead measurement runs at the default health cadence.
    health = FAST_HEALTH if fast_health else {}
    return FleetConfig(
        num_devices=DEVICES, seed=seed, hedging=hedging, **health
    )


def _gray_plan(batch):
    """Sustained 4x slowdown; slow device and onset vary per batch."""
    return FaultPlan.gray(
        batch % DEVICES,
        kind=FaultKind.SMX_SLOWDOWN,
        start=batch * 0.25e-3,
        duration=1.0,
        factor=SLOWDOWN,
    )


def _run(hedging, plan, seed=0, fast_health=True):
    return FleetHarness(
        _apps(), _fleet(hedging, seed, fast_health), plan=plan
    ).run()


def _p99(values):
    """Deterministic nearest-rank p99."""
    ordered = sorted(values)
    rank = max(0, -(-99 * len(ordered) // 100) - 1)
    return ordered[rank]


def _sweep():
    rows = []
    batch_kernels = DEVICES * KERNELS
    for batch in range(BATCHES):
        plan = _gray_plan(batch)
        unhedged = _run(None, plan, seed=batch)
        hedged = _run(HEDGE, plan, seed=batch)
        assert unhedged.completed == DEVICES
        assert hedged.completed == DEVICES
        rows.append(
            {
                "batch": batch,
                "slow_device": batch % DEVICES,
                "unhedged_ms": unhedged.makespan * 1e3,
                "hedged_ms": hedged.makespan * 1e3,
                "cut_pct": (
                    (unhedged.makespan - hedged.makespan)
                    / unhedged.makespan
                    * 100.0
                ),
                "hedges": hedged.hedges_launched,
                "wins": hedged.hedge_wins,
                "dup_kernels": hedged.duplicate_kernels,
                "dup_pct": hedged.duplicate_kernels / batch_kernels * 100.0,
            }
        )
    return rows


@pytest.mark.fleet
def test_hedging_cuts_p99_gray_makespan(benchmark, results_dir):
    rows = once(benchmark, _sweep)

    p99_unhedged = _p99([r["unhedged_ms"] for r in rows])
    p99_hedged = _p99([r["hedged_ms"] for r in rows])
    cut_pct = (p99_unhedged - p99_hedged) / p99_unhedged * 100.0
    worst_dup_pct = max(r["dup_pct"] for r in rows)

    print()
    print(
        format_table(
            rows,
            title=(
                f"Hedging under a {SLOWDOWN:.0f}x single-device slowdown "
                f"({DEVICES} devices, {KERNELS} kernels/app)"
            ),
        )
    )
    print(
        f"p99 makespan: unhedged {p99_unhedged:.3f} ms -> hedged "
        f"{p99_hedged:.3f} ms ({cut_pct:.1f}% cut); worst duplicate work "
        f"{worst_dup_pct:.1f}% of batch kernels"
    )
    write_csv(rows, results_dir / "bench_hedging.csv")
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_hedging",
        {
            "p99_unhedged_ms": p99_unhedged,
            "p99_hedged_ms": p99_hedged,
            "p99_cut_pct": cut_pct,
            "worst_dup_pct": worst_dup_pct,
        },
    )

    # Every batch hedged at least once and nothing was lost to the race.
    assert all(r["hedges"] >= 1 for r in rows)
    # The acceptance bargain.
    assert cut_pct >= 30.0, (
        f"hedging cut p99 makespan by only {cut_pct:.1f}% (need >= 30%)"
    )
    assert worst_dup_pct <= 15.0, (
        f"duplicate work reached {worst_dup_pct:.1f}% of batch kernels "
        "(budget: 15%)"
    )


def _record_key(result):
    return [
        (r.app_id, r.spawn_time, r.gpu_start, r.complete_time, r.outcome)
        for r in result.records
    ]


def _idle_off():
    return _record_key(_run(None, plan=None, fast_health=False))


def _idle_on():
    result = _run(HEDGE_DEFAULT, plan=None, fast_health=False)
    # With no gray fault the detector never classifies and the scanner
    # never acts: simulated results are identical, not merely close.
    assert result.hedges_launched == 0
    return _record_key(result)


@pytest.mark.fleet
def test_hedging_idle_is_free(benchmark, results_dir):
    measured = once(benchmark, measure_overhead, _idle_off, _idle_on)
    rows = [
        {
            "config": f"{DEVICES}dev x {KERNELS}k dense, no faults",
            **measured._asdict(),
        }
    ]
    print()
    print(format_table(rows, title="Hedging — idle-path overhead"))
    write_csv(rows, results_dir / "hedging_overhead.csv")
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_hedging",
        {"idle_overhead_pct": measured.overhead_pct},
    )

    assert measured.overhead_pct < 2.0, (
        f"idle hedging path cost {measured.overhead_pct:.2f}% of host time "
        "(budget: 2%)"
    )
