"""Cascade containment — correlated rail loss under sustained deadline load.

A fleet of 8 devices runs three back-to-back waves of compute-dense apps
(one stream per device, so each device works through its queue), every
app carrying a deadline a little past its fault-free completion.  Mid
first wave, one power rail — 2 of 8 devices, 25% of capacity — fails
fail-stop as a correlated blast.

Without containment the loss is metastable by construction: the
displaced and capacity-starved late-wave apps blow their deadlines at
completion, the harness re-runs them from scratch up to the attempt cap,
and the survivors spend the tail of the run executing work that can no
longer count — goodput (deadline-respecting first-time kernel progress)
collapses below half of post-loss capacity and stays there.  With the
containment stack on (fault-domain topology, paced migration queue,
shared retry budget, deadline shedding, brownout ladder), unfinishable
work is shed at phase boundaries and the survivors keep producing.

``BENCH_cascade.json`` pins the acceptance bargain:

* containment-on recovers to >= 95% of post-loss-capacity goodput and
  never goes metastable (below half capacity for more than the 2-window
  trip budget), while containment-off demonstrably does;
* retry amplification (executed / useful kernels) stays <= 2x with the
  budget on;
* with every containment feature off the results are byte-identical to
  a config that never heard of containment, and the full stack enabled
  but idle costs < 2% host time (:func:`overhead.measure_overhead`).

``results/bench_cascade.csv`` is the recovery timeline: per detection
window, goodput/capacity ratio and brownout level, contained vs not.
"""

from pathlib import Path
from statistics import median

import pytest
from conftest import once
from overhead import measure_overhead

from repro.analysis.tables import format_table, write_csv
from repro.fleet import (
    FleetConfig,
    FleetHarness,
    StormControlConfig,
    TopologyConfig,
)
from repro.fleet.topology import FleetTopology
from repro.framework.kernel import (
    AppProfile,
    Buffer,
    KernelApp,
    KernelPhase,
    TransferPhase,
)
from repro.gpu.commands import CopyDirection
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.resilience import BrownoutConfig, RetryBudgetConfig
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.telemetry.trajectory import record_trajectory_point

DEVICES = 8
RAILS = 4  # 2 devices per rail: losing one rail is 25% of the fleet
WAVES_PER_DEVICE = 3
APPS = DEVICES * WAVES_PER_DEVICE
KERNELS = 40
GRID_BLOCKS = 13 * 8 * 2  # two full K20 scheduling waves per launch
BLOCK_DURATION = 50e-6
#: Deadline slack past the fault-free completion: tight enough that a
#: 25% capacity loss dooms the late waves, loose enough that the early
#: waves always make it.
DEADLINE_SLACK_S = 2e-3
#: The blast lands mid first wave, measured from the GPU-section start.
BLAST_AFTER_GPU_START_S = 3e-3
#: Real rails collapse over ~hundreds of microseconds, not at once.
BLAST_SKEW_S = 2e-4

WINDOW = 1e-3
FLOOR = 0.5
TRIP_WINDOWS = 2

FAST_HEALTH = dict(
    heartbeat_interval=2e-5,
    detection_latency=5e-5,
    detection_jitter=1e-5,
)

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_cascade.json"

#: The idle measurement runs a single wave (one app per device): the
#: per-event bookkeeping cost being measured does not depend on batch
#: depth, and the three-wave scenario run is ~3x too slow to sample.
IDLE_APPS = DEVICES


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
    return [_dense_app(i) for i in range(APPS)]


def _probe(rate, *, acting):
    """Calibrated goodput probe; ``acting=False`` is a no-op ladder.

    The containment-off run still needs the *measurement* (or there is
    nothing to compare), so it carries a probe whose ladder cannot act:
    ``width_factor=1.0`` restores the same stream width it "degrades"
    to and nothing is ever shed.
    """
    acting_knobs = (
        dict(max_level=2)
        if acting
        else dict(max_level=1, width_factor=1.0, shed_types=())
    )
    return BrownoutConfig(
        window=WINDOW,
        floor=FLOOR,
        trip_windows=TRIP_WINDOWS,
        per_device_rate=rate,
        **acting_knobs,
    )


def _containment(rate):
    return dict(
        topology=TopologyConfig(rails=RAILS),
        storm=StormControlConfig(
            max_inflight_per_device=1, pace_interval=0.5e-3
        ),
        retry_budget=RetryBudgetConfig(rate=1e3, burst=4.0, shared=True),
        retry_backoff=RetryPolicy(mode="full"),
        shed_unfinishable=True,
        brownout=_probe(rate, acting=True),
    )


def _run(knobs, plan=None, deadlines=None, apps=None):
    return FleetHarness(
        [_dense_app(i) for i in range(apps)] if apps else _apps(),
        FleetConfig(num_devices=DEVICES, seed=0, **knobs, **FAST_HEALTH),
        num_streams=1,
        plan=plan,
        deadlines=deadlines,
    ).run()


def _baseline():
    """(clean result, calibrated per-device kernel rate, deadlines)."""
    clean = _run({})
    gpu0 = min(r.gpu_start for r in clean.records)
    last = max(r.complete_time for r in clean.records)
    total = sum(len(r.kernels) for r in clean.records)
    rate = total / (last - gpu0) / DEVICES
    deadlines = {
        r.app_id: r.complete_time + DEADLINE_SLACK_S for r in clean.records
    }
    return clean, gpu0, rate, deadlines


def _blast(gpu0):
    members = FleetTopology(DEVICES, TopologyConfig(rails=RAILS)).members(
        "rail", 0
    )
    return FaultPlan.correlated(
        members,
        kind=FaultKind.DEVICE_LOSS,
        time=gpu0 + BLAST_AFTER_GPU_START_S,
        skew=BLAST_SKEW_S,
        seed=0,
    )


def _amplification(result):
    """Executed kernels over useful kernels: 1.0 means no waste."""
    useful = sum(len(r.kernels) for r in result.records)
    reexecuted = sum(r.reexecuted_kernels for r in result.records)
    return (useful + reexecuted) / useful if useful else 1.0


def _post_loss_ratios(result, loss_at):
    """Goodput/capacity ratios once failover and pacing have settled,
    excluding the final two drain-down windows."""
    settled = loss_at + 2e-3
    windows = [w for w in result.goodput_windows if w["t"] > settled]
    return [w["ratio"] for w in windows[:-2]] if len(windows) > 2 else []


def _scenario():
    clean, gpu0, rate, deadlines = _baseline()
    plan = _blast(gpu0)
    contained = _run(_containment(rate), plan=plan, deadlines=deadlines)
    uncontained = _run(
        dict(brownout=_probe(rate, acting=False)),
        plan=plan,
        deadlines=deadlines,
    )
    return clean, gpu0, contained, uncontained


@pytest.mark.fleet
def test_cascade_containment_recovers_goodput(benchmark, results_dir):
    clean, gpu0, contained, uncontained = once(benchmark, _scenario)
    loss_at = gpu0 + BLAST_AFTER_GPU_START_S

    ratios_on = _post_loss_ratios(contained, loss_at)
    recovered = median(ratios_on)
    amp_on = _amplification(contained)
    amp_off = _amplification(uncontained)

    # Recovery timeline: per-window goodput ratio and ladder level.
    off_by_t = {w["t"]: w for w in uncontained.goodput_windows}
    rows = [
        {
            "t_ms": w["t"] * 1e3,
            "ratio_contained": round(w["ratio"], 3),
            "level_contained": w["level"],
            "ratio_uncontained": round(
                off_by_t[w["t"]]["ratio"], 3
            ) if w["t"] in off_by_t else "",
            "level_uncontained": off_by_t[w["t"]]["level"]
            if w["t"] in off_by_t
            else "",
        }
        for w in contained.goodput_windows
    ]
    extra = [
        w for t, w in sorted(off_by_t.items())
        if t > contained.goodput_windows[-1]["t"]
    ]
    rows += [
        {
            "t_ms": w["t"] * 1e3,
            "ratio_contained": "",
            "level_contained": "",
            "ratio_uncontained": round(w["ratio"], 3),
            "level_uncontained": w["level"],
        }
        for w in extra
    ]
    print()
    print(
        format_table(
            rows,
            title=(
                f"Recovery timeline — rail loss ({DEVICES // RAILS} of "
                f"{DEVICES} devices) at t={loss_at * 1e3:.1f} ms"
            ),
        )
    )
    print(
        f"contained: {contained.completed} completed / "
        f"{contained.shed_apps} shed, goodput {recovered:.2f}x post-loss "
        f"capacity, amplification {amp_on:.3f}x | uncontained: "
        f"{uncontained.deadline_misses} deadline-missed, "
        f"{uncontained.metastable_windows} metastable windows, "
        f"amplification {amp_off:.3f}x"
    )
    write_csv(rows, results_dir / "bench_cascade.csv")
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_cascade",
        {
            "recovered_goodput_ratio": recovered,
            "metastable_windows_contained": contained.metastable_windows,
            "metastable_windows_uncontained": uncontained.metastable_windows,
            "amplification_contained": amp_on,
            "amplification_uncontained": amp_off,
            "shed_contained": contained.shed_apps,
            "deadline_misses_uncontained": uncontained.deadline_misses,
            "storm_queued": contained.storm_queued,
        },
    )

    # Nothing is lost either way — containment sheds doomed work early,
    # the uncontained run burns attempts on it and fails it late.
    assert contained.completed + contained.shed_apps == APPS
    assert uncontained.completed + uncontained.deadline_misses == APPS
    # Every displaced app funneled through the paced queue.
    assert contained.storm_queued > 0
    assert contained.storm_released == contained.storm_queued

    # The acceptance bargain.
    assert recovered >= 0.95, (
        f"containment recovered only {recovered:.2f}x of post-loss "
        "capacity goodput (need >= 0.95)"
    )
    assert contained.metastable_windows == 0, (
        f"contained run spent {contained.metastable_windows} windows "
        "metastable (must be 0)"
    )
    assert uncontained.metastable_windows > TRIP_WINDOWS, (
        "uncontained run never went metastable — the scenario no longer "
        "demonstrates the failure mode being contained"
    )
    assert amp_on <= 2.0, (
        f"retry amplification {amp_on:.2f}x with budgets on (cap: 2x)"
    )


def _record_key(result):
    return [
        (r.app_id, r.spawn_time, r.gpu_start, r.complete_time, r.outcome)
        for r in result.records
    ]


@pytest.mark.fleet
def test_cascade_containment_idle_is_free(benchmark, results_dir):
    clean = _run({}, apps=IDLE_APPS)
    gpu0 = min(r.gpu_start for r in clean.records)
    last = max(r.complete_time for r in clean.records)
    total = sum(len(r.kernels) for r in clean.records)
    rate = total / (last - gpu0) / DEVICES
    # Deadlines no fault-free run can miss: shedding stays idle.
    generous = {r.app_id: 2 * r.complete_time for r in clean.records}

    def off():
        return _record_key(_run({}, apps=IDLE_APPS))

    def on():
        result = _run(_containment(rate), deadlines=generous, apps=IDLE_APPS)
        # With no fault the whole stack observes and never acts:
        # simulated results are identical, not merely close.
        assert result.shed_apps == 0
        assert result.storm_queued == 0
        assert result.retry_budget_granted == 0
        return _record_key(result)

    measured = once(benchmark, measure_overhead, off, on)
    rows = [
        {
            "config": f"{DEVICES}dev x {IDLE_APPS} dense apps, no faults",
            **measured._asdict(),
        }
    ]
    print()
    print(format_table(rows, title="Cascade containment — idle overhead"))
    write_csv(rows, results_dir / "cascade_overhead.csv")
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_cascade",
        {"idle_overhead_pct": measured.overhead_pct},
    )

    assert measured.overhead_pct < 2.0, (
        f"idle containment stack cost {measured.overhead_pct:.2f}% of host "
        "time (budget: 2%)"
    )
