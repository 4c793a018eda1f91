"""The paper's evaluation: Figures 1-10, Table III, the headline numbers,
homogeneous scaling and four ablations.

``test_experiment`` runs every entry of
:data:`repro.core.registry.EXPERIMENTS` at the paper's problem sizes
(``REPRO_SCALE=small`` for a quick pass), writes its CSVs to ``results/``,
prints its tables and summary, then checks the paper's claims with the
entry's ``check_<name>`` function below: who wins, by roughly what factor,
and where the crossovers fall.  The quantitative bands are calibrated at
the paper's Table III sizes; reduced scales keep the directional checks.
"""

from conftest import once

import numpy as np
import pytest

from repro.analysis.tables import format_table, write_csv
from repro.core.baselines import symbiosis_admission
from repro.core.experiments import fig5_oversubscription, fig7_ordering_default
from repro.core.registry import EXPERIMENTS
from repro.gpu.commands import CopyDirection
from repro.gpu.specs import tesla_k20
from repro.scheduling.orders import (
    FIGURE_3,
    SchedulingOrder,
    make_schedule,
    ordering_rows,
)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(name, benchmark, runner, scale, results_dir):
    experiment = EXPERIMENTS[name]
    result = once(benchmark, experiment, scale=scale, runner=runner)
    print()
    for table in experiment.tables:
        rows = table.rows(result)
        write_csv(rows, results_dir / table.csv_name)
        print(format_table(rows, title=table.title))
    if experiment.summary is not None:
        print(experiment.summary(result))
    globals()["check_" + name.replace("-", "_")](result, scale, runner)


def check_fig1(study, scale, runner):
    """Figure 1: independent streams' small HtoD copies interleave in the
    single copy queue, stalling kernel starts while compute sits idle."""
    NUM_APPS = len(study.default_run.harness.records)

    # The copy queue interleaves: far more handovers than app boundaries.
    switches = study.interleaving_switches(study.default_trace)
    assert switches > NUM_APPS

    # Kernels stall on stretched transfers: every app's Le exceeds its own
    # uncontended service time.
    stretched = 0
    for rec in study.default_run.harness.records:
        le = rec.effective_latency(CopyDirection.HTOD)
        pure = rec.pure_transfer_time(CopyDirection.HTOD)
        if le is not None and le > 1.5 * pure:
            stretched += 1
    assert stretched >= NUM_APPS // 2


def check_fig2(study, scale, runner):
    """Figure 2: with the Section III-B host mutex each stream's transfers
    run consecutively, and the copy queue hands over at most once per app."""
    NUM_APPS = len(study.default_run.harness.records)
    default_row, sync_row = study.rows()

    # Burst service: at most one handover per application boundary.
    assert study.interleaving_switches(study.sync_trace) <= NUM_APPS
    # And strictly fewer than the interleaved case.
    assert (
        study.interleaving_switches(study.sync_trace)
        < study.interleaving_switches(study.default_trace)
    )
    # Effective latency recovered (the Figure 2 "consecutive" claim).
    assert (
        sync_row["avg_effective_latency_ms"]
        < default_row["avg_effective_latency_ms"]
    )


def check_fig3(orders, scale, runner):
    """Figure 3: every schedule matches the paper's layout (m = n = 4)."""
    # The four deterministic panels match Figure 3 exactly.
    for name, expected in FIGURE_3.items():
        assert orders[name] == expected, name
    # The shuffle panel is a permutation with preserved type counts.
    shuffle = orders["random-shuffle"]
    assert sorted(shuffle) == sorted(FIGURE_3["naive-fifo"])


def check_fig4(result, scale, runner):
    """Figure 4: half- (NA = 2 NS) and full-concurrent (NA = NS) improvement
    over serialized execution, per pair and NA, under LEFTOVER.

    Paper: up to 56% (avg 23.6%) half-concurrent, up to 59% (avg 24.8%)
    full-concurrent.  Compute-saturating pairs (with gaussian) improve
    least; transfer-light mixes improve most.
    """
    max_full, avg_full = result.stats("full")

    # Every cell beats serial.
    assert all(r.improvement_pct > 0 for r in result.rows)
    # Improvements are substantial but bounded (tens of percent).  The
    # quantitative band is calibrated at the paper's Table III sizes;
    # reduced scales only keep the directional checks.
    if scale == "paper":
        assert 25.0 < max_full < 85.0
        assert 10.0 < avg_full < 60.0
    else:
        assert max_full > 20.0
    if scale != "paper":
        return
    # Who wins (paper scale): gaussian-saturated pairs improve least; the
    # best pair is a low-utilization mix.  (At reduced scales gaussian no
    # longer saturates the device and the ranking legitimately inverts.)
    by_pair = result.by_pair()
    gaussian_pairs = [p for p in by_pair if "gaussian" in p]
    other_pairs = [p for p in by_pair if "gaussian" not in p]
    best_gaussian = max(
        r.improvement_pct for p in gaussian_pairs for r in by_pair[p]
    )
    best_other = max(
        r.improvement_pct for p in other_pairs for r in by_pair[p]
    )
    assert best_other > best_gaussian


def check_fig5(result, scale, runner):
    """Figure 5: 89 + 88 needle blocks, two single-block Fan1 launches and
    the 1024-block Fan2 (1203 blocks against the K20's 208-block ceiling)
    all execute concurrently on five streams under LEFTOVER."""
    # The Figure 5 claims.
    assert result.total_requested_blocks == 1203
    assert result.device_block_ceiling == 208
    assert result.oversubscribed
    assert result.max_kernel_concurrency == 5
    assert result.makespan < result.serialized_makespan


def check_fig6(result, scale, runner):
    """Figure 6: the default stretches the average effective HtoD latency
    up to ~8x over expectation; synchronization restores the expected
    estimate."""
    # Monotone stretch with concurrency; the paper's ~8x regime is reached.
    ratios = [r.default_ratio for r in result.rows]
    assert ratios == sorted(ratios)
    assert result.worst_default_ratio > 6.0
    # Synchronized latency equals the expected estimate (within 20%).
    assert all(0.8 <= r.sync_ratio <= 1.2 for r in result.rows)


def check_fig7(result, scale, runner):
    """Figure 7: all five launch orders per pair at NS = NA = 32, default
    transfers.  Paper: order matters by up to 9.4% (3.8% on average)."""
    mx, avg = result.stats()

    # Every pair's worst order normalizes to exactly 1.0.
    for pair, pair_rows in result.by_pair().items():
        norms = [r.normalized_performance for r in pair_rows]
        assert min(norms) == 1.0
        assert all(n >= 1.0 for n in norms)
    # Order matters, but modestly without the mutex (quantitative band
    # calibrated at paper scale).
    if scale == "paper":
        assert 1.0 < mx < 25.0
        assert 0.3 < avg < 15.0
    else:
        assert mx > 0.0


def check_fig8(result, scale, runner):
    """Figure 8: Figure 7's sweep with the transfer mutex, which makes the
    HtoD phase a strict burst sequence in launch order.  Paper: up to
    31.8% (7.8% on average), more than without the mutex."""
    NUM_APPS = EXPERIMENTS["fig8"].options["apps"]["default"]
    mx, avg = result.stats()

    # Order matters substantially more than single digits for some pair
    # (quantitative band calibrated at paper scale).
    if scale == "paper":
        assert mx > 8.0
        assert avg > 2.0
    else:
        assert mx > 0.0

    # And more than without the mutex (Figure 8 vs Figure 7) — the paper's
    # "additional benefits of memory synchronization ... with respect to
    # application ordering".
    default = fig7_ordering_default(num_apps=NUM_APPS, scale=scale, runner=runner)
    mx7, avg7 = default.stats()
    print(f"(figure 7 spread for comparison: max {mx7:.1f}% avg {avg7:.1f}%)")
    if scale == "paper":
        assert mx >= mx7
        assert avg >= avg7


def check_fig9(result, scale, runner):
    """Figure 9: power for 32 {gaussian, needle} apps on 1, 16 and 32
    streams, plus the full-vs-serial energy reduction of every pair.
    Paper: peak power rises slightly, energy drops 8.5% on average, up
    to 22.9% for {needle, srad}."""
    _, best = result.best_energy_improvement

    serial, half, full = result.scenarios
    # Active power rises with concurrency (sublinearly), never falls.
    assert full.average_power > serial.average_power
    assert full.peak_power >= serial.peak_power
    # Makespan shrinks with added streams (half and full are within noise
    # of each other on this pair, as in the paper's Figure 4).
    assert half.makespan <= serial.makespan
    assert full.makespan <= half.makespan * 1.03
    # The energy claim: positive reduction for every pair, solid average.
    assert all(v > 0 for v in result.energy_improvement_by_pair.values())
    assert result.average_energy_improvement > 4.0
    assert best > 15.0


def check_fig10(result, scale, runner):
    """Figure 10: the transfer mutex is power-neutral at 32 apps on 32
    streams, and its shorter makespan saves energy: 10.4% on average
    across pairs, up to 25.7%."""
    _, best = result.best_energy_improvement

    # Power-neutrality of the synchronization technique.
    assert abs(result.power_delta_pct) < 12.0
    # Energy reduction for every pair, average in the paper's band.
    assert all(v > 0 for v in result.energy_improvement_by_pair.values())
    assert result.average_energy_improvement > 5.0
    assert best > 15.0


#: The paper's Table III, keyed by kernel.
PAPER_TABLE_3 = {
    "Fan1": dict(calls=511, block_dim=(512, 1, 1), max_blocks=1, tpb=512),
    "Fan2": dict(calls=511, block_dim=(16, 16, 1), max_blocks=1024, tpb=256),
    "needle_cuda_shared_1": dict(calls=16, block_dim=(32, 1, 1), max_blocks=16, tpb=32),
    "needle_cuda_shared_2": dict(calls=15, block_dim=(32, 1, 1), max_blocks=15, tpb=32),
    "srad_cuda_1": dict(calls=10, block_dim=(16, 16, 1), max_blocks=1024, tpb=256),
    "srad_cuda_2": dict(calls=10, block_dim=(16, 16, 1), max_blocks=1024, tpb=256),
    "euclid": dict(calls=1, block_dim=(256, 1, 1), max_blocks=168, tpb=256),
}


def check_table3(rows, scale, runner):
    """Table III: every geometry row matches the published values."""
    by_kernel = {r["kernel"]: r for r in rows}
    assert set(by_kernel) == set(PAPER_TABLE_3)
    for kernel, expected in PAPER_TABLE_3.items():
        row = by_kernel[kernel]
        assert row["calls"] == expected["calls"], kernel
        assert row["block_dim"] == str(expected["block_dim"]), kernel
        assert row["max_blocks"] == expected["max_blocks"], kernel
        assert row["threads_per_block"] == expected["tpb"], kernel


def check_headline(result, scale, runner):
    """The abstract's aggregate claims ("up to 31.8% improvement in
    performance and 10.4% reduction in energy on average ... up to 59%
    improvement over serialized execution ... up to 25.4%/25.7% reduction
    in GPU energy"), from Figures 4, 7, 8 and 10."""
    rows = result.rows()

    # Direction and rough magnitude of every aggregate claim.
    by_claim = {r["claim"]: r["measured_pct"] for r in rows}

    # Concurrency alone buys tens of percent over serialized execution.
    assert by_claim["max full-concurrent improvement"] > 25.0
    if scale == "paper":
        assert by_claim["max full-concurrent improvement"] < 85.0
        assert 10.0 < by_claim["avg full-concurrent improvement"] < 60.0
        assert 25.0 < by_claim["max half-concurrent improvement"] < 85.0

    # Ordering matters more with sync than without (the sync-vs-default
    # ranking is a paper-scale property).
    if scale == "paper":
        assert (
            by_claim["max ordering improvement (sync)"]
            >= by_claim["max ordering improvement (default)"]
        )
        assert by_claim["max ordering improvement (sync)"] > 8.0

    # Energy: solid average reduction, larger best case.
    assert by_claim["avg energy reduction (sync)"] > 5.0
    assert (
        by_claim["max energy reduction (sync)"]
        > by_claim["avg energy reduction (sync)"]
    )


def check_homog(result, scale, runner):
    """Section IV's homogeneous case: underutilizers (needle: <2% thread
    occupancy; nn: transfer-bound) gain most from running copies of
    themselves, device-filling applications (gaussian's Fan2, srad) least."""
    # Concurrency never loses, even for device-filling applications
    # (the LEFTOVER "no worse than serialization" guarantee).
    assert all(r.improvement_pct > -2.0 for r in result.rows)

    if scale == "paper":
        by_app = result.by_app()
        best_per_app = {
            app: max(r.improvement_pct for r in rows_)
            for app, rows_ in by_app.items()
        }
        # The underutilizer gains far more than the device-filler.
        assert best_per_app["needle"] > best_per_app["gaussian"]


def check_ablation_ordering_shared(result, scale, runner):
    """With two applications per stream (NA = 2 NS), launch order still
    decides who serializes behind whom."""
    rows = ordering_rows(result)

    by_pair = {}
    for row in rows:
        by_pair.setdefault(row["pair"], []).append(row)
    spreads = {}
    for pair, pair_rows in by_pair.items():
        makespans = [r["makespan_ms"] for r in pair_rows]
        spreads[pair] = (max(makespans) - min(makespans)) / max(makespans) * 100
        # Exactly one worst order normalizes to 1.0.
        assert min(r["normalized_perf"] for r in pair_rows) == 1.0

    # Order still matters when streams are shared.
    assert max(spreads.values()) > 0.5


def check_ablation_hyperq(results, scale, runner):
    """The paper's premise: Fermi's single hardware queue falsely
    serializes independent streams, and Kepler's 32 queues remove that."""
    spans = [run.makespan for _, run in results]
    # More queues never hurt; full Hyper-Q strictly beats the single queue.
    assert spans[-1] < spans[0]
    for earlier, later in zip(spans, spans[1:]):
        assert later <= earlier * 1.02
    # And the win is material (false serialization is real).
    assert spans[0] / spans[-1] > 1.1


def check_ablation_admission(rows, scale, runner):
    """Section III-A: LEFTOVER does "no worse than serialization" than
    resource-sum admission control (Li et al.)."""
    # LEFTOVER never loses ("doing no worse than serialization") and wins
    # where device-filling kernels (gaussian/srad) would be refused overlap.
    for row in rows:
        assert row["leftover_advantage_pct"] > -2.0, row["pair"]
    assert max(row["leftover_advantage_pct"] for row in rows) > 3.0


def check_ablation_transfers(rows, scale, runner):
    """The paper's batching against Pai et al.'s chunking, which suits
    their 100 MB single transfers but not the paper's many small ones."""
    by_policy = {r["policy"]: r for r in rows}
    # The paper's batching gives the lowest effective latency of all.
    assert by_policy["batched (paper mutex)"]["avg_Le_ms"] == min(
        r["avg_Le_ms"] for r in rows
    )
    # Chunking *increases* interleaving and therefore effective latency
    # relative to unchunked default — wrong regime for small transfers.
    assert (
        by_policy["chunked 256KB (Pai et al.)"]["avg_Le_ms"]
        >= by_policy["default (interleave)"]["avg_Le_ms"] * 0.95
    )
    # Batching does not hurt end-to-end time materially.
    assert (
        by_policy["batched (paper mutex)"]["makespan_ms"]
        <= by_policy["default (interleave)"]["makespan_ms"] * 1.1
    )


def test_fig5_symbiosis_would_serialize(benchmark):
    """The same launch under sum-fits admission control: no overlap."""
    result = once(
        benchmark,
        fig5_oversubscription,
        admission=symbiosis_admission(tesla_k20()),
    )
    print(
        f"\nsymbiosis admission: max concurrency "
        f"{result.max_kernel_concurrency}, makespan "
        f"{result.makespan * 1e6:.0f} us"
    )
    leftover = fig5_oversubscription()
    assert result.max_kernel_concurrency < leftover.max_kernel_concurrency
    assert result.makespan > leftover.makespan


def test_schedule_generation_throughput(benchmark):
    """Raw schedule construction speed for a 512-app workload."""
    types = ["AX"] * 256 + ["AY"] * 256
    rng = np.random.default_rng(0)

    def build_all():
        out = []
        for order in SchedulingOrder:
            out.append(make_schedule(types, order, rng=rng))
        return out

    schedules = benchmark(build_all)
    assert all(sorted(s) == list(range(512)) for s in schedules)
