"""The four benchmark workloads: inputs from a seed, one execution, checks.

Each workload has a ``prepare(seed, workdir)`` step (part of set-up
time) and an ``execute(prepared)`` step (the timed section).  Both call
only public entry points of ``repro``.  ``execute`` returns an
:class:`Outcome`: the simulated results the benchmark reports, a digest
of every simulated output, and the operations attempted and failed.

A serving workload serves several independent builds of its scenario.
Each build is cut where the kernel launches its arrivals offer reach a
fixed total.  One ``gaussian`` request launches 94 kernels and the
others at most 6, so with that count alone the request count of a run
would follow the mix its seed drew.  So the ``k``-th of ``n`` builds
takes, of the :data:`CANDIDATES` scenario seeds
``(seed * n + k) * CANDIDATES + j``, the one whose cut comes closest to
a fixed request count.  Every seed tries as many candidates, so set-up
costs the same.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.apps.registry import get_app_class
from repro.core.experiments import (
    HeadlineResult,
    fig4_concurrency,
    fig7_ordering_default,
    fig8_ordering_sync,
    fig10_power_sync,
)
from repro.core.runner import ExperimentRunner
from repro.core.workload import SCALES
from repro.scheduling import BatchScheduler, SchedulerConfig, SchedulingOrder
from repro.serving import run_batched_serving
from repro.telemetry import Telemetry
from repro.workload import TrafficStats, get_scenario, run_traffic

#: Problem-size profile for every workload.  ``serve-steady`` must stay
#: on a reduced profile: at ``paper`` scale the ``steady`` scenario is
#: not below saturation (see README.md).
SCALE = "tiny"

#: Apps per cell of the paper sweep (the paper's NA=32 column).
SWEEP_APPS = 32

#: (builds, offered kernel launches per build, requests per build) of
#: the serve workloads.  The request counts are the medians of the cuts.
STEADY_BUILDS = (8, 5000, 182)
OVERLOAD_BUILDS = (16, 7500, 244)

#: Scenario seeds tried for each build; the closest fit is kept.
CANDIDATES = 4

#: Admission batch size of ``sched-batched``, and its number of builds:
#: each build is one full batch, a short window of the burst process.
BATCH_SIZE = 8
BURST_BUILDS = 140

#: Kernel launches a ``sched-batched`` build offers on average.
BURST_KERNELS = 214

#: Per-layer counters; a workload that does not touch a layer reports 0.
COUNTERS = (
    "core.headline_err_pp",
    "serving.arrivals",
    "serving.completed",
    "serving.shed",
    "serving.useful_pct",
    "serving.queue_wait_p99_ms",
    "scheduling.decisions",
    "scheduling.decide_ms",
    "scheduling.regret_ms",
    "gpu.kernels",
    "gpu.copies",
    "gpu.dma_wait_ms",
    "telemetry.series",
)


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    ops: int                  # operations attempted: arrivals or cells
    failed: int               # operations whose outputs broke a check
    completed: int            # simulated requests or apps run to completion
    goodput_rps: float        # in-SLO completions per simulated second
    p99_sojourn_s: float      # simulated p99 arrival-to-completion time
    digest: str               # sha1 over every simulated output
    counters: Dict[str, float] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class GpuTally:
    """Kernel, copy and DMA-wait totals over AppRecords."""

    def __init__(self) -> None:
        self.kernels = 0
        self.copies = 0
        self.dma_wait = 0.0

    def add(self, record) -> None:
        self.kernels += len(record.kernels)
        self.copies += len(record.transfers)
        self.dma_wait += sum(t.queueing_delay for t in record.transfers)

    def counters(self) -> Dict[str, float]:
        return {
            "gpu.kernels": self.kernels,
            "gpu.copies": self.copies,
            "gpu.dma_wait_ms": self.dma_wait * 1e3,
        }


# ---------------------------------------------------------------------------
# paper-sweep: the cells behind core.experiments.headline_numbers.
# ---------------------------------------------------------------------------


class _CellRunner(ExperimentRunner):
    """An ExperimentRunner that keeps every cell it executes."""

    def __init__(self) -> None:
        super().__init__()
        self.results = []

    def run(self, config):
        result = super().run(config)
        self.results.append(result)
        return result


def prepare_sweep(seed: int, workdir: Path):
    return seed


def execute_sweep(seed: int) -> Outcome:
    """Run the headline cells; sojourns come from the shuffled cells.

    The seed only draws the RANDOM_SHUFFLE launch orders of Fig 7/8, so
    every other cell is the same for every seed (the digest pins those).
    The p99 sojourn is taken over the apps of the shuffled cells, where
    the seed shows; goodput is over every cell.
    """
    runner = _CellRunner()
    fig4 = fig4_concurrency(na_values=(SWEEP_APPS,), scale=SCALE, runner=runner)
    fig7 = fig7_ordering_default(
        num_apps=SWEEP_APPS, scale=SCALE, runner=runner, seed=seed
    )
    fig8 = fig8_ordering_sync(
        num_apps=SWEEP_APPS, scale=SCALE, runner=runner, seed=seed
    )
    fig10 = fig10_power_sync(num_apps=SWEEP_APPS, scale=SCALE, runner=runner)
    # The same assembly as headline_numbers, which takes no ordering seed.
    max_full, avg_full = fig4.stats("full")
    max_half, avg_half = fig4.stats("half")
    max_ord7, avg_ord7 = fig7.stats()
    max_ord8, avg_ord8 = fig8.stats()
    headline = HeadlineResult(
        max_full_concurrent_improvement=max_full,
        avg_full_concurrent_improvement=avg_full,
        max_half_concurrent_improvement=max_half,
        avg_half_concurrent_improvement=avg_half,
        max_ordering_sync_improvement=max_ord8,
        avg_ordering_sync_improvement=avg_ord8,
        max_ordering_default_improvement=max_ord7,
        avg_ordering_default_improvement=avg_ord7,
        max_energy_improvement_sync=fig10.best_energy_improvement[1],
        avg_energy_improvement_sync=fig10.average_energy_improvement,
    )
    rows = headline.rows()

    digest = hashlib.sha1()
    failed = completed = 0
    sojourns: List[float] = []
    makespan = 0.0
    gpu = GpuTally()
    for result in runner.results:
        harness = result.harness
        digest.update(
            f"{result.config.label()} {harness.makespan!r} "
            f"{harness.energy!r}\n".encode()
        )
        done = [r for r in harness.records if r.ran and not r.failed]
        if len(done) != len(harness.records):
            failed += 1
        completed += len(done)
        if result.config.order is SchedulingOrder.RANDOM_SHUFFLE:
            sojourns.extend(r.complete_time - r.spawn_time for r in done)
        makespan += harness.makespan
        for record in harness.records:
            gpu.add(record)
    for row in rows:
        digest.update(f"{row['claim']} {row['measured_pct']!r}\n".encode())

    counters = gpu.counters()
    counters["core.headline_err_pp"] = sum(
        abs(r["measured_pct"] - r["paper_pct"]) for r in rows
    ) / len(rows)
    return Outcome(
        ops=len(runner.results),
        failed=failed,
        completed=completed,
        goodput_rps=completed / makespan,
        p99_sojourn_s=percentile(sojourns, 99),
        digest=digest.hexdigest(),
        counters=counters,
    )


# ---------------------------------------------------------------------------
# serve-steady / serve-overload: open-loop scenarios through run_traffic.
# ---------------------------------------------------------------------------


class CheckedStats(TrafficStats):
    """TrafficStats that also keeps sojourns and checks settlement.

    Every arrival index must settle exactly once; the digest covers each
    settled outcome in settle order.
    """

    def __init__(self, requests: int, gpu: GpuTally, telemetry=None) -> None:
        super().__init__(telemetry=telemetry)
        self.settles = bytearray(requests)
        self.extra_settles = 0
        self.sojourns: List[float] = []
        self.queue_waits: List[float] = []
        self.gpu = gpu
        self.digest = hashlib.sha1()

    def settle(self, record, arrival_time: float) -> None:
        super().settle(record, arrival_time)
        index = record.launch_index
        if 0 <= index < len(self.settles) and not self.settles[index]:
            self.settles[index] = 1
        else:
            self.extra_settles += 1
        if record.ran:
            self.sojourns.append(record.complete_time - arrival_time)
            self.queue_waits.append(record.spawn_time - arrival_time)
        self.gpu.add(record)
        self.digest.update(
            f"{index} {record.outcome} {record.complete_time!r}\n".encode()
        )

    def settled_once(self) -> bool:
        return not self.extra_settles and all(self.settles)


@dataclass
class ServeInputs:
    builds: list
    queue_depth: int
    front_door: bool
    telemetry: bool
    must_not_shed: bool


def _kernel_cost() -> Dict[str, int]:
    """Kernel launches of one request of each app type."""
    return {
        name: get_app_class(name).workload_summary(**kwargs)["kernel_launches"]
        for name, kwargs in SCALES[SCALE].items()
    }


def _cut(shaped, kernels: int, cost: Dict[str, int]) -> int:
    """Requests until the arrivals of ``shaped`` offer ``kernels``."""
    # Every request launches at least one kernel, so ``kernels`` requests
    # are enough.  Rates do not depend on the request count (no diurnal
    # class here), so a shorter build streams a prefix of this one.
    offered = requests = 0
    for arrival in shaped.build(kernels, scale=SCALE).stream():
        offered += cost[arrival.type_name]
        requests += 1
        if offered >= kernels:
            break
    return requests


def _builds(scenario: str, seed: int, shape) -> list:
    """``count`` builds cut at ``kernels``, each of about ``wanted`` requests."""
    count, kernels, wanted = shape
    cost = _kernel_cost()
    base = get_scenario(scenario)
    builds = []
    for k in range(count):
        fits = []
        for j in range(CANDIDATES):
            shaped = dataclasses.replace(
                base, seed=(seed * count + k) * CANDIDATES + j
            )
            requests = _cut(shaped, kernels, cost)
            fits.append((abs(requests - wanted), j, shaped, requests))
        _, _, shaped, requests = min(fits, key=lambda fit: fit[:2])
        builds.append(shaped.build(requests, scale=SCALE))
    return builds


def prepare_steady(seed: int, workdir: Path) -> ServeInputs:
    return ServeInputs(
        builds=_builds("steady", seed, STEADY_BUILDS),
        queue_depth=64,
        front_door=False,
        telemetry=True,
        must_not_shed=True,
    )


def prepare_overload(seed: int, workdir: Path) -> ServeInputs:
    return ServeInputs(
        builds=_builds("overload", seed, OVERLOAD_BUILDS),
        queue_depth=4,
        front_door=True,
        telemetry=False,
        must_not_shed=False,
    )


def execute_serve(inputs: ServeInputs) -> Outcome:
    digest = hashlib.sha1()
    ops = failed = completed = deadline_met = shed = series = 0
    makespan = 0.0
    sojourns: List[float] = []
    waits: List[float] = []
    gpu = GpuTally()
    for built in inputs.builds:
        telemetry = Telemetry() if inputs.telemetry else None
        stats = CheckedStats(built.requests, gpu, telemetry=telemetry)
        result = run_traffic(
            built,
            policy="reject",
            queue_depth=inputs.queue_depth,
            front_door=inputs.front_door,
            scale=SCALE,
            telemetry=telemetry,
            stats=stats,
        )
        serving = result.serving
        ok = (
            stats.settled_once()
            and stats.arrivals == built.requests
            and serving.failed == 0
            and not (inputs.must_not_shed and serving.shed)
        )
        ops += built.requests
        failed += 0 if ok else built.requests
        completed += serving.completed
        deadline_met += serving.deadline_met
        shed += serving.shed
        makespan += serving.completion_time
        sojourns.extend(stats.sojourns)
        waits.extend(stats.queue_waits)
        if telemetry is not None:
            series += sum(len(list(m.series())) for m in telemetry.registry)
        digest.update(stats.digest.digest())
    counters = gpu.counters()
    counters.update(
        {
            "serving.arrivals": ops,
            "serving.completed": completed,
            "serving.shed": shed,
            "serving.useful_pct": completed / ops * 100.0,
            "serving.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
            "telemetry.series": series,
        }
    )
    return Outcome(
        ops=ops,
        failed=failed,
        completed=completed,
        goodput_rps=deadline_met / makespan,
        p99_sojourn_s=percentile(sojourns, 99),
        digest=digest.hexdigest(),
        counters=counters,
    )


# ---------------------------------------------------------------------------
# sched-batched: burst arrivals in admission batches through the bandit.
# ---------------------------------------------------------------------------


class TimedScheduler(BatchScheduler):
    """A BatchScheduler that times each decision."""

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self.decide_s = 0.0

    def schedule(self, *args, **kwargs):
        start = time.process_time()
        try:
            return super().schedule(*args, **kwargs)
        finally:
            self.decide_s += time.process_time() - start


@dataclass
class BatchedInputs:
    builds: list
    workdir: Path


def prepare_batched(seed: int, workdir: Path) -> BatchedInputs:
    """Builds whose offered kernel launches keep to a steady total.

    Build ``k`` takes, of the :data:`CANDIDATES` scenario seeds
    ``(seed * BURST_BUILDS + k) * CANDIDATES + j``, the one that brings
    the running total closest to ``(k + 1) * BURST_KERNELS``.  Single
    builds still vary (a batch of eight holds any number of ``gaussian``
    requests), but the run's total host work no longer follows the mix
    its seed drew.
    """
    cost = _kernel_cost()
    base = get_scenario("burst")
    builds = []
    offered = 0
    for k in range(BURST_BUILDS):
        target = (k + 1) * BURST_KERNELS
        fits = []
        for j in range(CANDIDATES):
            built = dataclasses.replace(
                base, seed=(seed * BURST_BUILDS + k) * CANDIDATES + j
            ).build(BATCH_SIZE, scale=SCALE)
            kernels = sum(cost[a.type_name] for a in built.stream())
            fits.append((abs(offered + kernels - target), j, built, kernels))
        _, _, built, kernels = min(fits, key=lambda fit: fit[:2])
        offered += kernels
        builds.append(built)
    return BatchedInputs(builds=builds, workdir=workdir)


def execute_batched(inputs: BatchedInputs) -> Outcome:
    """Batch, schedule and score like ``run_traffic_batched``.

    The batching and the virtual-clock SLO scoring follow
    :func:`repro.workload.run_traffic_batched`.  One journaled scheduler
    is built here and passed to :func:`repro.serving.run_batched_serving`
    for every build, so the bandit learns across the whole run and its
    decisions can be timed.
    """
    digest = hashlib.sha1()
    ops = completed = met = failed = 0
    virtual = 0.0
    sojourns: List[float] = []
    waits: List[float] = []
    gpu = GpuTally()
    journal = inputs.workdir / "decisions.journal"
    journal.unlink(missing_ok=True)
    scheduler = TimedScheduler(
        SchedulerConfig(
            policy="bandit",
            seed=inputs.builds[0].scenario.seed,
            scale=SCALE,
            journal_path=journal,
        )
    )
    try:
        for built in inputs.builds:
            arrivals = list(built.stream())
            batches = [
                arrivals[i:i + BATCH_SIZE]
                for i in range(0, len(arrivals), BATCH_SIZE)
            ]
            result = run_batched_serving(
                [[a.type_name for a in batch] for batch in batches],
                scheduler=scheduler,
                scale=SCALE,
                seed=built.scenario.seed,
            )
            clock = 0.0
            settled = 0
            for batch, outcome in zip(batches, result.batches):
                by_type: Dict[str, list] = {}
                for arrival in batch:
                    by_type.setdefault(arrival.type_name, []).append(arrival)
                start = max(clock, batch[-1].time)
                for record in outcome.records:
                    arrival = by_type[record.type_name][record.instance]
                    done = start + record.complete_time
                    waits.append(start - arrival.time)
                    if record.ran and not record.failed:
                        settled += 1
                        sojourns.append(done - arrival.time)
                    if arrival.deadline <= 0.0 or done <= arrival.deadline:
                        met += 1
                    gpu.add(record)
                clock = start + outcome.makespan
                digest.update(
                    f"{outcome.decision.order_label} "
                    f"{outcome.decision.num_streams} "
                    f"{outcome.decision.memory_sync} "
                    f"{outcome.makespan!r}\n".encode()
                )
            ops += len(arrivals)
            completed += settled
            failed += 0 if settled == len(arrivals) else len(arrivals)
            virtual += clock
    finally:
        scheduler.close()
    counters = gpu.counters()
    counters.update(
        {
            "serving.arrivals": ops,
            "serving.completed": completed,
            "serving.shed": 0,
            "serving.useful_pct": completed / ops * 100.0,
            "serving.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
            "scheduling.decisions": len(scheduler.decisions),
            "scheduling.decide_ms": scheduler.decide_s * 1e3,
            "scheduling.regret_ms": scheduler.cumulative_regret() * 1e3,
        }
    )
    return Outcome(
        ops=ops,
        failed=failed,
        completed=completed,
        goodput_rps=met / virtual,
        p99_sojourn_s=percentile(sojourns, 99),
        digest=digest.hexdigest(),
        counters=counters,
    )


@dataclass(frozen=True)
class WorkloadDef:
    prepare: Callable
    execute: Callable


WORKLOADS: Dict[str, WorkloadDef] = {
    "paper-sweep": WorkloadDef(prepare_sweep, execute_sweep),
    "serve-steady": WorkloadDef(prepare_steady, execute_serve),
    "serve-overload": WorkloadDef(prepare_overload, execute_serve),
    "sched-batched": WorkloadDef(prepare_batched, execute_batched),
}


def stream_seconds(prepared) -> float:
    """CPU seconds to drain each build's arrival stream alone."""
    builds = getattr(prepared, "builds", ())
    start = time.process_time()
    for built in builds:
        for _ in built.stream():
            pass
    return time.process_time() - start
