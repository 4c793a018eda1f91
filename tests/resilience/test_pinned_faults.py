"""Pinned outputs of fault-injected runs.

A fixed matrix of single-device cells — :class:`TestHarness` runs with a
:class:`ResilienceConfig` (retries, watchdog deadlines, degradation) and
:func:`run_serving` runs — each armed with a seeded
:meth:`FaultPlan.generate` plan covering every kind one device consumes:
kernel hangs, launch failures, DMA stalls, power dropouts, throttles, SMX
slowdowns, DMA stretches and clock jitter.  A sha1 over every record,
makespan, energy, resilience summary and fault trace mark pins the whole
matrix, so a refactor of how injectors are built or armed must not move a
single simulated bit.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.workload import Workload
from repro.framework.harness import HarnessConfig, TestHarness
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.resilience.faults import FaultKind
from repro.serving import (
    BreakerConfig,
    ConcurrencyCapDispatcher,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)
from repro.telemetry import Tracing

pytestmark = pytest.mark.resilience

#: Expected faults per simulated second, per kind.
RATES = dict(
    kernel_hang_rate=150.0,
    launch_fail_rate=150.0,
    dma_stall_rate=150.0,
    power_dropout_rate=100.0,
    device_throttle_rate=150.0,
    smx_slowdown_rate=150.0,
    dma_stretch_rate=150.0,
    clock_jitter_rate=150.0,
)
#: Window lengths long enough to overlap the tiny-scale GPU sections.
DURATIONS = dict(
    stall_duration=2e-4,
    dropout_duration=5e-3,
    throttle_duration=5e-3,
    slowdown_duration=5e-3,
    stretch_duration=5e-3,
    jitter_duration=5e-3,
)
PAIRS = [("gaussian", "needle"), ("srad", "nn"), ("needle", "nn")]
#: Every kind a single device's injector consumes.
DEVICE_KINDS = {
    FaultKind.KERNEL_HANG,
    FaultKind.LAUNCH_FAIL,
    FaultKind.DMA_STALL,
    FaultKind.POWER_DROPOUT,
    FaultKind.DEVICE_THROTTLE,
    FaultKind.SMX_SLOWDOWN,
    FaultKind.DMA_STRETCH,
    FaultKind.CLOCK_JITTER,
}


def plan(seed, horizon):
    return FaultPlan.generate(seed, horizon, **RATES, **DURATIONS)


def harness_cells():
    """(seed, pair, memory_sync, traced) for every harness cell."""
    return [
        (seed, pair, sync, seed == 2 and sync)
        for seed in (1, 2)
        for pair in PAIRS
        for sync in (False, True)
    ]


def serving_cells():
    """(seed, queue_depth, queue_policy, traced) for every serving cell."""
    return [
        (seed, depth, policy, seed == 4 and depth == 0)
        for seed in (3, 4)
        for depth, policy in ((0, "block"), (2, "reject"))
    ]


def digest_spans(h, tracing):
    for span in tracing.spans:
        h.update(repr(span.as_dict()).encode())


def run_harness_cell(h, applied, seed, pair, sync, traced):
    workload = Workload.heterogeneous_pair(*pair, 8, scale="tiny")
    resilience = ResilienceConfig(
        plan=plan(seed, 0.022),
        retry=RetryPolicy(max_attempts=3, base_delay=5e-5),
        default_deadline=2e-3,
        degradation_threshold=2,
        seed=seed,
    )
    tracing = Tracing(seed=seed) if traced else None
    result = TestHarness(
        HarnessConfig(
            apps=workload.instantiate(),
            num_streams=8,
            memory_sync=sync,
            record_trace=True,
            seed=seed,
            resilience=resilience,
            tracing=tracing,
        )
    ).run()
    for record in result.records:
        h.update(repr(record).encode())
    h.update(repr((result.makespan, result.energy, result.total_time)).encode())
    h.update(repr(result.resilience).encode())
    for mark in result.trace.instants:
        if mark.track == "resilience":
            h.update(repr(mark).encode())
    if tracing is not None:
        digest_spans(h, tracing)
    applied.update(result.resilience.applied_faults)


def run_serving_cell(h, applied, seed, depth, policy, traced):
    arrivals = poisson_arrivals(
        1500.0, 0.02, [("gaussian", 1), ("nn", 1)], seed=seed
    )
    config = ServingConfig(
        queue_depth=depth,
        queue_policy=policy,
        breaker=BreakerConfig(threshold=2, cooldown=2e-3),
        plan=plan(seed, 0.02),
        seed=seed,
    )
    tracing = Tracing(seed=seed) if traced else None
    result = run_serving(
        arrivals,
        ConcurrencyCapDispatcher(4),
        config,
        num_streams=8,
        scale="tiny",
        tracing=tracing,
    )
    for record in result.records:
        h.update(repr(record).encode())
    h.update(
        repr(
            (result.completion_time, result.energy, result.peak_power)
        ).encode()
    )
    h.update(repr(sorted(result.outcomes.items())).encode())
    if tracing is not None:
        digest_spans(h, tracing)
    # Serving reports no per-kind summary; failures stand in for faults.
    applied["serving_failed"] += result.outcomes.get("failed", 0)


class TestPinnedFaultOutputs:
    """Exact outputs of 16 fault-injected cells (12 harness, 4 serving)."""

    #: sha1 over every cell's records, makespan/energy, resilience
    #: summary, fault trace marks and (traced cells) causal spans.
    DIGEST = "a708f751ba9745147bb4ebf0cb04c0c4dd494893"

    @pytest.fixture(scope="class")
    def matrix(self):
        h = hashlib.sha1()
        applied = Counter()
        for cell in harness_cells():
            run_harness_cell(h, applied, *cell)
        for cell in serving_cells():
            run_serving_cell(h, applied, *cell)
        return h.hexdigest(), applied

    def test_every_device_kind_applied(self, matrix):
        _, applied = matrix
        assert {k.value for k in DEVICE_KINDS} <= set(applied)
        assert applied["serving_failed"] > 0

    def test_digest(self, matrix):
        digest, _ = matrix
        assert digest == self.DIGEST
