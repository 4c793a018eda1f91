"""Critical-path extraction: exact partition, sub-attribution, rollups."""

import pytest

from repro.analysis import (
    aggregate_critical_paths,
    extract_critical_paths,
    top_slowest,
)
from repro.serving import (
    ConcurrencyCapDispatcher,
    poisson_arrivals,
    run_serving,
)
from repro.telemetry import Tracer, Tracing

pytestmark = pytest.mark.tracing

MS = 1e-3


def build_trace(tracer, app, waits, end, outcome="completed", engine=()):
    """One trace from (category, start, end) wait triples + engine leaves."""
    ctx = tracer.start_trace(app, 0.0)
    for category, lo, hi in waits:
        tracer.record_leaf(ctx, category, category, lo, hi)
    for category, lo, hi in engine:
        tracer.record_leaf(ctx, category, category, lo, hi)
    tracer.end_trace(ctx, end, outcome=outcome)
    return ctx


class TestExactPartition:
    def test_measured_waits_plus_remainder_sum_to_sojourn(self):
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0",
            [("admission-queue", 0.0, 1 * MS), ("sync-wait", 2 * MS, 5 * MS)],
            end=6 * MS,
        )
        (path,) = extract_critical_paths(tracer)
        assert sum(path.categories.values()) == pytest.approx(
            path.sojourn, abs=1e-6
        )
        assert path.categories["admission-queue"] == pytest.approx(1 * MS)
        assert path.categories["sync-wait"] == pytest.approx(3 * MS)
        assert path.categories["service-other"] == pytest.approx(2 * MS)

    def test_waits_clipped_to_root_window(self):
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0",
            [("retry-backoff", -1 * MS, 1 * MS)],  # starts before arrival
            end=2 * MS,
        )
        (path,) = extract_critical_paths(tracer)
        assert path.categories["retry-backoff"] == pytest.approx(1 * MS)
        assert sum(path.categories.values()) == pytest.approx(path.sojourn)

    def test_outcome_carried_from_root_meta(self):
        tracer = Tracer(seed=0)
        build_trace(tracer, "app-0", [], end=MS, outcome="shed-deadline")
        (path,) = extract_critical_paths(tracer)
        assert path.outcome == "shed-deadline"

    def test_accepts_tracing_handle(self):
        tracing = Tracing(seed=0)
        build_trace(tracing.tracer, "app-0", [], end=MS)
        assert len(extract_critical_paths(tracing)) == 1


class TestSubAttribution:
    def test_sync_wait_splits_across_engine_leaves(self):
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0",
            [("sync-wait", 0.0, 4 * MS)],
            end=4 * MS,
            engine=[
                ("smx-exec", 0.0, 1 * MS),
                ("dma-service", 1 * MS, 2 * MS),
                ("hyperq-slot", 2 * MS, 3 * MS),
            ],
        )
        (path,) = extract_critical_paths(tracer)
        assert path.categories["smx-exec"] == pytest.approx(1 * MS)
        assert path.categories["dma-service"] == pytest.approx(1 * MS)
        assert path.categories["hyperq-slot"] == pytest.approx(1 * MS)
        assert path.categories["sync-wait"] == pytest.approx(1 * MS)  # residue
        assert sum(path.categories.values()) == pytest.approx(path.sojourn)

    def test_overlap_resolves_by_priority(self):
        # smx-exec and dma-service cover the same instant: exec wins.
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0",
            [("sync-wait", 0.0, 2 * MS)],
            end=2 * MS,
            engine=[
                ("dma-service", 0.0, 2 * MS),
                ("smx-exec", 0.0, 1 * MS),
            ],
        )
        (path,) = extract_critical_paths(tracer)
        assert path.categories["smx-exec"] == pytest.approx(1 * MS)
        assert path.categories["dma-service"] == pytest.approx(1 * MS)
        assert "sync-wait" not in path.categories

    def test_dominant_category(self):
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0", [("transfer-mutex", 0.0, 3 * MS)], end=4 * MS
        )
        (path,) = extract_critical_paths(tracer)
        assert path.dominant == "transfer-mutex"
        assert path.share("transfer-mutex") == pytest.approx(0.75)


class TestAggregation:
    @pytest.fixture
    def paths(self):
        tracer = Tracer(seed=0)
        build_trace(
            tracer, "app-0", [("admission-queue", 0.0, 2 * MS)], end=2 * MS,
            outcome="shed-deadline",
        )
        build_trace(
            tracer, "app-1", [("sync-wait", 0.0, 1 * MS)], end=2 * MS,
        )
        return extract_critical_paths(tracer)

    def test_rows_sorted_by_seconds_and_share_of_total(self, paths):
        rows = aggregate_critical_paths(paths)
        assert [r["seconds"] for r in rows] == sorted(
            (r["seconds"] for r in rows), reverse=True
        )
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_predicate_slices(self, paths):
        rows = aggregate_critical_paths(
            paths, predicate=lambda p: p.outcome != "completed"
        )
        assert [r["category"] for r in rows] == ["admission-queue"]
        assert rows[0]["share"] == pytest.approx(1.0)

    def test_top_slowest_orders_and_breaks_ties_by_app(self, paths):
        ranked = top_slowest(paths, 2)
        assert [p.app for p in ranked] == ["app-0", "app-1"]  # tie: name order
        assert top_slowest(paths, 1)[0].app == "app-0"


class TestEndToEnd:
    def test_engine_run_partitions_exactly(self):
        tracing = Tracing(seed=7)
        arrivals = poisson_arrivals(
            rate=10000.0, duration=0.002,
            type_mix=[("nn", 1), ("needle", 1)], seed=7,
        )
        run_serving(
            arrivals, ConcurrencyCapDispatcher(3), num_streams=8,
            tracing=tracing,
        )
        paths = extract_critical_paths(tracing)
        assert paths
        for path in paths:
            assert sum(path.categories.values()) == pytest.approx(
                path.sojourn, abs=1e-6
            )
