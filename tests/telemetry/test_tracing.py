"""Deterministic causal tracing: IDs, span trees, exporters, engines."""

import json

import pytest

from repro.serving import (
    ConcurrencyCapDispatcher,
    poisson_arrivals,
    run_serving,
)
from repro.telemetry import (
    ENGINE_CATEGORIES,
    TRACING_PID,
    WAIT_CATEGORIES,
    Tracer,
    Tracing,
    spans_to_chrome_events,
    spans_to_otlp_jsonl,
    write_otlp_jsonl,
)

pytestmark = pytest.mark.tracing


def make_trace(tracer, app="app-0", leaves=2):
    ctx = tracer.start_trace(app, 0.0)
    for i in range(leaves):
        tracer.record_leaf(ctx, f"wait-{i}", "sync-wait", i * 1e-3, (i + 1) * 1e-3)
    tracer.end_trace(ctx, leaves * 1e-3, outcome="completed")
    return ctx


class TestIds:
    def test_same_seed_same_ids(self):
        a, b = Tracer(seed=7), Tracer(seed=7)
        make_trace(a)
        make_trace(b)
        assert [s.as_dict() for s in a.spans] == [s.as_dict() for s in b.spans]

    def test_different_seed_different_trace_id(self):
        a, b = Tracer(seed=7), Tracer(seed=8)
        ca, cb = make_trace(a), make_trace(b)
        assert ca.trace_id != cb.trace_id

    def test_span_ids_unique_within_trace(self):
        tracer = Tracer(seed=0)
        make_trace(tracer, leaves=64)
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids)) == 65  # root + leaves

    def test_duplicate_app_name_rejected(self):
        tracer = Tracer(seed=0)
        tracer.start_trace("app-0", 0.0)
        with pytest.raises(ValueError, match="already started"):
            tracer.start_trace("app-0", 1e-3)

    def test_scope_prefixes_and_unblocks_reuse(self):
        tracer = Tracer(seed=0)
        tracer.set_scope("batch-0")
        c0 = tracer.start_trace("app-0", 0.0)
        tracer.set_scope("batch-1")
        c1 = tracer.start_trace("app-0", 1e-3)  # same name, new scope: ok
        assert c0.trace_id != c1.trace_id
        assert tracer.root(c0.trace_id).app == "batch-0/app-0"
        assert tracer.root(c1.trace_id).app == "batch-1/app-0"


class TestRecording:
    def test_leaf_and_eager_interleave_keeps_record_order(self):
        """Span ids and view order must not depend on which API recorded
        a span — leaves buffered before an eager record still claim
        their seqs first."""
        def build(leaf_first):
            tracer = Tracer(seed=3)
            ctx = tracer.start_trace("app-0", 0.0)
            if leaf_first:
                tracer.record_leaf(ctx, "w0", "sync-wait", 0.0, 1e-3)
                tracer.record(ctx, "w1", "retry-backoff", 1e-3, 2e-3)
            else:
                # Same spans, but flushed through .spans between records.
                tracer.record_leaf(ctx, "w0", "sync-wait", 0.0, 1e-3)
                _ = tracer.spans
                tracer.record(ctx, "w1", "retry-backoff", 1e-3, 2e-3)
            tracer.end_trace(ctx, 2e-3)
            return [s.as_dict() for s in tracer.spans]

        assert build(True) == build(False)

    def test_record_returns_nestable_context(self):
        tracer = Tracer(seed=0)
        root = tracer.start_trace("app-0", 0.0)
        child = tracer.record(root, "phase", "sync-wait", 0.0, 1e-3)
        tracer.record_leaf(child, "inner", "smx-exec", 0.0, 5e-4)
        tree = tracer.span_tree(root.trace_id)
        assert tree["children"][0]["name"] == "phase"
        assert tree["children"][0]["children"][0]["name"] == "inner"

    def test_instant_is_zero_length(self):
        tracer = Tracer(seed=0)
        ctx = tracer.start_trace("app-0", 0.0)
        tracer.instant(ctx, "mark", "watchdog", 1e-3, attempt=2)
        span = tracer.spans[-1]
        assert span.duration == 0.0
        assert span.meta == {"attempt": 2}

    def test_end_trace_merges_meta(self):
        tracer = Tracer(seed=0)
        ctx = make_trace(tracer)
        root = tracer.root(ctx.trace_id)
        assert root.meta["outcome"] == "completed"
        assert root.end == pytest.approx(2e-3)

    def test_trace_ids_in_start_order(self):
        tracer = Tracer(seed=0)
        ctxs = [make_trace(tracer, f"app-{i}") for i in range(3)]
        assert tracer.trace_ids() == [c.trace_id for c in ctxs]


class TestChromeExport:
    def test_async_pairs(self):
        tracer = Tracer(seed=0)
        make_trace(tracer, leaves=1)
        events = spans_to_chrome_events(tracer.spans)
        assert [e["ph"] for e in events] == ["b", "e", "b", "e"]
        begin = events[0]
        assert begin["pid"] == TRACING_PID
        assert begin["id"] == tracer.trace_ids()[0]
        assert begin["ts"] == pytest.approx(0.0)

    def test_meta_lands_in_args_sorted(self):
        tracer = Tracer(seed=0)
        ctx = tracer.start_trace("app-0", 0.0)
        tracer.record(ctx, "w", "hedge", 0.0, 1e-3, z=1, a=2)
        begin = spans_to_chrome_events(tracer.spans)[2]
        assert list(begin["args"]) == ["a", "z"]


class TestOtlpExport:
    def test_round_trip_parse_back(self):
        tracer = Tracer(seed=9)
        make_trace(tracer, leaves=2)
        payloads = [
            json.loads(line)
            for line in spans_to_otlp_jsonl(tracer.spans).splitlines()
        ]
        assert len(payloads) == len(tracer.spans)
        for payload, span in zip(payloads, tracer.spans):
            assert payload["traceId"] == span.trace_id
            assert payload["spanId"] == span.span_id
            assert payload["parentSpanId"] == span.parent_id
            assert payload["startTimeUnixNano"] == int(round(span.start * 1e9))
            attrs = {
                a["key"]: a["value"]["stringValue"]
                for a in payload["attributes"]
            }
            assert attrs["category"] == span.category
            assert attrs["app"] == span.app

    def test_byte_stable(self):
        a, b = Tracer(seed=1), Tracer(seed=1)
        make_trace(a)
        make_trace(b)
        assert spans_to_otlp_jsonl(a.spans) == spans_to_otlp_jsonl(b.spans)

    def test_write_otlp_jsonl(self, tmp_path):
        tracer = Tracer(seed=0)
        make_trace(tracer)
        path = tmp_path / "spans.jsonl"
        write_otlp_jsonl(path, tracer.spans)
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.spans)
        assert json.loads(lines[0])["name"] == "app-0"

    def test_empty(self):
        assert spans_to_otlp_jsonl([]) == ""


def small_run(tracing):
    arrivals = poisson_arrivals(
        rate=10000.0, duration=0.002, type_mix=[("nn", 1), ("needle", 1)],
        seed=7,
    )
    return run_serving(
        arrivals, ConcurrencyCapDispatcher(3), num_streams=8, tracing=tracing
    )


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def traced(self):
        tracing = Tracing(seed=7)
        result = small_run(tracing)
        return result, tracing

    def test_tracing_off_is_byte_identical(self, traced):
        result, _ = traced
        clean = small_run(None)
        assert clean.sojourn_times == result.sojourn_times
        assert clean.completion_time == result.completion_time
        assert clean.energy == result.energy

    def test_replay_yields_identical_span_trees(self, traced):
        _, tracing = traced
        again = Tracing(seed=7)
        small_run(again)
        assert [s.as_dict() for s in again.spans] == [
            s.as_dict() for s in tracing.spans
        ]

    def test_one_trace_per_arrival(self, traced):
        result, tracing = traced
        assert len(tracing.tracer.trace_ids()) == len(result.records)

    def test_categories_are_known(self, traced):
        _, tracing = traced
        known = WAIT_CATEGORIES | ENGINE_CATEGORIES | {"app"}
        assert {s.category for s in tracing.spans} <= known

    def test_spans_stay_inside_run(self, traced):
        result, tracing = traced
        for span in tracing.spans:
            assert span.end >= span.start
            assert 0.0 <= span.start <= result.completion_time + 1e-9


class TestCrashResume:
    """Span trees and journaled alerts replay byte-identically through a
    harness crash + journal resume (the ISSUE acceptance bar)."""

    ARRIVALS = dict(
        rate=9000.0, duration=0.004,
        type_mix=[("nn", 2), ("needle", 1)], seed=11,
    )

    def _burn(self):
        from repro.telemetry import BurnRateConfig

        return BurnRateConfig(
            budget=0.05,
            windows=((1e-3, 6e-3, 2.0), (3e-3, 18e-3, 1.0)),
            min_events=3,
        )

    def _run(self, tracing, plan=None, journal_path=None, resume=False):
        from repro.serving import ServingConfig, run_serving

        arrivals = poisson_arrivals(**self.ARRIVALS)
        config = ServingConfig(seed=11, slo_factor=1.2, plan=plan)
        return run_serving(
            arrivals, ConcurrencyCapDispatcher(3), config, num_streams=8,
            journal_path=journal_path, resume=resume, tracing=tracing,
        )

    def test_resumed_spans_and_alerts_match_uncrashed_run(self, tmp_path):
        from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
        from repro.sim.errors import HarnessCrash

        reference = Tracing(
            seed=11, burn=self._burn(),
            alert_journal=tmp_path / "alerts-ref.jsonl",
        )
        ref_result = self._run(reference)

        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.HARNESS_CRASH, time=0.0015)]
        )
        crashed = Tracing(
            seed=11, burn=self._burn(),
            alert_journal=tmp_path / "alerts.jsonl",
        )
        with pytest.raises(HarnessCrash):
            self._run(crashed, plan=plan, journal_path=tmp_path / "j.jsonl")

        resumed = Tracing(
            seed=11, burn=self._burn(),
            alert_journal=tmp_path / "alerts.jsonl",
        )
        result = self._run(
            resumed, plan=plan, journal_path=tmp_path / "j.jsonl",
            resume=True,
        )

        assert result.sojourn_times == ref_result.sojourn_times
        assert [s.as_dict() for s in resumed.spans] == [
            s.as_dict() for s in reference.spans
        ]
        assert resumed.alerts == reference.alerts
