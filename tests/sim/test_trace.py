"""Unit tests for :mod:`repro.sim.trace`."""

from repro.sim.trace import Span, max_overlap


def span(track="t", cat="kernel", name="k", start=0.0, end=1.0, **meta):
    return Span(track, cat, name, start, end, meta)


class TestSpan:
    def test_duration(self):
        assert span(start=1.0, end=3.5).duration == 2.5

    def test_overlaps(self):
        a = span(start=0, end=2)
        assert a.overlaps(span(start=1, end=3))
        assert not a.overlaps(span(start=2, end=3))  # touching != overlap
        assert not a.overlaps(span(start=5, end=6))


class TestRecorder:
    def test_record_and_filter(self, trace):
        trace.record("stream-0", "kernel", "Fan1", 0.0, 1.0, app="g#0")
        trace.record("stream-1", "memcpy_htod", "a", 0.5, 1.5, app="g#0")
        assert len(trace) == 2
        assert len(trace.filter(category="kernel")) == 1
        assert len(trace.filter(track="stream-1")) == 1
        assert len(trace.filter(name="Fan1")) == 1
        assert len(trace.filter(predicate=lambda s: s.duration == 1.0)) == 2

    def test_tracks_first_seen_order(self, trace):
        trace.record("b", "kernel", "k", 0, 1)
        trace.record("a", "kernel", "k", 1, 2)
        trace.record("b", "kernel", "k", 2, 3)
        assert trace.tracks() == ["b", "a"]

    def test_extent(self, trace):
        assert trace.extent() == (0.0, 0.0)
        trace.record("t", "kernel", "k", 2.0, 5.0)
        trace.record("t", "kernel", "k", 1.0, 3.0)
        assert trace.extent() == (1.0, 5.0)


class TestConcurrencyQueries:
    def test_max_concurrency_counts_overlap(self, trace):
        trace.record("s0", "kernel", "a", 0.0, 10.0)
        trace.record("s1", "kernel", "b", 1.0, 5.0)
        trace.record("s2", "kernel", "c", 2.0, 3.0)
        assert trace.max_concurrency("kernel") == 3

    def test_back_to_back_not_concurrent(self, trace):
        trace.record("s0", "kernel", "a", 0.0, 1.0)
        trace.record("s1", "kernel", "b", 1.0, 2.0)
        assert trace.max_concurrency("kernel") == 1

    def test_max_concurrency_respects_category(self, trace):
        trace.record("s0", "kernel", "a", 0.0, 1.0)
        trace.record("s0", "memcpy_htod", "x", 0.0, 1.0)
        assert trace.max_concurrency("kernel") == 1

    def test_max_overlap_over_plain_intervals(self):
        assert max_overlap([]) == 0
        assert max_overlap([(0.0, 2.0), (1.0, 3.0), (2.0, 4.0)]) == 2
        assert max_overlap([(1.0, 1.0), (1.0, 1.0)]) == 0  # empty intervals
