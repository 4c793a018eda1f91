"""Edge-case coverage for the simulation engine's less-travelled paths."""

import pytest

from repro.sim.engine import Environment
from repro.sim.events import ConditionValue, Event
from repro.sim.resources import Mutex, Resource
from repro.sim.trace import TraceRecorder


class TestEnvironmentIntrospection:
    def test_queue_size_tracks_calendar(self, env):
        assert env.queue_size == 0
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.queue_size == 2
        env.run()
        assert env.queue_size == 0

    def test_event_factory(self, env):
        evt = env.event()
        assert isinstance(evt, Event)
        assert not evt.triggered


class TestConditionValueComparisons:
    def test_eq_with_other_condition_value(self, env):
        e = Event(env)
        e._value = 1
        a, b = ConditionValue([e]), ConditionValue([e])
        assert a == b

    def test_eq_with_unrelated_type(self, env):
        assert ConditionValue([]).__eq__(42) is NotImplemented

    def test_repr(self, env):
        assert "ConditionValue" in repr(ConditionValue([]))

    def test_iteration(self, env):
        e = Event(env)
        e._value = "v"
        cv = ConditionValue([e])
        assert list(cv) == [e]
        assert list(cv.items()) == [(e, "v")]


class TestEventChaining:
    def test_trigger_copies_success(self, env):
        src = Event(env).succeed("payload")
        dst = Event(env)
        dst.trigger(src)
        assert dst.triggered and dst.value == "payload"

    def test_trigger_copies_failure_and_defuses_source(self, env):
        src = Event(env)
        src.fail(RuntimeError("x"))
        dst = Event(env)
        dst.trigger(src)
        assert src.defused
        assert not dst.ok
        dst.defuse()
        env.run()


class TestResourceRepr:
    def test_repr_shows_occupancy(self, env):
        res = Resource(env, capacity=2, name="dma")
        res.request()
        text = repr(res)
        assert "dma" in text and "1/2" in text

    def test_mutex_repr(self, env):
        assert "mutex" in repr(Mutex(env))


class TestTraceRecorderMisc:
    def test_len_counts_spans_only(self):
        trace = TraceRecorder()
        trace.record("t", "kernel", "k", 0, 1)
        trace.mark("t", "launch", "k", 0)
        assert len(trace) == 1
        assert len(trace.instants) == 1

    def test_zero_duration_span_not_concurrent(self):
        trace = TraceRecorder()
        trace.record("t", "kernel", "instant", 1.0, 1.0)
        assert trace.max_concurrency("kernel") == 0
