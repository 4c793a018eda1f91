"""Unit tests for :mod:`repro.sim.events`."""

import pytest

from repro.sim.engine import Environment
from repro.sim.errors import EventError, ScheduleError
from repro.sim.events import AllOf, AnyOf, ConditionValue, Event, Timeout


class TestEvent:
    def test_starts_pending(self, env):
        evt = Event(env)
        assert not evt.triggered
        assert not evt.processed

    def test_value_unavailable_before_trigger(self, env):
        evt = Event(env)
        with pytest.raises(EventError):
            _ = evt.value
        with pytest.raises(EventError):
            _ = evt.ok

    def test_succeed_carries_value(self, env):
        evt = Event(env).succeed(42)
        assert evt.triggered
        assert evt.ok
        assert evt.value == 42

    def test_double_trigger_rejected(self, env):
        evt = Event(env).succeed()
        with pytest.raises(EventError):
            evt.succeed()
        with pytest.raises(EventError):
            evt.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, env):
        evt = Event(env)
        with pytest.raises(TypeError):
            evt.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        evt = Event(env)
        seen = []
        evt.callbacks.append(lambda e: seen.append(e.value))
        evt.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert evt.processed

    def test_unhandled_failure_raises_from_run(self, env):
        evt = Event(env)
        evt.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        evt = Event(env)
        evt.fail(RuntimeError("boom"))
        evt.defuse()
        env.run()  # no raise
        assert not evt.ok


class TestStamp:
    """``Event.stamp``: trigger without a calendar entry when unsubscribed."""

    def test_unsubscribed_stamp_skips_calendar(self, env):
        env.timeout(1.0)
        queued, processed = env.queue_size, env.events_processed
        evt = Event(env)
        assert evt.stamp(3.5) is evt
        assert env.queue_size == queued
        assert env.events_processed == processed
        assert evt.triggered and evt.processed and evt.ok
        assert evt.value == 3.5
        env.run()
        assert env.events_processed == processed + 1  # only the timeout

    def test_prior_subscriber_runs_at_calendar_slot_in_order(self, env):
        order = []
        first, stamped, last = Event(env), Event(env), Event(env)
        first.callbacks.append(lambda e: order.append(("first", env.now)))
        stamped.callbacks.append(lambda e: order.append((e.value, env.now)))
        last.callbacks.append(lambda e: order.append(("last", env.now)))

        def trigger_at_two():
            yield env.timeout(2.0)
            first.succeed()
            stamped.stamp("stamped")
            last.succeed()
            assert not stamped.processed  # waits for its calendar slot

        env.process(trigger_at_two())
        env.run()
        assert order == [("first", 2.0), ("stamped", 2.0), ("last", 2.0)]
        assert stamped.processed

    def test_second_trigger_rejected(self, env):
        evt = Event(env).stamp(1)
        with pytest.raises(EventError):
            evt.stamp(2)
        with pytest.raises(EventError):
            evt.succeed(2)
        with pytest.raises(EventError):
            evt.fail(RuntimeError("nope"))
        assert evt.value == 1
        subscribed = Event(env)
        subscribed.callbacks.append(lambda e: None)
        subscribed.stamp(1)
        with pytest.raises(EventError):
            subscribed.stamp(2)
        with pytest.raises(EventError):
            Event(env).succeed().stamp()

    def test_process_yielding_stamped_event_resumes_at_once(self, env):
        stamped = Event(env).stamp("ready")
        resumed = []

        def waiter():
            yield env.timeout(1.0)
            before = env.events_processed
            value = yield stamped
            resumed.append((env.now, value, env.events_processed - before))

        env.process(waiter())
        env.run()
        assert resumed == [(1.0, "ready", 0)]


class TestTimeout:
    def test_fires_at_delay(self, env):
        evt = env.timeout(5.0, value="done")
        assert env.run(until=evt) == "done"
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ScheduleError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self, env):
        evt = env.timeout(0.0)
        env.run(until=evt)
        assert env.now == 0.0

    def test_delay_property(self, env):
        assert Timeout(env, 2.5).delay == 2.5


class TestConditions:
    def test_all_of_waits_for_everything(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = env.run(until=env.all_of([t1, t2]))
        assert env.now == 2
        assert list(result.values()) == ["a", "b"]

    def test_any_of_fires_on_first(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = env.run(until=env.any_of([t1, t2]))
        assert env.now == 1
        assert result[t1] == "a"
        assert t2 not in result

    def test_empty_all_of_trivially_true(self, env):
        evt = env.all_of([])
        env.run(until=evt)
        assert env.now == 0.0

    def test_operators_compose(self, env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        t3 = env.timeout(3)
        combined = (t1 & t2) | t3
        env.run(until=combined)
        assert env.now == 2  # t1 & t2 completes before t3

    def test_nested_condition_values_flatten(self, env):
        t1 = env.timeout(1, value=1)
        t2 = env.timeout(2, value=2)
        t3 = env.timeout(3, value=3)
        result = env.run(until=(t1 & t2) & t3)
        assert sorted(result.values()) == [1, 2, 3]

    def test_condition_propagates_failure(self, env):
        bad = Event(env)
        good = env.timeout(1)
        cond = env.all_of([bad, good])
        bad.fail(ValueError("broken"))
        with pytest.raises(ValueError, match="broken"):
            env.run(until=cond)

    def test_cross_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([env.timeout(1), other.timeout(1)])


class TestConditionValue:
    def test_dict_interface(self, env):
        e1 = Event(env)
        e1._value = "x"
        cv = ConditionValue([e1])
        assert cv[e1] == "x"
        assert e1 in cv
        assert len(cv) == 1
        assert cv == {e1: "x"}
        assert list(cv.keys()) == [e1]

    def test_missing_key(self, env):
        cv = ConditionValue([])
        with pytest.raises(KeyError):
            _ = cv[Event(env)]
