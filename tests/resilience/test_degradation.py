"""Tests for :mod:`repro.resilience.degradation` and its fault trigger."""

import pytest

from repro.core.workload import Workload
from repro.framework.harness import HarnessConfig, TestHarness
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.resilience.degradation import ConcurrencyLadder, ConcurrencyLimiter
from repro.sim.errors import Interrupt

pytestmark = pytest.mark.resilience


class TestLadderLimit:
    """The fault trigger's halving ladder: 8 gives 8, 4, 2, 1."""

    def test_halves_every_threshold_faults(self, env):
        ladder = ConcurrencyLadder.halving(env, 8)
        limits = []
        for faults in range(9):
            ladder.step_to(faults // 2)
            limits.append(ladder.limit)
        assert limits == [8, 8, 4, 4, 2, 2, 1, 1, 1]

    def test_floor_is_one(self, env):
        for width in (1, 32):
            ladder = ConcurrencyLadder.halving(env, width)
            ladder.step_to(10_000)
            assert ladder.limit == 1
            assert ladder.gates[0].limit == 1


class TestConcurrencyLimiter:
    def _holder(self, env, limiter, held, release_after):
        yield from limiter.acquire()
        held.append(env.now)
        yield env.timeout(release_after)
        limiter.release()

    def test_admits_up_to_limit(self, env):
        limiter = ConcurrencyLimiter(env, 2)
        admitted = []
        for _ in range(4):
            env.process(self._holder(env, limiter, admitted, 1.0))
        env.run()
        # Two admitted immediately, two after the first wave releases.
        assert admitted == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_order(self, env):
        limiter = ConcurrencyLimiter(env, 1)
        order = []

        def worker(tag):
            yield from limiter.acquire()
            order.append(tag)
            yield env.timeout(0.1)
            limiter.release()

        for tag in "abcd":
            env.process(worker(tag))
        env.run()
        assert order == list("abcd")

    def test_lowering_limit_never_evicts(self, env):
        limiter = ConcurrencyLimiter(env, 4)
        admitted = []
        for _ in range(6):
            env.process(self._holder(env, limiter, admitted, 1.0))

        def cut():
            yield env.timeout(0.5)
            limiter.set_limit(1)

        env.process(cut())
        env.run()
        # Four run immediately; after the cut the remaining two serialize:
        # active drops 4 -> 0 at t=1 (all four release), then one waiter
        # is admitted at a time.
        assert admitted == [0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
        assert limiter.limit == 1
        assert limiter.active == 0

    def test_raising_limit_grants_waiters(self, env):
        limiter = ConcurrencyLimiter(env, 1)
        admitted = []
        for _ in range(3):
            env.process(self._holder(env, limiter, admitted, 10.0))

        def widen():
            yield env.timeout(1.0)
            limiter.set_limit(3)

        env.process(widen())
        env.run()
        assert admitted == [0.0, 1.0, 1.0]

    def test_interrupted_waiter_withdraws_cleanly(self, env):
        limiter = ConcurrencyLimiter(env, 1)
        outcomes = []

        def holder():
            yield from limiter.acquire()
            yield env.timeout(5.0)
            limiter.release()

        def waiter():
            try:
                yield from limiter.acquire()
                outcomes.append("acquired")
                limiter.release()
            except Interrupt:
                outcomes.append("interrupted")

        env.process(holder())
        victim = env.process(waiter())
        survivor = env.process(waiter())

        def interrupter():
            yield env.timeout(1.0)
            victim.interrupt("cancelled")

        env.process(interrupter())
        env.run()
        # The interrupted waiter left the queue without corrupting the
        # accounting: the survivor is admitted when the holder releases.
        assert outcomes == ["interrupted", "acquired"]
        assert limiter.active == 0
        assert limiter.queue_length == 0

    def test_release_without_acquire_raises(self, env):
        limiter = ConcurrencyLimiter(env, 1)
        with pytest.raises(RuntimeError):
            limiter.release()

    def test_bad_limit_rejected(self, env):
        with pytest.raises(ValueError):
            ConcurrencyLimiter(env, 0)
        with pytest.raises(ValueError):
            ConcurrencyLimiter(env, 2).set_limit(0)


class TestConcurrencyLadder:
    def test_steps_clamp_and_record(self, env):
        ladder = ConcurrencyLadder(env, (4, 2, 2), devices=3)
        assert [gate.limit for gate in ladder.gates] == [4, 4, 4]
        assert ladder.step_to(5)  # clamped to the top level
        assert ladder.level == 2
        assert [gate.limit for gate in ladder.gates] == [2, 2, 2]
        assert not ladder.step_to(3)  # already at the top
        assert ladder.step_to(-1)
        assert ladder.level == 0
        assert not ladder.step_to(0)
        assert [gate.limit for gate in ladder.gates] == [4, 4, 4]
        assert ladder.steps == [(0.0, 2, 2), (0.0, 0, 4)]

    def test_building_schedules_no_event(self, env):
        ConcurrencyLadder(env, (8, 4), devices=4)
        assert env.queue_size == 0

    def test_bad_limits_rejected(self, env):
        with pytest.raises(ValueError):
            ConcurrencyLadder(env, ())
        with pytest.raises(ValueError):
            ConcurrencyLadder(env, (2, 0))


class TestFaultTrigger:
    """The harness steps the ladder to ``faults // threshold``."""

    def test_steps_follow_ladder(self, env):
        ladder = ConcurrencyLadder.halving(env, 8)
        for faults in range(1, 6):
            ladder.step_to(faults // 2)
        assert [limit for (_, _, limit) in ladder.steps] == [4, 2]
        assert ladder.gates[0].limit == 2

    @staticmethod
    def _run(threshold):
        # Seed 1 detects four launch failures: two steps at threshold 2.
        workload = Workload.heterogeneous_pair(
            "gaussian", "needle", 8, scale="tiny"
        )
        resilience = ResilienceConfig(
            plan=FaultPlan.generate(1, 0.022, launch_fail_rate=1000.0),
            retry=RetryPolicy(max_attempts=3, base_delay=5e-5),
            default_deadline=2e-3,
            degradation_threshold=threshold,
            seed=1,
        )
        return TestHarness(
            HarnessConfig(
                apps=workload.instantiate(), num_streams=8,
                resilience=resilience,
            )
        ).run()

    def test_each_step_is_trace_marked(self):
        result = self._run(threshold=2)
        summary = result.resilience
        marks = [m for m in result.trace.instants if m.category == "degrade"]
        assert summary.faults_detected == 4
        assert summary.degradation_steps == 2
        assert [(m.name, m.meta) for m in marks] == [
            ("NS->4", {"faults": 2, "limit": 4}),
            ("NS->2", {"faults": 4, "limit": 2}),
        ]
        assert summary.final_concurrency_limit == 2

    def test_threshold_zero_never_degrades(self):
        result = self._run(threshold=0)
        assert result.resilience.faults_detected == 4
        assert result.resilience.degradation_steps == 0
        assert result.resilience.final_concurrency_limit == 8
        assert not [m for m in result.trace.instants if m.category == "degrade"]
