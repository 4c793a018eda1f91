"""Unit tests for the DMA copy engines (:mod:`repro.gpu.dma`)."""

import pytest

from repro.gpu.commands import CopyDirection, MemcpyCommand
from repro.gpu.dma import CopyEngine
from repro.gpu.specs import DMASpec
from repro.sim.engine import Environment
from repro.sim.trace import max_overlap


def make_engine(policy="interleave", bandwidth=1e9, latency=0.0):
    env = Environment()
    engine = CopyEngine(
        env,
        CopyDirection.HTOD,
        DMASpec(bandwidth=bandwidth, latency=latency),
        policy=policy,
    )
    return env, engine


def memcpy(env, nbytes, stream_id, app_id=None, buffer=""):
    cmd = MemcpyCommand(env, CopyDirection.HTOD, nbytes, buffer=buffer, app_id=app_id)
    cmd.stream_id = stream_id
    return cmd


class TestValidation:
    def test_unknown_policy(self):
        env = Environment()
        with pytest.raises(ValueError):
            CopyEngine(env, CopyDirection.HTOD, DMASpec(), policy="magic")

    def test_wrong_direction_rejected(self):
        env, engine = make_engine()
        cmd = MemcpyCommand(env, CopyDirection.DTOH, 100)
        with pytest.raises(ValueError):
            engine.submit(cmd)

    def test_zero_byte_memcpy_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            MemcpyCommand(env, CopyDirection.HTOD, 0)


class TestService:
    def test_single_transfer_timing(self):
        env, engine = make_engine(bandwidth=1e9, latency=5e-6)
        cmd = memcpy(env, 10**6, stream_id=0)
        engine.submit(cmd)
        env.run()
        assert cmd.done.value == pytest.approx(1e-3 + 5e-6)
        assert engine.commands_served == 1
        assert engine.bytes_moved == 10**6

    def test_engine_serializes_copies(self):
        """One engine: copies never overlap, whatever the stream."""
        env, engine = make_engine()
        cmds = [memcpy(env, 10**6, stream_id=sid) for sid in range(4)]
        for cmd in cmds:
            engine.submit(cmd)
        env.run()
        assert max_overlap((c.started.value, c.done.value) for c in cmds) == 1

    def test_engine_goes_idle_and_wakes(self):
        env, engine = make_engine()
        first = memcpy(env, 1000, stream_id=0)
        engine.submit(first)
        env.run()
        late = memcpy(env, 1000, stream_id=0)

        def submit_later():
            yield env.timeout(1.0)
            engine.submit(late)

        env.process(submit_later())
        env.run()
        assert late.done.value > 1.0


class TestInterleavePolicy:
    def test_round_robin_across_streams(self):
        """Pending copies from different streams alternate — Figure 1."""
        env, engine = make_engine(policy="interleave")
        a = [memcpy(env, 1000, 0, app_id="A", buffer=f"a{i}") for i in range(3)]
        b = [memcpy(env, 1000, 1, app_id="B", buffer=f"b{i}") for i in range(3)]
        for cmd in a + b:  # all of A enqueued before all of B
            engine.submit(cmd)
        env.run()
        order = sorted(a + b, key=lambda c: c.started.value)
        assert [c.app_id for c in order] == ["A", "B", "A", "B", "A", "B"]

    def test_single_stream_runs_consecutively(self):
        """With one app pending (the mutex scenario) no interleaving occurs."""
        env, engine = make_engine(policy="interleave")
        cmds = [memcpy(env, 1000, 0, app_id="A") for _ in range(4)]
        for cmd in cmds:
            engine.submit(cmd)
        env.run()
        ends = [c.done.value for c in cmds]
        starts = [c.started.value for c in cmds]
        # Back-to-back service: each starts when the previous ends.
        assert starts[1:] == pytest.approx(ends[:-1])

    def test_stream_queue_cleanup(self):
        env, engine = make_engine(policy="interleave")
        engine.submit(memcpy(env, 1000, 5))
        env.run()
        assert engine.pending_count == 0
        assert not engine._per_stream  # ring pruned


class TestFifoPolicy:
    def test_arrival_order_service(self):
        env, engine = make_engine(policy="fifo")
        a = [memcpy(env, 1000, 0, app_id="A") for _ in range(3)]
        b = [memcpy(env, 1000, 1, app_id="B") for _ in range(3)]
        for cmd in a + b:
            engine.submit(cmd)
        env.run()
        order = sorted(a + b, key=lambda c: c.started.value)
        assert [c.app_id for c in order] == ["A", "A", "A", "B", "B", "B"]

