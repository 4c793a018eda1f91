"""Unit tests for the LEFTOVER grid engine (:mod:`repro.gpu.block_scheduler`)."""

import pytest

from repro.gpu.block_scheduler import GridEngine
from repro.gpu.commands import KernelLaunchCommand
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.smx import SMXArray
from repro.gpu.specs import SMXSpec
from repro.sim.engine import Environment
from repro.sim.trace import max_overlap


def kd(blocks, tpb=256, duration=10e-6, name="k", regs=0, smem=0):
    return KernelDescriptor(
        name=name,
        grid=Dim3(blocks, 1, 1),
        block=Dim3(tpb, 1, 1),
        registers_per_thread=regs,
        shared_mem_per_block=smem,
        block_duration=duration,
    )


def make_engine(num_smx=13, admission=None, quantum=0.0):
    env = Environment()
    arr = SMXArray(num_smx, SMXSpec())
    engine = GridEngine(env, arr, admission=admission, retire_quantum=quantum)
    return env, arr, engine


def overlap(cmds):
    """Peak number of launches executing at once."""
    return max_overlap((c.started.value, c.done.value) for c in cmds)


def launch(env, engine, descriptor, stream_id=0):
    cmd = KernelLaunchCommand(env, descriptor)
    cmd.stream_id = stream_id
    engine.submit(cmd)
    return cmd


class TestSingleGrid:
    def test_small_grid_single_wave(self):
        env, arr, engine = make_engine()
        cmd = launch(env, engine, kd(8, duration=5e-6))
        env.run()
        assert cmd.done.triggered
        assert cmd.waves == 1
        assert cmd.done.value == pytest.approx(5e-6)

    def test_fan2_needs_ten_waves(self):
        """1024 blocks of 256 threads on a K20 -> 104 per wave -> 10 waves."""
        env, arr, engine = make_engine()
        cmd = launch(env, engine, kd(1024, tpb=256, duration=4e-6, name="Fan2"))
        env.run()
        assert cmd.waves == 10
        assert cmd.done.value == pytest.approx(10 * 4e-6)

    def test_started_event_on_first_block(self):
        env, arr, engine = make_engine()
        cmd = launch(env, engine, kd(300, duration=1e-6))
        env.run()
        assert cmd.started.value == pytest.approx(0.0)

    def test_resources_returned_after_completion(self):
        env, arr, engine = make_engine()
        launch(env, engine, kd(500))
        env.run()
        assert arr.resident_blocks == 0
        assert engine.active_grids == 0
        assert engine.grids_completed == 1


class TestLeftoverPolicy:
    def test_later_grid_fills_leftover_space(self):
        """A tiny kernel overlaps a device-filling one (the LEFTOVER claim)."""
        env, arr, engine = make_engine()
        big = launch(env, engine, kd(26, tpb=768, duration=100e-6, name="big"))
        tiny = launch(env, engine, kd(2, tpb=32, duration=10e-6, name="tiny"))
        env.run()
        # 768 threads/block -> 2 blocks/SMX (thread bound), leaving 14 free
        # block slots and 512 threads per SMX: tiny runs inside big's window.
        assert tiny.done.value < big.done.value
        assert tiny.started.value == pytest.approx(0.0)

    def test_oversubscription_overlaps_figure5(self):
        """Five grids totalling 1203 blocks (> 208) all overlap."""
        env, arr, engine = make_engine()
        mix = [
            kd(89, tpb=32, duration=60e-6, name="n1"),
            kd(88, tpb=32, duration=60e-6, name="n2"),
            kd(1, tpb=512, duration=50e-6, name="f1a"),
            kd(1, tpb=512, duration=50e-6, name="f1b"),
            kd(1024, tpb=256, duration=8e-6, name="Fan2"),
        ]
        assert sum(k.num_blocks for k in mix) == 1203
        cmds = [launch(env, engine, k, stream_id=i) for i, k in enumerate(mix)]
        env.run()
        assert overlap(cmds) == 5

    def test_in_order_start_for_equal_kernels(self):
        """Grids of the same shape start in arrival order."""
        env, arr, engine = make_engine()
        cmds = [
            launch(env, engine, kd(104, tpb=1024, duration=10e-6, name=f"g{i}"))
            for i in range(3)
        ]
        env.run()
        starts = [c.started.value for c in cmds]
        assert starts == sorted(starts)
        assert starts[0] < starts[1] < starts[2]

    def test_throughput_conservation(self):
        """Total block-time equals aggregate service demand (no lost work)."""
        env, arr, engine = make_engine()
        grids = [launch(env, engine, kd(104, tpb=1024, duration=7e-6, name=f"g{i}"))
                 for i in range(4)]
        env.run()
        # 1024 tpb -> 2 blocks/SMX -> 26 resident; 104 blocks = 4 clean waves
        # per grid, and grids drain strictly in order (equal footprints).
        assert all(g.waves == 4 for g in grids)
        assert env.now == pytest.approx(4 * 4 * 7e-6)


class TestAdmissionControl:
    def test_symbiosis_serializes_oversubscribed(self):
        """With sum-fits admission, oversubscribing grids do not overlap."""
        from repro.core.baselines import symbiosis_admission
        from repro.gpu.specs import tesla_k20

        admission = symbiosis_admission(tesla_k20())
        env, arr, engine = make_engine(admission=admission)
        a = launch(env, engine, kd(150, tpb=64, duration=10e-6, name="a"))
        b = launch(env, engine, kd(150, tpb=64, duration=10e-6, name="b"))
        env.run()
        # 150 + 150 = 300 > 208 -> b must wait for a.
        assert b.started.value >= a.done.value
        assert overlap([a, b]) == 1

    def test_symbiosis_allows_fitting_pair(self):
        from repro.core.baselines import symbiosis_admission
        from repro.gpu.specs import tesla_k20

        admission = symbiosis_admission(tesla_k20())
        env, arr, engine = make_engine(admission=admission)
        a = launch(env, engine, kd(100, tpb=64, duration=10e-6, name="a"))
        b = launch(env, engine, kd(100, tpb=64, duration=10e-6, name="b"))
        env.run()
        assert overlap([a, b]) == 2


class TestRetireQuantum:
    def test_quantum_rounds_up(self):
        env, arr, engine = make_engine(quantum=2e-6)
        cmd = launch(env, engine, kd(1, duration=3e-6))
        env.run()
        assert cmd.done.value == pytest.approx(4e-6)

    def test_zero_quantum_exact(self):
        env, arr, engine = make_engine(quantum=0.0)
        cmd = launch(env, engine, kd(1, duration=3e-6))
        env.run()
        assert cmd.done.value == pytest.approx(3e-6)

    def test_negative_quantum_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            GridEngine(env, SMXArray(1, SMXSpec()), retire_quantum=-1.0)

