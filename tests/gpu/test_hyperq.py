"""Unit tests for the hardware work queues (:mod:`repro.gpu.hyperq`)."""

import pytest

from repro.gpu.device import GPUDevice
from repro.gpu.hyperq import QueueFabric
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.specs import tesla_k20
from repro.sim.engine import Environment


class TestQueueFabric:
    def test_needs_one_queue(self, env):
        with pytest.raises(ValueError):
            QueueFabric(env, 0)

    def test_kepler_streams_get_distinct_queues(self, env):
        fabric = QueueFabric(env, 32)
        queues = {fabric.queue_for_stream(s).index for s in range(32)}
        assert len(queues) == 32

    def test_mapping_is_stable(self, env):
        fabric = QueueFabric(env, 32)
        q1 = fabric.queue_for_stream(5)
        q2 = fabric.queue_for_stream(5)
        assert q1 is q2

    def test_aliasing_beyond_queue_count(self, env):
        """Stream 33 shares a queue with stream 1 (mod 32) — the
        CUDA_DEVICE_MAX_CONNECTIONS aliasing behaviour."""
        fabric = QueueFabric(env, 32)
        assert fabric.queue_for_stream(1) is fabric.queue_for_stream(33)
        assert 33 in fabric.aliased_streams(1)
        assert 1 in fabric.aliased_streams(33)

    def test_fermi_single_queue(self, env):
        fabric = QueueFabric(env, 1)
        assert fabric.queue_for_stream(0) is fabric.queue_for_stream(7)

    def test_no_aliases_when_wide(self, env):
        fabric = QueueFabric(env, 32)
        for s in range(32):
            fabric.queue_for_stream(s)
        assert fabric.aliased_streams(3) == []


class TestHardwareQueue:
    def test_chain_dependencies(self, env):
        """On one queue, a command from another stream waits on the
        queue's previous tail: the device chains through the queue."""
        device = GPUDevice(env, spec=tesla_k20().with_hardware_queues(1))
        kd = KernelDescriptor("k", Dim3(1), Dim3(32), block_duration=1e-6)
        c1 = device.create_stream().enqueue_kernel(kd)
        c2 = device.create_stream().enqueue_marker()
        queue = device.fabric.queues[0]
        assert queue._tail is c2.done
        assert queue.depth_total == 2
        assert c1.ready.triggered and not c2.ready.triggered
        env.run()
        assert c2.ready.value == c1.done.value
