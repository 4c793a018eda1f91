"""Integration tests for :class:`repro.gpu.device.GPUDevice`."""

import hashlib

import pytest

from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.specs import fermi_c2050, tesla_k20
from repro.sim.engine import Environment
from repro.sim.trace import max_overlap


def kd(blocks=8, tpb=256, duration=10e-6, name="k"):
    return KernelDescriptor(
        name=name,
        grid=Dim3(blocks, 1, 1),
        block=Dim3(tpb, 1, 1),
        registers_per_thread=0,
        block_duration=duration,
    )


def overlap(cmds):
    """Peak number of commands executing at once."""
    return max_overlap((c.started.value, c.done.value) for c in cmds)


class TestStreamOrdering:
    def test_in_stream_fifo(self, env, device):
        """memcpy -> kernel -> memcpy execute strictly in order."""
        s = device.create_stream()
        c1 = s.enqueue_memcpy(CopyDirection.HTOD, 10**6, buffer="in")
        k = s.enqueue_kernel(kd())
        c2 = s.enqueue_memcpy(CopyDirection.DTOH, 10**6, buffer="out")
        env.run()
        assert c1.done.value <= k.started.value
        assert k.done.value <= c2.started.value

    def test_independent_streams_overlap_kernels(self, env, device):
        """Two streams' kernels overlap (Hyper-Q works)."""
        s1, s2 = device.create_stream(), device.create_stream()
        a = s1.enqueue_kernel(kd(blocks=8, duration=100e-6, name="a"))
        b = s2.enqueue_kernel(kd(blocks=8, duration=100e-6, name="b"))
        env.run()
        assert overlap([a, b]) == 2

    def test_marker_completes_in_order(self, env, device):
        s = device.create_stream()
        c = s.enqueue_memcpy(CopyDirection.HTOD, 10**6)
        m = s.enqueue_marker("after-copy")
        env.run()
        assert m.done.value == pytest.approx(c.done.value)

    def test_synchronize_event(self, env, device):
        s = device.create_stream()
        s.enqueue_memcpy(CopyDirection.HTOD, 10**6)
        s.enqueue_kernel(kd())
        done_at = []

        def waiter():
            yield s.synchronize_event()
            done_at.append(env.now)

        env.process(waiter())
        env.run()
        assert done_at and done_at[0] == env.now

    def test_synchronize_empty_stream_immediate(self, env, device):
        s = device.create_stream()
        evt = s.synchronize_event()
        assert evt.triggered

    def test_device_synchronize(self, env, device):
        s1, s2 = device.create_stream(), device.create_stream()
        k1 = s1.enqueue_kernel(kd(duration=10e-6))
        k2 = s2.enqueue_kernel(kd(duration=30e-6))
        waited = []

        def waiter():
            yield device.synchronize_event()
            waited.append(env.now)

        env.process(waiter())
        env.run()
        assert waited[0] >= max(k1.done.value, k2.done.value)


class TestFermiFalseSerialization:
    """The ablation the paper motivates Hyper-Q with."""

    def test_single_queue_serializes_independent_streams(self):
        env = Environment()
        device = GPUDevice(env, spec=fermi_c2050())
        cmds = [
            device.create_stream().enqueue_kernel(kd(blocks=4, duration=50e-6))
            for _ in range(3)
        ]
        env.run()
        assert overlap(cmds) == 1

    def test_kepler_removes_false_serialization(self):
        env = Environment()
        device = GPUDevice(env, spec=tesla_k20())
        cmds = [
            device.create_stream().enqueue_kernel(kd(blocks=4, duration=50e-6))
            for _ in range(3)
        ]
        env.run()
        assert overlap(cmds) == 3

    def test_queue_aliasing_with_many_streams(self):
        """More streams than hardware queues -> some pairs serialize."""
        env = Environment()
        device = GPUDevice(env, spec=tesla_k20().with_hardware_queues(2))
        cmds = [
            device.create_stream().enqueue_kernel(kd(blocks=1, duration=50e-6))
            for _ in range(4)
        ]
        env.run()
        # 4 streams on 2 queues: at most 2 run concurrently.
        assert overlap(cmds) == 2


class TestDmaIntegration:
    def test_copies_route_to_direction_engines(self, env, device):
        s = device.create_stream()
        up = s.enqueue_memcpy(CopyDirection.HTOD, 10**6)
        down = s.enqueue_memcpy(CopyDirection.DTOH, 10**6)
        env.run()
        assert device.dma[CopyDirection.HTOD].commands_served == 1
        assert device.dma[CopyDirection.DTOH].commands_served == 1

    def test_opposite_directions_overlap(self, env, device):
        """HtoD and DtoH engines run in parallel (two DMA engines)."""
        s1, s2 = device.create_stream(), device.create_stream()
        up = s1.enqueue_memcpy(CopyDirection.HTOD, 10**7)
        down = s2.enqueue_memcpy(CopyDirection.DTOH, 10**7)
        env.run()
        assert up.started.value == down.started.value == pytest.approx(0.0)

    def test_same_direction_serializes(self, env, device):
        s1, s2 = device.create_stream(), device.create_stream()
        a = s1.enqueue_memcpy(CopyDirection.HTOD, 10**6)
        b = s2.enqueue_memcpy(CopyDirection.HTOD, 10**6)
        env.run()
        assert overlap([a, b]) == 1


class TestPowerAccounting:
    def test_energy_accumulates_with_activity(self, env, device):
        s = device.create_stream()
        s.enqueue_kernel(kd(blocks=104, duration=100e-6))
        env.run()
        active_energy = device.power.energy()
        idle_energy = device.spec.power.idle * env.now
        assert active_energy > idle_energy

    def test_power_returns_to_idle(self, env, device):
        s = device.create_stream()
        s.enqueue_kernel(kd())
        env.run()
        assert device.power.current_power == pytest.approx(device.spec.power.idle)


class TestPinnedOutputs:
    """Exact outputs of the mixed-command run of
    ``benchmarks/bench_engine_throughput.py``: 8 streams x 25 x (HtoD,
    kernel, DtoH).  Host-side optimisations of the device model must not
    move a single simulated bit."""

    #: sha1 over every command's (ready, started, done) in enqueue order,
    #: then (energy, peak power).
    DIGEST = "0c84b26a6a36231ab631349c735bbc606777a0fa"
    #: Calendar events popped.  Command ``ready``/``started`` stamps take
    #: no calendar entry, so this is two per command (1,200) below what
    #: scheduling them would cost.
    EVENTS = 1609

    def run_mixed(self, before_run=None):
        env = Environment()
        device = GPUDevice(env)
        k = KernelDescriptor(
            "k", Dim3(64), Dim3(256), registers_per_thread=16,
            block_duration=5e-6,
        )
        cmds = []
        for stream in [device.create_stream() for _ in range(8)]:
            for _ in range(25):
                cmds.append(stream.enqueue_memcpy(CopyDirection.HTOD, 1 << 18))
                cmds.append(stream.enqueue_kernel(k))
                cmds.append(stream.enqueue_memcpy(CopyDirection.DTOH, 1 << 18))
        if before_run is not None:
            before_run(cmds)
        env.run()
        return env, device, cmds

    def test_command_times_and_energy_digest(self):
        _env, device, cmds = self.run_mixed()
        h = hashlib.sha1()
        for c in cmds:
            h.update(repr((c.ready.value, c.started.value, c.done.value)).encode())
        h.update(repr((device.power.energy(), device.power.peak_power)).encode())
        assert h.hexdigest() == self.DIGEST

    def test_events_processed(self):
        env, device, cmds = self.run_mixed()
        assert len(cmds) == 600
        assert env.events_processed == self.EVENTS

    def test_times_equal_views_stamped_during_the_run(self):
        def take_views(cmds):
            # Only each stream's head is dispatched at enqueue, and no
            # command has started before the run.
            ready = [c.ready.triggered for c in cmds]
            assert ready.count(True) == 8
            assert not any(c.started.triggered for c in cmds)

        env, _device, cmds = self.run_mixed(take_views)
        assert len(cmds) == 600
        # Views nobody subscribed to are stamped with no calendar entry.
        assert env.events_processed == self.EVENTS
        for c in cmds:
            assert c.ready.processed and c.started.processed
            assert c.ready_time is not None and c.start_time is not None
            assert (c.ready.value, c.started.value) == (
                c.ready_time, c.start_time
            )

    def test_power_matches_reference_formula(self):
        _env, device, _cmds = self.run_mixed()
        power = device.power
        assert power.current_power == power.evaluate(device.power_state())


class TestStreamManagement:
    def test_stream_ids_unique(self, env, device):
        ids = {device.create_stream().sid for _ in range(10)}
        assert len(ids) == 10

    def test_destroy_stream(self, env, device):
        s = device.create_stream()
        device.destroy_stream(s)
        assert s.sid not in device.streams
