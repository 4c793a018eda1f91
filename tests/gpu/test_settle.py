"""The device's inline settle of finished launches against the calendar path.

A finished kernel launch settles inline (no calendar event for its
``done``) only when the device's retire callback is the only callback on
``done`` and no calendar event is due at or before now.  The property runs each
random device program twice: as is, and with the "calendar clear at now"
predicate patched to always answer no, which sends every completion
through ``succeed`` and the calendar.  Every simulated value must agree;
only the number of popped events may differ.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.framework.power_monitor import PowerMonitor
from repro.gpu import device as device_module
from repro.gpu.block_scheduler import GridEngine
from repro.gpu.commands import CopyDirection, KernelLaunchCommand
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.smx import SMXArray
from repro.gpu.specs import DMASpec, SMXSpec, tesla_k20
from repro.sim.engine import Environment

#: A time unit exact in binary.  On the "exact" clock the retire quantum,
#: block durations, copy times, host pauses and the sampling interval are
#: all multiples of it, so host wake-ups, samples, retirements and copy
#: completions often land on the very same instant.
TICK = 2.0 ** -20

#: Simulated-time horizon: far past the longest program, so a run that
#: stops short of it has lost a wake-up.
HORIZON = 0.02

command = st.one_of(
    st.tuples(st.just("htod"), st.integers(min_value=1, max_value=64)),
    st.tuples(st.just("dtoh"), st.integers(min_value=1, max_value=64)),
    st.tuples(
        st.just("kernel"),
        st.tuples(
            st.integers(min_value=1, max_value=300),
            st.sampled_from([32, 128, 256, 1024]),
            st.integers(min_value=1, max_value=8),
        ),
    ),
    st.tuples(st.just("marker"), st.just(0)),
)

#: One host step: a command, the pause (ticks) before enqueueing it, and
#: what the host waits on afterwards.
host_step = st.tuples(
    command,
    st.integers(min_value=0, max_value=12),
    st.sampled_from(["none", "none", "done", "sync"]),
)


@st.composite
def programs(draw):
    streams = draw(
        st.lists(
            st.lists(host_step, min_size=0, max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    return {
        "streams": streams,
        "policy": draw(st.sampled_from(["interleave", "fifo"])),
        "exact_clock": draw(st.booleans()),
        "sample_ticks": draw(st.integers(min_value=1, max_value=16)),
        # The K20's board limit, or one low enough that the TDP clamp
        # flattens some same-instant power changes.
        "tdp": draw(
            st.one_of(st.just(225.0), st.floats(min_value=56.0, max_value=130.0))
        ),
    }


def run_program(program, inline=True):
    """Run ``program``; return every simulated output and the pop count."""
    env = Environment()
    spec = tesla_k20()
    spec = replace(spec, power=replace(spec.power, tdp=program["tdp"]))
    if program["exact_clock"]:
        copy = DMASpec(bandwidth=2.0 ** 30, latency=8 * TICK)
        spec = replace(spec, dma_htod=copy, dma_dtoh=copy)
    device = GPUDevice(env, spec=spec, copy_policy=program["policy"])
    if program["exact_clock"]:
        device.grid_engine.retire_quantum = TICK
    monitor = PowerMonitor(env, device, interval=program["sample_ticks"] * TICK)
    monitor.start()
    cmds = []

    def host(stream, steps):
        for (kind, size), pause, wait in steps:
            if pause:
                yield env.timeout(pause * TICK)
            if kind == "htod":
                cmd = stream.enqueue_memcpy(CopyDirection.HTOD, size << 10)
            elif kind == "dtoh":
                cmd = stream.enqueue_memcpy(CopyDirection.DTOH, size << 10)
            elif kind == "kernel":
                blocks, tpb, ticks = size
                kd = KernelDescriptor(
                    f"k{len(cmds)}", Dim3(blocks), Dim3(tpb),
                    registers_per_thread=16, block_duration=ticks * TICK,
                )
                cmd = stream.enqueue_kernel(kd)
            else:
                cmd = stream.enqueue_marker()
            cmds.append(cmd)
            if wait == "done":
                yield cmd.done
            elif wait == "sync":
                yield stream.synchronize_event()

    hosts = [
        env.process(host(device.create_stream(), steps))
        for steps in program["streams"]
    ]

    def stop_monitor():
        yield env.all_of(hosts)
        monitor.stop()

    env.process(stop_monitor())
    if inline:
        env.run(until=HORIZON)
    else:
        with mock.patch.object(
            device_module, "_calendar_clear", lambda _env: False
        ):
            env.run(until=HORIZON)
    power = device.power
    return {
        "finished": [not h.is_alive for h in hosts],
        "times": [
            (c.ready._value, c.started._value, c.done._value) for c in cmds
        ],
        "energy": power.energy(),
        "peak": power.peak_power,
        "segments": power.segments(),
        "samples": [(s.time, s.watts) for s in monitor.samples],
        "events": env.events_processed,
    }


def one_kernel_per_stream(*shapes, wait="none"):
    """A program whose streams each launch one kernel at time zero."""
    return {
        "streams": [[(("kernel", shape), 0, wait)] for shape in shapes],
        "policy": "interleave",
        "exact_clock": False,
        "sample_ticks": 1,
        "tdp": 225.0,
    }


@settings(max_examples=60, deadline=None)
@given(programs())
# Two launches retiring at one instant: the first must not settle inline
# while the second's retirement is due.
@example(one_kernel_per_stream((1, 32, 1), (26, 1024, 1)))
# A host waiting on ``done``: a second callback keeps the calendar path.
@example(one_kernel_per_stream((1, 32, 1), wait="done"))
def test_inline_settle_matches_calendar_path(program):
    inline = run_program(program)
    calendar = run_program(program, inline=False)
    assert all(calendar["finished"])
    assert calendar["events"] >= inline.pop("events")
    calendar.pop("events")
    assert inline == calendar


class CountingDevice(GPUDevice):
    """Records each launch's settle outcome (``True`` = inline)."""

    def __init__(self, *args, **kwargs):
        self.settled = []
        super().__init__(*args, **kwargs)

    def _settle(self, cmd):
        result = super()._settle(cmd)
        self.settled.append((cmd, result))
        return result


def kernel(ticks=2):
    return KernelDescriptor("k", Dim3(1), Dim3(128), block_duration=ticks * TICK)


class TestSettlePaths:
    @staticmethod
    def launch_bound(launches=10):
        env = Environment()
        device = CountingDevice(env)
        stream = device.create_stream()
        kd = kernel()

        def launcher():
            for _ in range(launches):
                # Each kernel retires before the next launch arrives.
                yield env.timeout(20e-6)
                stream.enqueue_kernel(kd)

        env.process(launcher())
        env.run()
        return env, device

    def test_launch_bound_stream_settles_every_kernel_inline(self):
        env, device = self.launch_bound()
        assert len(device.settled) == 10
        assert all(inline for _cmd, inline in device.settled)
        assert all(cmd.done.processed for cmd, _inline in device.settled)
        assert device._inflight == 0
        assert device.power.current_power == device.spec.power.idle
        with mock.patch.object(
            device_module, "_calendar_clear", lambda _env: False
        ):
            calendar_env, calendar_device = self.launch_bound()
        assert not any(inline for _cmd, inline in calendar_device.settled)
        # The calendar path pops each kernel's ``done`` and the empty pass
        # that follows it.
        assert calendar_env.events_processed == env.events_processed + 2 * 10

    def test_waiting_process_keeps_calendar_path(self):
        env = Environment()
        device = CountingDevice(env)
        stream = device.create_stream()
        resumed = []

        def host():
            cmd = stream.enqueue_kernel(kernel())
            value = yield cmd.done
            resumed.append((env.now, value))

        env.process(host())
        env.run()
        [(cmd, inline)] = device.settled
        assert not inline
        assert resumed == [(cmd.done.value, cmd.done.value)]

    def test_timeout_due_at_retirement_keeps_calendar_path(self):
        env = Environment()
        device = CountingDevice(env)
        device.grid_engine.retire_quantum = TICK
        stream = device.create_stream()
        cmd = stream.enqueue_kernel(kernel(ticks=4))
        # The pass has run and the retirement (due at 4 ticks) sits on the
        # calendar; a Timeout pushed now is due at that same instant.
        env.run(until=TICK)
        env.timeout(3 * TICK)
        env.run()
        assert device.settled == [(cmd, False)]
        assert cmd.done.value == 4 * TICK

    def test_engine_without_device_succeeds_on_the_calendar(self):
        env = Environment()
        engine = GridEngine(env, SMXArray(1, SMXSpec()))
        cmd = KernelLaunchCommand(env, kernel())
        engine.submit(cmd)
        env.run()
        assert cmd.done.processed
        # Submit pass, retirement, ``done`` and the trailing pass.
        assert env.events_processed == 4


class TestLaunchFit:
    """A block that no empty SMX can host is rejected at enqueue."""

    def test_shared_memory_over_one_smx_is_rejected(self):
        env = Environment()
        device = GPUDevice(env)
        kd = KernelDescriptor(
            "big_smem", Dim3(4), Dim3(128), shared_mem_per_block=49153
        )
        with pytest.raises(ValueError, match="49153 bytes of shared memory"):
            device.create_stream().enqueue_kernel(kd)
        assert device.commands_issued == 0

    def test_registers_over_one_smx_are_rejected(self):
        env = Environment()
        device = GPUDevice(env)
        kd = KernelDescriptor(
            "big_regs", Dim3(1), Dim3(1024), registers_per_thread=65
        )
        with pytest.raises(ValueError, match="registers"):
            device.create_stream().enqueue_kernel(kd)

    def test_threads_over_one_smx_are_rejected(self):
        env = Environment()
        k20 = tesla_k20()
        device = GPUDevice(
            env, spec=replace(k20, smx=replace(k20.smx, max_threads=512))
        )
        kd = KernelDescriptor("wide", Dim3(1), Dim3(1024))
        with pytest.raises(ValueError, match="needs 1024 threads"):
            device.create_stream().enqueue_kernel(kd)

    def test_largest_fitting_block_runs(self):
        env = Environment()
        device = GPUDevice(env)
        kd = KernelDescriptor(
            "edge", Dim3(2), Dim3(1024), registers_per_thread=64,
            shared_mem_per_block=49152,
        )
        cmd = device.create_stream().enqueue_kernel(kd)
        env.run(until=cmd.done)
        assert cmd.waves == 1
