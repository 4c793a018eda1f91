"""Property-based tests of the whole device model (hypothesis).

Random command mixes across random stream counts must always satisfy the
hardware invariants: everything completes, per-stream FIFO semantics hold,
copies never overlap within a direction, kernels never exceed the device's
resident-thread capacity, and the device returns to idle power.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.sim.engine import Environment
from repro.sim.trace import max_overlap

# One command recipe: (kind, size parameter).
commands = st.one_of(
    st.tuples(st.just("htod"), st.integers(min_value=1, max_value=1 << 20)),
    st.tuples(st.just("dtoh"), st.integers(min_value=1, max_value=1 << 20)),
    st.tuples(st.just("kernel"), st.integers(min_value=1, max_value=300)),
)


@st.composite
def workloads(draw):
    num_streams = draw(st.integers(min_value=1, max_value=6))
    per_stream = draw(
        st.lists(
            st.lists(commands, min_size=0, max_size=6),
            min_size=num_streams,
            max_size=num_streams,
        )
    )
    tpb = draw(st.sampled_from([32, 64, 128, 256, 512, 1024]))
    return per_stream, tpb


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_device_invariants(workload):
    per_stream, tpb = workload
    env = Environment()
    device = GPUDevice(env)
    issued = []

    for stream_cmds in per_stream:
        stream = device.create_stream()
        for i, (kind, size) in enumerate(stream_cmds):
            if kind == "htod":
                cmd = stream.enqueue_memcpy(CopyDirection.HTOD, size)
            elif kind == "dtoh":
                cmd = stream.enqueue_memcpy(CopyDirection.DTOH, size)
            else:
                kd = KernelDescriptor(
                    f"k{i}", Dim3(size), Dim3(tpb),
                    registers_per_thread=16, block_duration=2e-6,
                )
                cmd = stream.enqueue_kernel(kd)
            issued.append((stream.sid, cmd))
    env.run()

    # 1. Everything completes, in order per stream.
    last_done = {}
    for sid, cmd in issued:
        assert cmd.done.triggered, cmd
        start, end = cmd.started.value, cmd.done.value
        assert start <= end
        if sid in last_done:
            # In-stream FIFO: a command never starts before its predecessor
            # finished.
            assert start >= last_done[sid] - 1e-15
        last_done[sid] = end

    # 2. Single engine per copy direction.
    for direction in CopyDirection:
        copies = [
            (cmd.started.value, cmd.done.value)
            for _, cmd in issued
            if getattr(cmd, "direction", None) is direction
        ]
        assert max_overlap(copies) <= 1

    # 3. SMX resources fully returned; occupancy bounded during the run.
    assert device.smx.resident_blocks == 0
    assert device.smx.resident_threads == 0

    # 4. Device quiesces: power back to idle, nothing in flight.
    assert device._inflight == 0
    assert device.power.current_power == device.spec.power.idle

    # 5. Energy is consistent: at least idle * elapsed, at most TDP * elapsed.
    if env.now > 0:
        energy = device.power.energy()
        assert energy >= device.spec.power.idle * env.now - 1e-9
        assert energy <= device.spec.power.tdp * env.now + 1e-9
