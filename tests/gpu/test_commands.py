"""Unit tests for stream-level commands (:mod:`repro.gpu.commands`)."""

import pytest

from repro.gpu.commands import (
    Command,
    CopyDirection,
    KernelLaunchCommand,
    MarkerCommand,
    MemcpyCommand,
)
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.sim.engine import Environment


class TestCommandIdentity:
    def test_ids_monotone(self, env):
        a = MarkerCommand(env)
        b = MarkerCommand(env)
        assert b.cid > a.cid

    def test_events_created_pending(self, env):
        cmd = MarkerCommand(env)
        assert not cmd.ready.triggered
        assert not cmd.started.triggered
        assert not cmd.done.triggered
        assert cmd.ready_time is None and cmd.start_time is None

    def test_repr_contains_identity(self, env):
        cmd = MemcpyCommand(env, CopyDirection.HTOD, 64, app_id="nn#0")
        cmd.stream_id = 3
        text = repr(cmd)
        assert "nn#0" in text and "stream=3" in text


class TestMemcpy:
    def test_label_prefers_buffer_name(self, env):
        named = MemcpyCommand(env, CopyDirection.HTOD, 64, buffer="matrix")
        unnamed = MemcpyCommand(env, CopyDirection.DTOH, 64)
        assert "matrix" in named.label
        assert "64" in unnamed.label
        assert "DtoH" in unnamed.label

    def test_direction_str(self):
        assert str(CopyDirection.HTOD) == "HtoD"
        assert str(CopyDirection.DTOH) == "DtoH"

    def test_negative_size_rejected(self, env):
        with pytest.raises(ValueError):
            MemcpyCommand(env, CopyDirection.HTOD, -5)


class TestKernelLaunch:
    def test_label_is_kernel_name(self, env):
        kd = KernelDescriptor("Fan2", Dim3(4), Dim3(64), block_duration=1e-6)
        cmd = KernelLaunchCommand(env, kd)
        assert cmd.label == "Fan2"
        assert cmd.waves == 0


class TestMarker:
    def test_label(self, env):
        assert MarkerCommand(env, name="sync-point").label == "marker(sync-point)"


KERNEL = KernelDescriptor("k", Dim3(4), Dim3(128), block_duration=5e-6)


def queued_behind_a_kernel(take_view=None):
    """A kernel, then ``second`` on the same stream: ``second`` is not
    ready until the kernel is done.  ``take_view(second)`` runs right
    after the enqueue, before the run."""
    env = Environment()
    stream = GPUDevice(env).create_stream()
    first = stream.enqueue_kernel(KERNEL)
    second = stream.enqueue_kernel(KERNEL)
    if take_view is not None:
        take_view(second)
    env.run()
    return env, first, second


class TestTimeViews:
    """``ready``/``started`` are event views of the float times."""

    def test_view_taken_before_dispatch_is_stamped_off_calendar(self):
        views = []
        env, first, second = queued_behind_a_kernel(
            lambda cmd: views.append((cmd.ready, cmd.ready.triggered))
        )
        plain, _, _ = queued_behind_a_kernel()
        ((ready, triggered_when_taken),) = views
        assert not triggered_when_taken
        assert ready is second.ready
        assert ready.processed and ready.value == second.ready_time
        assert second.ready_time == first.done.value
        assert env.events_processed == plain.events_processed

    def test_view_taken_after_stamp_is_processed(self):
        _env, _first, second = queued_behind_a_kernel()
        assert second.start_time is not None
        started = second.started
        assert started.processed and started.ok
        assert started.value == second.start_time
        assert second.ready.value == second.ready_time

    def test_callback_on_pending_view_runs_in_calendar_order(self):
        def kernel_then_marker(subscribe):
            env = Environment()
            stream = GPUDevice(env).create_stream()
            kernel = stream.enqueue_kernel(KERNEL)
            marker = stream.enqueue_marker()
            log = []
            if subscribe:
                marker.started.callbacks.append(
                    lambda e: log.append(("started", e.value, env.now))
                )
            marker.done.callbacks.append(
                lambda e: log.append(("done", e.value, env.now))
            )
            env.run()
            return env, kernel, marker, log

        env, kernel, marker, log = kernel_then_marker(subscribe=True)
        plain, *_ = kernel_then_marker(subscribe=False)
        t = kernel.done.value
        # The subscribed ``started`` takes a calendar slot at the stamp,
        # ahead of the ``done`` the marker succeeds right after it.
        assert marker.start_time == t
        assert log == [("started", t, t), ("done", t, t)]
        assert env.events_processed == plain.events_processed + 1
