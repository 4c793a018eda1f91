"""Unit tests for stream-level commands (:mod:`repro.gpu.commands`)."""

import pytest

from repro.gpu.commands import (
    Command,
    CopyDirection,
    KernelLaunchCommand,
    MarkerCommand,
    MemcpyCommand,
)
from repro.gpu.kernels import Dim3, KernelDescriptor


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
