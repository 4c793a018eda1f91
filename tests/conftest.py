"""Shared fixtures for the test suite.

Tests default to the ``tiny`` problem-size profile so the whole suite runs
in seconds; experiment *shape* tests that need contention effects opt into
``small`` explicitly.  Set ``REPRO_SCALE=paper`` to run everything at the
paper's Table III sizes (slow).
"""

from __future__ import annotations

import os

import pytest

# Default the scale before any repro import resolves it.
os.environ.setdefault("REPRO_SCALE", "tiny")

from repro.gpu.specs import tesla_k20  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402
from repro.sim.trace import TraceRecorder  # noqa: E402


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def trace() -> TraceRecorder:
    """An empty trace recorder."""
    return TraceRecorder()


@pytest.fixture
def k20():
    """The paper's device spec."""
    return tesla_k20()


@pytest.fixture
def device(env, k20):
    """A K20 device in a fresh environment."""
    from repro.gpu.device import GPUDevice

    return GPUDevice(env, spec=k20)
