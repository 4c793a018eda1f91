"""Sim-clock-driven sampler and the :class:`Telemetry` facade.

The sampler mirrors the framework's ``PowerMonitor`` lifecycle (paper
Section III-E): a simulated process that ticks at a fixed interval,
``start()``-ed before the workload and ``stop()``-ped when the workload
drains so the trailing ``env.run()`` settle terminates.  Each tick runs
the registered *probes* — zero-argument callables that pull live state
(queue depths, occupancy, watts) into the registry — then records a
:class:`Snapshot` of the whole registry keyed to simulated time.

Determinism: snapshots are keyed to ``env.now`` only; no wall clock ever
enters a sample.  Probes must read simulation state, never mutate it, so
enabling telemetry cannot perturb results (pinned by the ``telemetry``
case of ``benchmarks/bench_observer_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment
    from ..sim.process import Process

__all__ = ["Snapshot", "Sampler", "Telemetry", "DEFAULT_SAMPLE_INTERVAL"]

#: Default sampling interval — the paper's 15 ms sensor rate, shared with
#: ``framework.power_monitor.DEFAULT_INTERVAL`` so power samples and metric
#: snapshots land on the same grid.
DEFAULT_SAMPLE_INTERVAL = 15e-3

Probe = Callable[[], None]


@dataclass(frozen=True)
class Snapshot:
    """One registry snapshot at a point in simulated time."""

    time: float
    values: Dict[str, float] = field(default_factory=dict)


class Sampler:
    """Periodic registry snapshotter driven by the simulated clock."""

    def __init__(
        self,
        env: "Environment",
        registry: MetricRegistry,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.env = env
        self.registry = registry
        self.interval = interval
        self.probes: List[Probe] = []
        self.snapshots: List[Snapshot] = []
        self._running = False
        self._process: Optional["Process"] = None

    def add_probe(self, probe: Probe) -> None:
        """Register a zero-arg callable run (in order) at every tick."""
        self.probes.append(probe)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self._process = self.env.process(self._sample_loop(), name="telemetry-sampler")

    def stop(self) -> None:
        """Stop sampling after the next tick."""
        self._running = False

    def sample_now(self) -> Snapshot:
        """Run probes and snapshot immediately (used by ticks and finalize)."""
        for probe in self.probes:
            probe()
        snap = Snapshot(self.env.now, self.registry.snapshot())
        self.snapshots.append(snap)
        return snap

    def _sample_loop(self):
        while self._running:
            self.sample_now()
            yield self.env.timeout(self.interval)

    @property
    def sample_count(self) -> int:
        """Number of snapshots taken so far."""
        return len(self.snapshots)


class Telemetry:
    """Facade bundling a registry with a sampler — the object layers share.

    A ``Telemetry`` is created detached; the harness calls :meth:`attach`
    once the :class:`~repro.sim.engine.Environment` exists, layers register
    metrics/probes through it during setup, and the harness drives
    ``start()``/``stop()``/``finalize()`` around the workload.  Everything
    downstream (exporters, CLI table, dashboard) reads ``snapshots`` and
    the live ``registry``.
    """

    def __init__(self, interval: float = DEFAULT_SAMPLE_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.registry = MetricRegistry()
        self.sampler: Optional[Sampler] = None
        self._pending_probes: List[Probe] = []

    # -- registry passthrough ---------------------------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: Optional[int] = None,
    ) -> Counter:
        """Get or create a counter on the shared registry."""
        return self.registry.counter(name, help, labelnames, max_series=max_series)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: Optional[int] = None,
    ) -> Gauge:
        """Get or create a gauge on the shared registry."""
        return self.registry.gauge(name, help, labelnames, max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
        max_series: Optional[int] = None,
    ) -> Histogram:
        """Get or create a histogram on the shared registry."""
        return self.registry.histogram(
            name, help, buckets, labelnames, max_series=max_series
        )

    def add_probe(self, probe: Probe) -> None:
        """Register a probe; queued until :meth:`attach` if needed."""
        if self.sampler is not None:
            self.sampler.add_probe(probe)
        else:
            self._pending_probes.append(probe)

    # -- lifecycle ---------------------------------------------------------

    def attach(self, env: "Environment") -> Sampler:
        """Bind to an environment, creating the sampler (idempotent per env).

        Re-attaching to a *different* environment starts a fresh sampler but
        keeps the registry, so a multi-run session accumulates counters while
        each run snapshots on its own clock.
        """
        if self.sampler is not None and self.sampler.env is env:
            return self.sampler
        self.sampler = Sampler(env, self.registry, self.interval)
        for probe in self._pending_probes:
            self.sampler.add_probe(probe)
        self._pending_probes = []
        return self.sampler

    def start(self) -> None:
        """Start periodic sampling (requires :meth:`attach` first)."""
        if self.sampler is None:
            raise RuntimeError("telemetry not attached to an environment")
        self.sampler.start()

    def stop(self) -> None:
        """Stop periodic sampling after the next tick."""
        if self.sampler is not None:
            self.sampler.stop()

    def finalize(self) -> Optional[Snapshot]:
        """Take one last snapshot after the run settles.

        This closing snapshot is what guarantees every exporter agrees on
        final counter values: Prometheus renders the live registry, JSONL
        and Chrome counters render snapshots, and the last snapshot *is*
        the final registry state.
        """
        if self.sampler is None:
            return None
        self.sampler.stop()
        return self.sampler.sample_now()

    # -- views -------------------------------------------------------------

    @property
    def snapshots(self) -> List[Snapshot]:
        """All snapshots taken so far (empty before :meth:`attach`)."""
        return self.sampler.snapshots if self.sampler is not None else []

    def series(self, key: str) -> List[Dict[str, float]]:
        """Time series for one flat series key across snapshots."""
        return [
            {"t": snap.time, "value": snap.values[key]}
            for snap in self.snapshots
            if key in snap.values
        ]

    def last_value(self, key: str) -> Optional[float]:
        """Value of ``key`` in the most recent snapshot, if present."""
        for snap in reversed(self.snapshots):
            if key in snap.values:
                return snap.values[key]
        return None
