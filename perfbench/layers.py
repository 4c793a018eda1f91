"""Per-layer measurement from outside the simulator.

* :class:`EnvironmentMeter` wraps ``Environment.run`` for the duration of
  a ``with`` block and reads ``Environment.events_processed`` around each
  call: events simulated, and CPU time per environment (one environment
  is one harness cell).  It costs one extra call per ``run()``, not per
  event, so it stays on in timed passes.
* :class:`SliceClock` also wraps ``Environment.run`` and cuts an
  execution into slices of a fixed number of simulated events, timed
  one by one, with :func:`calibration_probe` timed between them.  It
  costs about 2% of the run, so it stays on in timed passes too.
* :class:`EventTally` wraps ``Environment.step`` and files each popped
  event under the package that owns its first callback.  It costs a
  Python call per event, so it runs in a pass of its own.
* :func:`fold_profile` folds ``cProfile`` self time by ``repro.<package>``.

Every wrapper restores the original method on exit.  If the engine's run
loop stops calling ``step()``, the tally sees no events and reports
zeros; it never changes what the simulation does.
"""

from __future__ import annotations

import pstats
import time
from pathlib import PurePath
from typing import Dict, List, Optional

#: The layers this benchmark attributes time to (``repro`` packages).
#: ``fleet``, ``resilience`` and ``analysis`` are not covered; their time,
#: the standard library's, builtins' and the benchmark's own fall in
#: ``other``.
LAYERS = (
    "sim",
    "gpu",
    "framework",
    "apps",
    "core",
    "scheduling",
    "serving",
    "workload",
    "integrity",
    "telemetry",
)

#: Modules of the two dominant layers whose shares are reported alone.
MODULES = (
    "gpu.device",
    "gpu.block_scheduler",
    "gpu.smx",
    "gpu.power",
    "gpu.dma",
    "sim.engine",
    "sim.events",
)

#: The power-model update, counted per simulated event.
POWER_UPDATE = ("gpu.power", "update")


def module_of(filename: str) -> Optional[str]:
    """``.../repro/gpu/power.py`` -> ``"gpu.power"``; None outside repro."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            rest = list(parts[i + 1:])
            rest[-1] = PurePath(rest[-1]).stem
            return ".".join(rest)
    return None


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, or ``"other"``."""
    module = module_of(filename)
    if module is None:
        return "other"
    package = module.split(".", 1)[0]
    return package if package in LAYERS else "other"


class EnvironmentMeter:
    """Events and CPU seconds per environment, via ``Environment.run``.

    Consecutive ``run()`` calls on one environment (the harness calls it
    twice) count as one cell.
    """

    def __init__(self) -> None:
        self.events = 0
        self.cell_seconds: List[float] = []
        self._last_env: Optional[int] = None

    def __enter__(self) -> "EnvironmentMeter":
        from repro.sim.engine import Environment

        original = Environment.run
        meter = self

        def run(env, *args, **kwargs):
            before = env.events_processed
            start = time.process_time()
            try:
                return original(env, *args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                meter.events += env.events_processed - before
                if id(env) == meter._last_env:
                    meter.cell_seconds[-1] += elapsed
                else:
                    meter.cell_seconds.append(elapsed)
                    meter._last_env = id(env)

        self._restore = (Environment, original)
        Environment.run = run
        return self

    def __exit__(self, *exc) -> None:
        cls, original = self._restore
        cls.run = original


class _Scratch:
    __slots__ = ("a", "b")


_SCRATCH = _Scratch()
_SCRATCH.a = _SCRATCH.b = 0
_TABLE = {i: i for i in range(64)}


def calibration_probe(rounds: int = 200) -> int:
    """A fixed piece of pure-Python work, timed to gauge the CPU's speed.

    Dict reads and writes, attribute access and float arithmetic, as in
    the simulator, with no allocation of tracked objects (so it never
    starts a garbage collection).  It does not touch ``repro``.
    """
    table, scratch = _TABLE, _SCRATCH
    acc = 0
    x = 0.5
    for i in range(rounds):
        k = i & 63
        acc = (acc + table[k]) & 1023
        table[k] = acc & 255
        x = 3.7 * x * (1.0 - x)
        scratch.a = scratch.b + k
        scratch.b = scratch.a & 255
    return acc


class SliceClock:
    """CPU seconds of each slice of an execution.

    A slice ends on entry to and on exit from ``Environment.run``, at
    every ``stride``-th simulated event (through the environment's
    strided probe, when no other probe is installed) and at the end of
    the ``with`` block.  The same input cuts the same slices in the same
    order, so the slices of repeated executions compare one by one.  The
    slices add up to the whole block, less the calibration probe that
    runs, timed apart (``probe_seconds``), at every slice boundary.
    """

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.seconds: List[float] = []
        self.probe_seconds: List[float] = []
        self._last = 0.0

    def _tick(self, _now: float = 0.0) -> None:
        # The calibration probe runs between two slices and is timed on
        # its own; neither slice counts it.
        now = time.process_time()
        self.seconds.append(now - self._last)
        calibration_probe()
        self._last = time.process_time()
        self.probe_seconds.append(self._last - now)

    def __enter__(self) -> "SliceClock":
        from repro.sim.engine import Environment

        original = Environment.run
        clock = self

        def run(env, *args, **kwargs):
            clock._tick()
            owned = env.probe is None
            if owned:
                env.set_probe(clock._tick, clock.stride)
            try:
                return original(env, *args, **kwargs)
            finally:
                if owned:
                    env.clear_probe()
                clock._tick()

        self._restore = (Environment, original)
        Environment.run = run
        self._last = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self._tick()
        cls, original = self._restore
        cls.run = original


class EventTally:
    """Popped events by the package owning their first callback.

    A process waiting on an event is owned by its generator's module;
    any other callback by the module that defines it.  An event with no
    callbacks at all is an orphan: nothing waits on it.
    """

    def __init__(self) -> None:
        self.by_layer: Dict[str, int] = {}
        self.orphans = 0
        self.total = 0
        self._layer_cache: Dict[str, str] = {}

    def _owner(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            # The innermost generator of a ``yield from`` chain is the
            # code actually waiting on the event.
            while getattr(generator.gi_yieldfrom, "gi_code", None) is not None:
                generator = generator.gi_yieldfrom
            code = generator.gi_code
        else:
            code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        filename = code.co_filename if code is not None else ""
        layer = self._layer_cache.get(filename)
        if layer is None:
            layer = self._layer_cache[filename] = layer_of(filename)
        return layer

    def __enter__(self) -> "EventTally":
        from repro.sim.engine import Environment

        original = Environment.step
        tally = self

        def step(env):
            queue = getattr(env, "_queue", None)
            if queue:
                callbacks = queue[0][-1].callbacks
                tally.total += 1
                if callbacks:
                    layer = tally._owner(callbacks[0])
                    tally.by_layer[layer] = tally.by_layer.get(layer, 0) + 1
                else:
                    tally.orphans += 1
            return original(env)

        self._restore = (Environment, original)
        Environment.step = step
        return self

    def __exit__(self, *exc) -> None:
        cls, original = self._restore
        cls.step = original

    def metrics(self) -> Dict[str, float]:
        out = {f"events.{layer}": self.by_layer.get(layer, 0) for layer in LAYERS}
        out["events.other"] = self.by_layer.get("other", 0)
        out["events.orphan_pct"] = (
            self.orphans / self.total * 100.0 if self.total else 0.0
        )
        return out


def fold_profile(stats: pstats.Stats, events: int) -> Dict[str, float]:
    """Self time per layer and module, shares, and call counts.

    Shares are of the total self time in the profile, so the layer
    shares plus ``other.share_pct`` sum to 100.
    """
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    module_s = {module: 0.0 for module in MODULES}
    power_calls = 0
    integrity_cum = 0.0
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        layer = layer_of(filename)
        self_s[layer] += tottime
        module = module_of(filename)
        if module in module_s:
            module_s[module] += tottime
        if (module, name) == POWER_UPDATE:
            power_calls += ncalls
        if layer == "integrity":
            # Cumulative time entering the layer from outside it.
            for caller, edge in callers.items():
                if layer_of(caller[0]) != "integrity":
                    integrity_cum += edge[3]
    total = sum(self_s.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share_pct"] = self_s[layer] / total * 100.0
    out["other.self_s"] = self_s["other"]
    out["other.share_pct"] = self_s["other"] / total * 100.0
    for module in MODULES:
        out[f"{module}.share_pct"] = module_s[module] / total * 100.0
    out["gpu.power.calls_per_event"] = power_calls / events if events else 0.0
    out["integrity.cum_s"] = integrity_cum
    return out
