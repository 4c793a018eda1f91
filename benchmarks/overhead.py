"""One estimator for every idle-overhead guard.

A guard compares two sides of one workload: ``off``, the plain run, and
``on``, the same run with a feature attached that must change no
simulated result.  :func:`measure_overhead` times the pair the way
``perfbench`` times a workload (``perfbench/README.md``, "How host time
is measured"): each execution is cut into slices of
``perfbench.rep.SLICE_EVENTS`` simulated events, each side's least time
per slice is summed, and the sum is scaled by the calibration probe's
least times to a reference CPU speed.  Executions alternate between the
sides, so a slow spell of the shared host hits both.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.layers import SliceClock  # noqa: E402
from perfbench.rep import SLICE_EVENTS  # noqa: E402
from perfbench.run import slice_minimum, speed_scale  # noqa: E402

#: Wall seconds of alternating pairs per guard.  The small-scale NA=8
#: cell timed against itself, five runs per budget on a shared 2-core
#: VM, read -0.7..+0.8% at 5 s, -1.9..+2.2% at 10 s, -1.1..+1.2% at
#: 15 s and -1.1..0.0% at 30 s.  Short budgets swing with the host's
#: load (a 10 s run failed the ±2% A/A gate); 30 s read narrowest.
BUDGET_S = 30.0
MIN_PAIRS = 4


class Overhead(NamedTuple):
    """CPU seconds of each side at the reference speed, the gap between
    them in percent of ``off_s``, and the pairs timed."""

    off_s: float
    on_s: float
    overhead_pct: float
    pairs: int


class SharedSliceClock(SliceClock):
    """A :class:`SliceClock` that shares the strided-probe slot.

    ``SliceClock`` cuts at every ``stride``-th event only when the slot
    is free.  With the invariant checker in it, the clock would cut only
    at ``run()`` entry and exit, and a sum of a few long minima reads
    higher than a sum of many short ones.  Here the clock ticks and then
    calls the installed probe, which is put back after the run.
    """

    def __enter__(self) -> "SharedSliceClock":
        from repro.sim.engine import Environment

        super().__enter__()
        clocked = Environment.run
        clock = self

        def run(env, *args, **kwargs):
            probe = env.probe
            if probe is None:
                return clocked(env, *args, **kwargs)
            stride = env._probe_stride
            if stride != clock.stride:
                raise RuntimeError(
                    f"installed probe strides {stride} events, the clock "
                    f"{clock.stride}"
                )

            def tick(now):
                clock._tick()
                probe(now)

            env.clear_probe()
            env.set_probe(tick, stride)
            try:
                return clocked(env, *args, **kwargs)
            finally:
                env.clear_probe()
                env.set_probe(probe, stride)

        Environment.run = run
        return self


def measure_overhead(off: Callable[[], Any], on: Callable[[], Any]) -> Overhead:
    """Time ``off`` against ``on`` until :data:`BUDGET_S` has elapsed.

    Each side is a zero-argument callable that runs the workload once
    and returns what the guard compares; every execution must return
    what the first ``off`` execution returned.  One untimed execution of
    each side warms its code paths first.
    """
    sides = {"off": off, "on": on}
    expected = off()
    if on() != expected:
        raise AssertionError("'on' changed the simulated results")
    passes = {"off": [], "on": []}
    pairs = 0
    deadline = time.perf_counter() + BUDGET_S
    while pairs < MIN_PAIRS or time.perf_counter() < deadline:
        for name in ("off", "on") if pairs % 2 == 0 else ("on", "off"):
            gc.collect()
            with SharedSliceClock(SLICE_EVENTS) as clock:
                value = sides[name]()
            if value != expected:
                raise AssertionError(f"{name!r} changed the simulated results")
            passes[name].append(
                {"slice_s": clock.seconds, "probe_s": clock.probe_seconds}
            )
        pairs += 1
    off_s, on_s = (
        sum(slice_minimum(passes[name], "slice_s")) * speed_scale(passes[name])
        for name in ("off", "on")
    )
    return Overhead(off_s, on_s, (on_s - off_s) / off_s * 100.0, pairs)
