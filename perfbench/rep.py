"""One process of one workload: set up once, then execute repeatedly.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/rep.py '{"workload": "serve-steady", "seed": 0,
                               "workdir": "...", "trace": false,
                               "execute": true, "budget_s": 6.0}'

Times are CPU seconds.  Set-up (interpreter start, imports, scenario
builds, service baselines) counts from process start.  Calibration
probes timed right after it gauge the CPU's speed then.  With
``"execute": false`` the process stops there.  Else the workload
executes on the same inputs, again and again while another execution
fits in ``budget_s`` wall seconds (at least once).  Each execution
reports the CPU seconds of each of its slices of :data:`SLICE_EVENTS`
simulated events (see ``layers.SliceClock``).  The first execution also
gives the counters.  With ``"trace": true`` it executes once plainly and
then twice more: once under ``cProfile`` and once with the event tally.
Prints one JSON object.
"""

import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path

#: Simulated events per timed slice: about 2 ms of CPU at ``tiny`` scale.
SLICE_EVENTS = 256

#: Calibration probes timed right after set-up; their low decile gauges
#: the CPU's speed at set-up time.
SETUP_PROBES = 300


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main() -> int:
    started = time.perf_counter()
    spec = json.loads(sys.argv[1])
    import layers
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    prepared = workload.prepare(spec["seed"], Path(spec["workdir"]))
    setup_s = cpu_seconds()
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.process_time()
        layers.calibration_probe()
        probes.append(time.process_time() - start)
    setup_probe_s = sorted(probes)[SETUP_PROBES // 10]
    if not spec["execute"]:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    def timed_execute():
        with layers.SliceClock(SLICE_EVENTS) as clock:
            outcome = workload.execute(prepared)
        return outcome, (clock.seconds, clock.probe_seconds)

    with layers.EnvironmentMeter() as meter:
        wall_start, cpu_start = time.perf_counter(), cpu_seconds()
        outcome, slices = timed_execute()
        cpu_s = cpu_seconds() - cpu_start
        wall_s = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cells = sorted(meter.cell_seconds)
    counters = dict.fromkeys(workloads.COUNTERS, 0)
    counters.update(outcome.counters)
    counters.update(
        {
            "sim.events": meter.events,
            "sim.events_per_s": meter.events / cpu_s,
            "core.cells": len(cells),
            "core.cell_p50_ms": workloads.percentile(cells, 50) * 1e3,
            "core.cell_p90_ms": workloads.percentile(cells, 90) * 1e3,
            "workload.gen_s": workloads.stream_seconds(prepared),
            "sim_goodput_rps": outcome.goodput_rps,
            "sim_p99_sojourn_ms": outcome.p99_sojourn_s * 1e3,
            "host.wall_s": wall_s,
            "host.wait_pct": (wall_s - cpu_s) / wall_s * 100.0,
        }
    )
    passes = [(outcome, slices)]

    if spec["trace"]:
        profiler = cProfile.Profile()
        start = cpu_seconds()
        profiler.enable()
        profiled = workload.execute(prepared)
        profiler.disable()
        traced_s = cpu_seconds() - start
        with layers.EventTally() as tally:
            tallied = workload.execute(prepared)
        trace = layers.fold_profile(pstats.Stats(profiler), meter.events)
        trace.update(tally.metrics())
        trace["trace.overhead_x"] = traced_s / cpu_s
        passes += [(profiled, (None, None)), (tallied, (None, None))]
    else:
        trace = None
        last_s = wall_s
        while time.perf_counter() - started + last_s <= spec["budget_s"]:
            pass_start = time.perf_counter()
            passes.append(timed_execute())
            last_s = time.perf_counter() - pass_start

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": outcome.ops,
        "completed": outcome.completed,
        "cells": len(cells),
        "counters": counters,
        # Profiled and tallied passes are checked but not timed.
        "passes": [
            {
                "digest": done.digest,
                "failed": done.failed,
                "slice_s": seconds,
                "probe_s": probes,
            }
            for done, (seconds, probes) in passes
        ],
    }
    if trace is not None:
        result["trace"] = trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
