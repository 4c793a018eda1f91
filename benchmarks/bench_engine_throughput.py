"""Library performance benchmarks: simulator event throughput.

Four bodies exercise the substrate itself — the numbers to watch when
modifying the engine or the block scheduler.  Each body builds and runs
one fresh simulation and returns ``(environment, checked value)``.

Under pytest they are genuine pytest-benchmark measurements (multiple
rounds).  Run as a script, the module times each body five times, takes
the least CPU time, and runs each body once more under ``cProfile``.  It
appends two numbers per body to ``BENCH_engine.json`` at the repo root:
simulated events per CPU second (``<body>.events_per_s``) and Python
calls per simulated event (``<body>.calls_per_event``).  It then counts
the cycle collector's work in each ``perfbench`` workload at seed 0:
one warm-up execution, ``gc.collect()``, and one more execution whose
collections per generation it records as
``<workload>.gc_collections.gen0`` .. ``gen2``::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

The call and collection counts are deterministic for one interpreter
version, so they resolve a change to the hot path, or to what it keeps
alive, far below the timing noise; compare them only between points
measured on the same interpreter.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.gpu.commands import CopyDirection  # noqa: E402
from repro.gpu.device import GPUDevice  # noqa: E402
from repro.gpu.kernels import Dim3, KernelDescriptor  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402
from repro.sim.resources import Resource  # noqa: E402
from repro.telemetry.trajectory import record_trajectory_point  # noqa: E402

TRAJECTORY_PATH = ROOT / "BENCH_engine.json"
#: Timed runs per body in script mode; the least CPU time counts.
SCRIPT_REPEATS = 5

Body = Callable[[], Tuple[Environment, Any]]


def event_calendar() -> Tuple[Environment, float]:
    """Schedule + process 20k timeouts."""
    env = Environment()
    for i in range(20_000):
        env.timeout(i % 97 * 1e-6)
    env.run()
    return env, env.now


def process_switch() -> Tuple[Environment, float]:
    """10k process resumptions through a shared resource."""
    env = Environment()
    res = Resource(env, capacity=4)

    def worker():
        for _ in range(10):
            req = res.request()
            yield req
            yield env.timeout(1e-6)
            res.release(req)

    for _ in range(1000):
        env.process(worker())
    env.run()
    return env, env.now


FAN2 = KernelDescriptor(
    "Fan2", Dim3(32, 32), Dim3(16, 16),
    registers_per_thread=15, block_duration=4e-6,
)


def grid_engine_waves() -> Tuple[Environment, int]:
    """A device-filling kernel stream: ~2k scheduling waves."""
    env = Environment()
    device = GPUDevice(env)
    stream = device.create_stream()
    for _ in range(200):
        stream.enqueue_kernel(FAN2)
    env.run()
    return env, device.grid_engine.grids_completed


MIXED_KERNEL = KernelDescriptor(
    "k", Dim3(64), Dim3(256), registers_per_thread=16,
    block_duration=5e-6,
)


def mixed_commands() -> Tuple[Environment, int]:
    """Transfers + kernels across 8 streams (the harness hot path)."""
    env = Environment()
    device = GPUDevice(env)
    streams = [device.create_stream() for _ in range(8)]
    for stream in streams:
        for _ in range(25):
            stream.enqueue_memcpy(CopyDirection.HTOD, 1 << 18)
            stream.enqueue_kernel(MIXED_KERNEL)
            stream.enqueue_memcpy(CopyDirection.DTOH, 1 << 18)
    env.run()
    return env, device.commands_issued


BODIES: Dict[str, Body] = {
    "event_calendar": event_calendar,
    "process_switch": process_switch,
    "grid_engine_waves": grid_engine_waves,
    "mixed_commands": mixed_commands,
}


def test_event_calendar_throughput(benchmark):
    _, now = benchmark(event_calendar)
    assert now > 0


def test_process_switch_throughput(benchmark):
    _, now = benchmark(process_switch)
    assert now > 0


def test_grid_engine_wave_throughput(benchmark):
    _, completed = benchmark(grid_engine_waves)
    assert completed == 200


def test_mixed_command_throughput(benchmark):
    _, issued = benchmark(mixed_commands)
    assert issued == 8 * 25 * 3


def events_per_cpu_second(body: Body, repeats: int = SCRIPT_REPEATS) -> float:
    """Simulated events of one ``body`` run over its least CPU time."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        t0 = time.process_time()
        env, _ = body()
        best = min(best, time.process_time() - t0)
        events = env.events_processed
    return events / best


def calls_per_event(body: Body) -> float:
    """Python calls, counted by ``cProfile``, per simulated event of one
    ``body`` run.

    Collects garbage first: a finished run leaves its copy engines'
    service generators suspended, and closing them counts as calls.
    """
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    env, _ = body()
    profiler.disable()
    return pstats.Stats(profiler).total_calls / env.events_processed


def gc_collections(workload: str) -> Tuple[int, ...]:
    """Cycle-collector runs per generation during one execution of the
    ``perfbench`` ``workload`` at seed 0, after a warm-up execution on
    the same inputs and a full collection."""
    spec = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        prepared = spec.prepare(0, Path(workdir))
        spec.execute(prepared)
        gc.collect()
        before = [gen["collections"] for gen in gc.get_stats()]
        spec.execute(prepared)
        after = [gen["collections"] for gen in gc.get_stats()]
    return tuple(b - a for a, b in zip(before, after))


def main() -> int:
    metrics = {}
    for name, body in BODIES.items():
        metrics[f"{name}.events_per_s"] = events_per_cpu_second(body)
        metrics[f"{name}.calls_per_event"] = calls_per_event(body)
    for workload in WORKLOADS:
        for gen, runs in enumerate(gc_collections(workload)):
            metrics[f"{workload}.gc_collections.gen{gen}"] = runs
    record_trajectory_point(TRAJECTORY_PATH, "bench_engine_throughput", metrics)
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
