"""Benchmark entry point: time one workload in fresh processes.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 20 --trace 0

The run uses fresh, single-threaded Python processes (``rep.py``), one
at a time.  :data:`PROCESSES` of them set up once and execute the
workload as often as their share of ``--seconds`` allows; before each,
:data:`SETUP_ONLY` more only set up.  Host time is each slice's least
CPU time over the executions, summed and scaled to the reference speed
that a calibration probe gauges (README.md, "How host time is
measured").  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
one process also executes under ``cProfile`` and the event tally, and
the JSON holds the per-layer metrics.  See README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-sweep", "serve-steady", "serve-overload", "sched-batched")

#: The seed whose simulated-output digests are pinned in digests.json.
DEFAULT_SEED = 0

#: Fresh processes per run that execute the workload, and processes
#: that only set up, run before each of those.  Each one sets up once.
PROCESSES = 3
SETUP_ONLY = 2

#: CPU seconds of one ``layers.calibration_probe`` call at the reference
#: speed: its least time on a quiet 2-core x86-64 VM, where the
#: benchmark was tuned.  Host times are reported at this speed.
PROBE_REFERENCE_S = 34.0e-6
REP_TIMEOUT_S = 150


def run_rep(
    workload: str,
    seed: int,
    trace: bool,
    workdir: Path,
    budget_s: float,
    execute: bool = True,
) -> dict:
    """One process of the run; returns its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spec = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workdir": str(workdir),
        "execute": execute,
        "budget_s": budget_s,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(reps: list, expected: str) -> tuple:
    """(attempted, failed): an execution whose digest is off fails whole."""
    attempted = failed = 0
    for rep in reps:
        for done in rep["passes"]:
            attempted += rep["ops"]
            if done["digest"] != expected:
                failed += rep["ops"]
            else:
                failed += done["failed"]
    return attempted, failed


def slice_minimum(passes: list, key: str) -> list:
    """Each slice's least CPU time over the timed executions ``passes``.

    On a shared host the same code runs up to ~40% slower at times, in
    bursts of milliseconds to seconds, when other tenants load the core
    (CPU time counts that too).  A slice takes about 2 ms and runs once
    per execution, several times spread over the run, so its least time
    is one measured in a quiet moment.
    """
    timings = [done[key] for done in passes]
    if len({len(slices) for slices in timings}) != 1:
        raise RuntimeError("executions of one input cut different slices")
    return [min(times) for times in zip(*timings)]


def speed_scale(passes: list) -> float:
    """Reference speed over the speed the calibration probe saw.

    Some slowdowns last longer than a run: then every execution of a
    slice is slow, and its least time too.  The probe is a fixed piece
    of work run at every slice boundary, so it sees the same slowdown;
    its least times, taken like the slices', measure it.
    """
    return PROBE_REFERENCE_S / statistics.mean(slice_minimum(passes, "probe_s"))


def end_to_end(reps: list, setup_runs: list) -> dict:
    """Host times at the reference speed, from the least slice times."""
    timed = [done for rep in reps for done in rep["passes"] if done["slice_s"]]
    scale = speed_scale(timed)
    least_s = sum(slice_minimum(timed, "slice_s"))
    # Each set-up at the speed the probes saw right after it.
    setups = [
        run["setup_s"] * PROBE_REFERENCE_S / run["setup_probe_s"] for run in setup_runs
    ]
    cpu_s = least_s * scale
    print(
        f"{len(timed)} timed executions: least slice times add to "
        f"{least_s:.4f} s, speed scale {scale:.4f}; set-ups "
        + " ".join(f"{t:.3f}" for t in setups)
    )
    return {
        "cpu_s": cpu_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "req_per_s": reps[0]["completed"] / cpu_s,
        "cells_per_s": reps[0]["cells"] / cpu_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "digests.json").read_text())

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    reps: list = []
    setup_runs: list = []
    try:
        start = time.perf_counter()
        for i in range(1 if args.trace else PROCESSES):
            if not args.trace:
                for _ in range(SETUP_ONLY):
                    setup_runs.append(
                        run_rep(args.workload, args.seed, False, workdir, 0.0, False)
                    )
            # Each process gets an even share of the time still left.
            budget_s = (args.seconds - (time.perf_counter() - start)) / (PROCESSES - i)
            reps.append(
                run_rep(args.workload, args.seed, bool(args.trace), workdir, budget_s)
            )
            setup_runs.append(reps[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = reps[0]["passes"][0]["digest"]
    expected = pins[args.workload] if args.seed == DEFAULT_SEED else first
    attempted, failed = check(reps, expected)
    for i, rep in enumerate(reps):
        print(
            f"process {i}: setup {rep['setup_s']:.3f} s, first execution "
            f"{rep['cpu_s']:.3f} s, {len(rep['passes'])} executions, "
            f"{rep['counters']['sim.events']} events and {rep['ops']} ops each, "
            f"digest {rep['passes'][0]['digest']}"
        )
    if args.trace:
        values = {**reps[0]["counters"], **reps[0]["trace"]}
        declared_metrics = declared["per_layer"]
    else:
        values = end_to_end(reps, setup_runs)
        declared_metrics = declared["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
