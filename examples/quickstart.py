#!/usr/bin/env python3
"""Quickstart: run a heterogeneous workload serialized vs Hyper-Q concurrent.

Reproduces the paper's core observation in ~a minute: a mix of gaussian
(compute-heavy, underutilizing in its Fan1 phases) and needle (tiny grids)
applications runs dramatically faster when spread over Hyper-Q streams than
serialized on one stream — and enabling the host-side transfer mutex
improves it further by eliminating DMA copy-queue interleaving.

Run:
    python examples/quickstart.py [--scale small|paper]
"""

import argparse

from repro.analysis.timeline import render_timeline
from repro.core import ExperimentRunner, RunConfig, Workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--apps", type=int, default=8)
    args = parser.parse_args()

    workload = Workload.heterogeneous_pair(
        "gaussian", "needle", args.apps, scale=args.scale
    )
    runner = ExperimentRunner()

    print(f"workload: {workload.describe()} (scale={args.scale})\n")

    # 1. Serialized baseline: every application on one stream.
    serial = runner.run_serial(workload)
    print(f"serialized      : {serial.harness.summary()}")

    # 2. Full concurrency: one Hyper-Q stream per application.
    concurrent = runner.run(
        RunConfig(workload=workload, num_streams=args.apps)
    )
    print(f"full-concurrent : {concurrent.harness.summary()}")

    # 3. Concurrency + the paper's memory-transfer synchronization.
    synced = runner.run(
        RunConfig(workload=workload, num_streams=args.apps, memory_sync=True)
    )
    print(f"+ memory sync   : {synced.harness.summary()}\n")

    print(
        f"concurrency improvement : "
        f"{concurrent.improvement_over(serial):6.1f}% vs serial"
    )
    print(
        f"with memory sync        : "
        f"{synced.improvement_over(serial):6.1f}% vs serial"
    )
    print(
        f"energy reduction        : "
        f"{synced.energy_improvement_over(serial):6.1f}% vs serial\n"
    )

    print(render_timeline(
        synced.harness.trace,
        width=96,
        title="Execution timeline (concurrent + memory sync):",
    ))


if __name__ == "__main__":
    main()
