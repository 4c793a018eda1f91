#!/usr/bin/env python3
"""Overload-resilient serving: shed load, trip breakers, survive crashes.

Drives the streaming Hyper-Q service well past saturation (arrivals at
~2.5x the device's service rate) and compares two admission disciplines:

* greedy     — admit everything immediately, never shed.  Throughput
               looks fine, but concurrency contention blows every
               sojourn past its SLO deadline: goodput collapses.
* shed-oldest — cap-N concurrency, a bounded admission queue that sheds
               the oldest waiter when full, and deadline-aware shedding
               of requests that can no longer meet their SLO.

Then it demonstrates crash-safe journaling: the same run is executed
with a planned harness crash mid-flight, resumed from the journal, and
the resumed result is checked entry-for-entry against an uninterrupted
reference run.

Run:
    python examples/overload_shedding_service.py [--scale tiny|small|paper]
"""

import argparse
import tempfile
from pathlib import Path

from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.serving import (
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    RunJournal,
    ServingConfig,
    measure_service_baselines,
    poisson_arrivals,
    run_serving,
)
from repro.sim.errors import HarnessCrash

MIX = [("nn", 2), ("needle", 1)]


def describe(name, result):
    print(
        f"{name:<12}: goodput {result.goodput:7.0f} req/s | "
        f"throughput {result.throughput:7.0f} req/s | "
        f"p99 sojourn {result.p99_sojourn * 1e3:6.2f} ms | "
        f"shed {result.shed_rate:4.0%} | outcomes {dict(result.outcomes)}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default="small", choices=("tiny", "small", "paper")
    )
    parser.add_argument("--cap", type=int, default=4)
    parser.add_argument("--qdepth", type=int, default=8)
    # Multiples of the *cap-N* service rate; greedy gets all 16 streams,
    # so it takes a few multiples before even greedy saturates.
    parser.add_argument("--overload", type=float, default=5.0)
    parser.add_argument("--duration", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    # Calibrate the overload against the measured service rate: each
    # type's baseline is a single-arrival end-to-end sojourn.
    baselines = measure_service_baselines(
        [name for name, _ in MIX], scale=args.scale
    )
    total = sum(weight for _, weight in MIX)
    mean_service = sum(baselines[n] * w / total for n, w in MIX)
    service_rate = args.cap / mean_service
    rate = args.overload * service_rate
    arrivals = poisson_arrivals(rate, args.duration, MIX, seed=args.seed)
    print(
        f"offered load: {len(arrivals)} arrivals at {rate:.0f}/s "
        f"({args.overload:.1f}x the cap-{args.cap} service rate, "
        f"scale={args.scale})\n"
    )

    # 1. Greedy baseline: unbounded admission, SLOs tracked but nothing
    #    shed — watch goodput fall far below throughput.
    greedy = run_serving(
        arrivals,
        GreedyDispatcher(),
        ServingConfig(
            slo_factor=6.0, slo_jitter=0.1,
            shed_unreachable=False, seed=args.seed,
        ),
        num_streams=16,
        scale=args.scale,
    )
    describe("greedy", greedy)

    # 2. Bounded admission + deadline-aware shedding: same trace, same
    #    SLOs, strictly better goodput and a bounded tail.
    shed_config = ServingConfig(
        queue_depth=args.qdepth,
        queue_policy="shed-oldest",
        slo_factor=6.0,
        slo_jitter=0.1,
        shed_unreachable=True,
        seed=args.seed,
    )
    shed = run_serving(
        arrivals,
        ConcurrencyCapDispatcher(args.cap),
        shed_config,
        num_streams=16,
        scale=args.scale,
    )
    describe("shed-oldest", shed)
    print(
        f"\nshedding lifts goodput "
        f"{greedy.goodput:.0f} -> {shed.goodput:.0f} req/s and cuts p99 "
        f"{greedy.p99_sojourn * 1e3:.2f} -> {shed.p99_sojourn * 1e3:.2f} ms\n"
    )

    # 3. Crash-safe journaling: the same shedding run with a planned
    #    harness crash mid-flight, then a deterministic resume.
    crash_at = args.duration / 2
    crash_config = ServingConfig(
        queue_depth=args.qdepth,
        queue_policy="shed-oldest",
        slo_factor=6.0,
        slo_jitter=0.1,
        shed_unreachable=True,
        plan=FaultPlan(
            [FaultSpec(kind=FaultKind.HARNESS_CRASH, time=crash_at)]
        ),
        seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "run.jsonl"
        try:
            run_serving(
                arrivals,
                ConcurrencyCapDispatcher(args.cap),
                crash_config,
                num_streams=16,
                scale=args.scale,
                journal_path=journal_path,
            )
        except HarnessCrash as crash:
            committed = len(RunJournal(journal_path).entries())
            print(
                f"harness crashed at t={crash.time * 1e3:.1f} ms with "
                f"{committed} outcomes safely journaled"
            )
        resumed = run_serving(
            arrivals,
            ConcurrencyCapDispatcher(args.cap),
            crash_config,
            num_streams=16,
            scale=args.scale,
            journal_path=journal_path,
            resume=True,
        )
        print(
            f"resumed: replayed {resumed.recovered_entries} journaled "
            f"outcomes, finished the remaining "
            f"{len(arrivals) - resumed.recovered_entries}"
        )
        same = (
            resumed.sojourn_times == shed.sojourn_times
            and resumed.outcomes == shed.outcomes
            and resumed.energy == shed.energy
        )
        print(
            "resume matches the uninterrupted run exactly: "
            f"{'yes' if same else 'NO'}"
        )


if __name__ == "__main__":
    main()
