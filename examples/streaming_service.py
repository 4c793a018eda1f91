#!/usr/bin/env python3
"""A streaming GPU service: online dispatch of arriving jobs.

The paper's future work envisions schedulers that "manage streaming
workloads, rather than a finite set".  This example runs an open-loop
service: nn queries and needle alignments arrive as a Poisson stream and
an online dispatcher decides when each job may enter the GPU.

Three policies are compared on the same arrival trace:

* greedy          — admit immediately (throughput-first),
* cap-1           — serialize everything (the no-Hyper-Q strawman),
* power-cap       — admit only under a board-power budget (energy-aware).

Run:
    python examples/streaming_service.py [--rate 12000] [--scale tiny]
"""

import argparse

from repro.serving import (
    ConcurrencyCapDispatcher,
    GreedyDispatcher,
    PowerCapDispatcher,
    poisson_arrivals,
    run_serving,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=12000.0,
                        help="mean arrivals per second")
    parser.add_argument("--duration", type=float, default=0.006,
                        help="trace length in simulated seconds")
    parser.add_argument("--scale", default="tiny", choices=("tiny", "small", "paper"))
    parser.add_argument("--streams", type=int, default=16)
    parser.add_argument("--power-cap", type=float, default=70.0)
    args = parser.parse_args()

    arrivals = poisson_arrivals(
        rate=args.rate,
        duration=args.duration,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=7,
    )
    print(
        f"{len(arrivals)} arrivals over {args.duration * 1e3:.1f} ms "
        f"(~{args.rate:.0f}/s), mix 2:1 nn:needle, scale={args.scale}\n"
    )

    dispatchers = [
        GreedyDispatcher(),
        ConcurrencyCapDispatcher(1),
        PowerCapDispatcher(args.power_cap),
    ]
    header = (
        f"{'policy':<18}{'mean sojourn':>14}{'p95':>10}{'jobs/s':>9}"
        f"{'avg W':>8}{'peak W':>8}{'energy':>9}{'max inflight':>13}"
    )
    print(header)
    print("-" * len(header))
    results = []
    for dispatcher in dispatchers:
        result = run_serving(
            arrivals,
            dispatcher,
            num_streams=args.streams,
            memory_sync=True,
            scale=args.scale,
        )
        results.append(result)
        print(
            f"{result.dispatcher:<18}"
            f"{result.mean_sojourn * 1e3:12.2f}ms"
            f"{result.p95_sojourn * 1e3:8.2f}ms"
            f"{result.throughput:9.0f}"
            f"{result.average_power:8.1f}"
            f"{result.peak_power:8.1f}"
            f"{result.energy:8.3f}J"
            f"{result.peak_in_flight:13d}"
        )

    greedy, serial, capped = results
    print(
        f"\nGreedy dispatch cuts mean sojourn "
        f"{serial.mean_sojourn / greedy.mean_sojourn:.1f}x vs serialized "
        f"service; the {args.power_cap:.0f} W cap trades "
        f"{(capped.mean_sojourn / greedy.mean_sojourn - 1) * 100:.0f}% extra "
        f"latency for a bounded admission power envelope."
    )


if __name__ == "__main__":
    main()
