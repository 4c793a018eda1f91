#!/usr/bin/env python3
"""An ultrasound image-denoising pipeline with launch-order scheduling.

Scenario: a medical-imaging pipeline runs SRAD (speckle-reducing
anisotropic diffusion) over incoming ultrasound frames while a second
tenant streams k-nearest-neighbor queries through the same GPU.  SRAD's
kernels fill the device in bursts with a host round trip per iteration; nn
is transfer-bound — exactly the heterogeneous mix whose overlap potential
the paper's Section III-C reordering study targets.

The example:
1. denoises a real synthetic speckled image with the validated SRAD
   implementation and reports the roughness reduction;
2. simulates the mixed 32-job workload under all five launch orders of
   Figure 3, with and without the transfer mutex, and reports which
   schedule wins (reproducing the Figure 7 vs Figure 8 effect).

Run:
    python examples/image_denoising_pipeline.py [--scale small|paper]
"""

import argparse

import numpy as np

from repro.apps.srad import make_image, srad
from repro.core import ExperimentRunner, Workload
from repro.scheduling.orders import all_orders


def roughness(img: np.ndarray) -> float:
    """Mean absolute neighbour difference — a simple speckle measure."""
    return float(
        np.abs(np.diff(img, axis=0)).mean() + np.abs(np.diff(img, axis=1)).mean()
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--apps", type=int, default=16)
    args = parser.parse_args()

    print("Denoising a 128x128 speckled frame with SRAD (10 iterations):")
    frame = make_image((128, 128), np.random.default_rng(0), noise=0.25)
    cleaned = srad(frame, lam=0.5, iterations=10)
    print(f"  roughness before: {roughness(frame):.4f}")
    print(f"  roughness after : {roughness(cleaned):.4f} "
          f"({(1 - roughness(cleaned) / roughness(frame)) * 100:.0f}% reduction)\n")

    print(
        f"Scheduling a mixed batch of {args.apps // 2} SRAD frames and "
        f"{args.apps // 2} nn queries on {args.apps} streams:"
    )
    workload = Workload.heterogeneous_pair("nn", "srad", args.apps, scale=args.scale)
    runner = ExperimentRunner()

    header = f"{'launch order':<22} {'default':>12} {'memory sync':>12}"
    print(header)
    print("-" * len(header))
    matrices = {
        sync: runner.ordering_matrix(
            workload, num_streams=args.apps, memory_sync=sync
        )
        for sync in (False, True)
    }
    for order in all_orders():
        default_ms = matrices[False][order].makespan * 1e3
        sync_ms = matrices[True][order].makespan * 1e3
        print(f"{str(order):<22} {default_ms:10.2f}ms {sync_ms:10.2f}ms")

    for sync, results in matrices.items():
        order, run = min(results.items(), key=lambda kv: kv[1].makespan)
        label = "memory sync" if sync else "default"
        print(f"\nbest order ({label}): {order} at {run.makespan * 1e3:.2f} ms")
    print(
        "\nReordering compute-heavy SRAD frames ahead of transfer-bound nn "
        "queries lets the SRAD compute tail hide subsequent transfers — "
        "the paper's 'overlap potential' (Figures 7 and 8)."
    )


if __name__ == "__main__":
    main()
