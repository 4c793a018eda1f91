#!/usr/bin/env python3
"""Live telemetry for a Hyper-Q run: scrape it, chart it, trace it.

Runs the paper's Figure 8 configuration (a {gaussian, needle} workload
with the memory-transfer mutex enabled) with the unified telemetry
subsystem attached, then shows every way the metrics leave the simulator:

* a terminal dashboard — per-series table with block-character sparklines
  of occupancy, power, queue depths and Hyper-Q slot usage over the run;
* a real HTTP scrape — the stdlib ``/metrics`` handler is started on an
  ephemeral port and scraped with ``urllib``, exactly what a Prometheus
  server would do;
* file dumps — Prometheus text exposition, JSONL snapshots, and a Chrome
  trace with the GPU timeline and the metric counter tracks merged into
  one file for ``chrome://tracing`` / Perfetto.

Run:
    python examples/telemetry_dashboard.py [--scale small|paper]
"""

import argparse
import urllib.request
from pathlib import Path

from repro.analysis.chrome_trace import write_chrome_trace
from repro.analysis.tables import format_table
from repro.core.runner import quick_run
from repro.telemetry import (
    MetricsServer,
    Telemetry,
    generate_latest,
    metrics_table,
    snapshots_to_counter_events,
    write_jsonl,
)

#: Metric families worth charting in Perfetto — the run's live vitals.
COUNTER_TRACKS = (
    "repro_gpu_thread_occupancy",
    "repro_gpu_power_watts",
    "repro_gpu_active_streams",
    "repro_gpu_hyperq_queues_in_use",
    "repro_gpu_dma_queue_depth",
    "repro_sim_calendar_depth",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--apps", type=int, default=16)
    parser.add_argument("--interval", type=float, default=None,
                        help="sample interval in simulated seconds")
    parser.add_argument("--filter", default="repro_gpu_", metavar="SUBSTR",
                        help="series filter for the terminal table")
    parser.add_argument("--out", type=Path, default=Path("results/telemetry"),
                        help="directory for the exporter dumps")
    args = parser.parse_args()

    interval = args.interval
    if interval is None:
        # Oversample short runs the same way the power examples do.
        interval = 100e-6 if args.scale != "paper" else 2e-3

    telemetry = Telemetry(interval=interval)
    run = quick_run(
        pair=("gaussian", "needle"),
        num_apps=args.apps,
        num_streams=args.apps,
        memory_sync=True,  # Figure 8's memory mode
        scale=args.scale,
        telemetry=telemetry,
    )

    # -- terminal dashboard ------------------------------------------------
    print(run.summary())
    print()
    rows = metrics_table(telemetry.snapshots, pattern=args.filter, width=48)
    print(format_table(
        rows,
        title=f"Telemetry — {len(telemetry.snapshots)} samples every "
        f"{interval * 1e6:.0f} us of simulated time",
    ))

    # -- HTTP scrape -------------------------------------------------------
    with MetricsServer(telemetry.registry) as server:
        url = server.url
        scraped = urllib.request.urlopen(url, timeout=5).read().decode()
    lines = [l for l in scraped.splitlines() if not l.startswith("#")]
    print(f"\nscraped {len(lines)} series from {url} "
          "(stdlib handler, Prometheus text exposition)")

    # -- file dumps --------------------------------------------------------
    args.out.mkdir(parents=True, exist_ok=True)
    prom_path = args.out / "metrics.prom"
    prom_path.write_text(generate_latest(telemetry.registry))
    jsonl_path = args.out / "metrics.jsonl"
    write_jsonl(telemetry.snapshots, jsonl_path)
    counters = snapshots_to_counter_events(
        telemetry.snapshots, include=COUNTER_TRACKS
    )
    trace_path = write_chrome_trace(
        run.harness.trace,
        args.out / "trace_with_counters.json",
        counter_events=counters,
    )
    print(f"wrote {prom_path} ({prom_path.stat().st_size} bytes)")
    print(f"wrote {jsonl_path} ({len(telemetry.snapshots)} snapshots)")
    print(f"wrote merged Chrome trace {trace_path} "
          f"({len(counters)} counter events) — open in chrome://tracing")


if __name__ == "__main__":
    main()
