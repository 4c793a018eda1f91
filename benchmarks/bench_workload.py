"""Workload subsystem — per-policy SLO-goodput leaderboard + mega-stream.

Two benches cover the traffic-generation subsystem's headline claims
(docs/workloads.md):

* **Leaderboard sweep** — every canonical scenario (steady, burst,
  diurnal, overload) is replayed through batched admission under the
  learning bandit and all five static launch orders.  The per-policy
  SLO-goodput leaderboard and the bandit-vs-worst-static win/regression
  waterfall land in ``results/workload_leaderboard.json``; the bench
  asserts the bandit beats the worst static order on aggregate SLO
  goodput under sustained overload.

* **Mega-stream bounded memory** — a million-request overload scenario
  is streamed open-loop through admission, shedding and settlement in a
  subprocess, and its peak RSS is compared against a run an order of
  magnitude smaller.  The arrivals are generated chunk-seeded and the
  engine drops settled records, power segments and sensor samples as it
  goes, so peak memory must be independent of trace length.  This cell
  pins ``scale="tiny"`` explicitly: it is a memory-behavior assertion,
  not a paper-scale experiment, and must stay affordable at every
  ``REPRO_SCALE``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import checkpoint_rows, once

from repro.analysis import (
    build_leaderboard,
    build_waterfall,
    render_leaderboard,
    render_waterfall,
    write_leaderboard_json,
)
from repro.scheduling.orders import all_orders
from repro.serving import SHED_OUTCOMES
from repro.telemetry.trajectory import record_trajectory_point
from repro.workload import get_scenario, run_traffic_batched

pytestmark = pytest.mark.workload

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_workload.json"

SCENARIO_NAMES = ("steady", "burst", "diurnal", "overload")
POLICIES = ("bandit",) + tuple(order.value for order in all_orders())
BATCH_SIZE = 8

#: Requests per scenario cell.  Calibrated so the bandit's exploration
#: pass completes with rounds to spare for exploitation at every scale.
REQUESTS_BY_SCALE = {"tiny": 240, "small": 320, "paper": 320}

#: The acceptance cell: one million requests streamed end to end.
MEGA_REQUESTS = 1_000_000
MEGA_BASE_REQUESTS = 125_000
#: Peak-RSS ratio allowed between the 8x-longer run and the base run.
MEGA_RSS_RATIO_LIMIT = 1.5

#: Subprocess body for one mega-stream run: serve ``argv[1]`` requests
#: of a 100x-capacity overload scenario open-loop (front-door shedding
#: absorbs the excess in O(1) per arrival) and report peak RSS.
_MEGA_CHILD = """\
import dataclasses, json, resource, sys
from repro.workload import get_scenario, run_traffic

n = int(sys.argv[1])
scenario = dataclasses.replace(
    get_scenario("overload"), name="mega-overload", load=100.0
)
built = scenario.build(n, scale="tiny")
result = run_traffic(
    built, policy="reject", queue_depth=4, front_door=True, scale="tiny"
)
print(json.dumps({
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "outcomes": dict(sorted(result.serving.outcomes.items())),
    "deadline_met": result.serving.deadline_met,
}))
"""


# ---------------------------------------------------------------------------
# Leaderboard sweep
# ---------------------------------------------------------------------------


def _sweep(scale):
    requests = REQUESTS_BY_SCALE.get(scale, 320)
    cells = []
    rows = []
    for name in SCENARIO_NAMES:
        built = get_scenario(name).build(requests, scale=scale)
        for policy in POLICIES:
            metrics = run_traffic_batched(
                built, policy, batch_size=BATCH_SIZE, scale=scale
            ).metrics()
            cells.append(metrics)
            rows.append(
                {
                    "scenario": metrics["scenario"],
                    "policy": metrics["policy"],
                    "goodput": metrics["goodput"],
                    "slo_pct": metrics["slo_attainment"] * 100.0,
                    "deadline_met": metrics["deadline_met"],
                    "arrivals": metrics["arrivals"],
                    "virtual_makespan_s": metrics["virtual_makespan"],
                }
            )
        # A crashed later scenario must not lose the finished ones.
        checkpoint_rows(rows, "workload_leaderboard.csv")
    return cells, rows


def test_workload_leaderboard(benchmark, scale, results_dir):
    cells, rows = once(benchmark, _sweep, scale)

    board = build_leaderboard(cells)
    # Baseline for the waterfall: the static order with the worst
    # aggregate goodput across scenarios — the cost of picking a launch
    # order blind and getting it maximally wrong.
    statics = [p for p in POLICIES if p != "bandit"]
    aggregate = {
        p: sum(board[s]["policies"][p]["goodput"] for s in SCENARIO_NAMES)
        for p in statics
    }
    worst_static = min(statics, key=lambda p: (aggregate[p], p))
    waterfall = build_waterfall(board, "bandit", worst_static)

    print()
    print(render_leaderboard(board))
    print()
    print(render_waterfall(waterfall))
    write_leaderboard_json(
        board,
        results_dir / "workload_leaderboard.json",
        waterfall=waterfall,
        meta={
            "scale": scale,
            "requests": REQUESTS_BY_SCALE.get(scale, 320),
            "batch_size": BATCH_SIZE,
            "baseline": worst_static,
        },
    )

    # Every cell scored every request exactly once.
    requests = REQUESTS_BY_SCALE.get(scale, 320)
    for cell in cells:
        assert cell["arrivals"] == requests, cell

    # The headline contract: under sustained overload the learning
    # bandit beats the worst static launch order on SLO goodput.
    overload = board["overload"]["policies"]
    bandit_goodput = overload["bandit"]["goodput"]
    static_goodputs = {p: overload[p]["goodput"] for p in statics}
    floor_policy = min(statics, key=lambda p: (static_goodputs[p], p))
    floor = static_goodputs[floor_policy]
    assert bandit_goodput > floor, (
        f"bandit goodput {bandit_goodput:.2f} does not beat the worst "
        f"static order {floor_policy} ({floor:.2f}) under overload"
    )
    margin_pct = (bandit_goodput - floor) / floor * 100.0 if floor else 0.0
    print(
        f"\noverload: bandit {bandit_goodput:.2f} req/s vs worst static "
        f"{floor_policy} {floor:.2f} req/s ({margin_pct:+.1f}%)"
    )

    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_workload",
        {
            "scenarios": len(SCENARIO_NAMES),
            "policies": len(POLICIES),
            "bandit_overload_goodput": bandit_goodput,
            "worst_static_overload_goodput": floor,
            "overload_margin_pct": margin_pct,
            "waterfall_wins": sum(
                1 for r in waterfall if r["verdict"] == "win"
            ),
            "waterfall_regressions": sum(
                1 for r in waterfall if r["verdict"] == "regression"
            ),
        },
    )


# ---------------------------------------------------------------------------
# Mega-stream bounded memory
# ---------------------------------------------------------------------------


def _mega_run(requests):
    """Serve ``requests`` mega-overload arrivals in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if p
    )
    env["REPRO_SCALE"] = "tiny"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _MEGA_CHILD, str(requests)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, (
        f"mega-stream child ({requests} requests) failed:\n{proc.stderr}"
    )
    payload = json.loads(proc.stdout)
    payload["wall_s"] = time.monotonic() - started
    payload["requests"] = requests
    return payload


def _mega_pair():
    return [_mega_run(MEGA_BASE_REQUESTS), _mega_run(MEGA_REQUESTS)]


def _mega_row(run):
    """One mega-stream run's figures.  ``throughput_req_s`` counts every
    arrival, front-door rejections included; ``completed_req_s`` counts
    only requests that ran (``completed`` or ``late``)."""
    outcomes = run["outcomes"]
    ran = outcomes.get("completed", 0) + outcomes.get("late", 0)
    shed = sum(outcomes.get(outcome, 0) for outcome in SHED_OUTCOMES)
    return {
        "requests": run["requests"],
        "peak_rss_mb": run["rss_kb"] / 1024.0,
        "wall_s": run["wall_s"],
        "throughput_req_s": run["requests"] / run["wall_s"],
        "completed_req_s": ran / run["wall_s"],
        "shed_pct": shed / run["requests"] * 100.0,
        "completed": outcomes.get("completed", 0),
        "shed": shed,
    }


def test_mega_stream_bounded_memory(benchmark, results_dir):
    base, mega = once(benchmark, _mega_pair)

    served = sum(mega["outcomes"].values())
    assert served == MEGA_REQUESTS, mega["outcomes"]
    ratio = mega["rss_kb"] / base["rss_kb"]
    rows = [_mega_row(base), _mega_row(mega)]
    figures = rows[1]
    checkpoint_rows(rows, "workload_mega_stream.csv")
    print(
        f"\nmega-stream: {MEGA_REQUESTS:,} requests in {mega['wall_s']:.0f}s "
        f"({figures['throughput_req_s']:,.0f} req/s arriving, "
        f"{figures['completed_req_s']:,.0f} req/s completed, "
        f"{figures['shed_pct']:.1f}% shed), peak RSS "
        f"{mega['rss_kb'] / 1024:.0f} MB vs {base['rss_kb'] / 1024:.0f} MB "
        f"at {MEGA_BASE_REQUESTS:,} (x{ratio:.2f})"
    )

    # Peak RSS must be independent of trace length: 8x the requests may
    # not cost more than 1.5x the memory.
    assert ratio < MEGA_RSS_RATIO_LIMIT, (
        f"peak RSS grew x{ratio:.2f} for 8x the requests "
        f"({base['rss_kb']} kB -> {mega['rss_kb']} kB): the streamed "
        "serving path is accumulating per-request state"
    )

    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_workload",
        {
            "requests": MEGA_REQUESTS,
            "peak_rss_mb": figures["peak_rss_mb"],
            "rss_ratio_vs_8x_fewer": ratio,
            "throughput_req_s": figures["throughput_req_s"],
            "completed_req_s": figures["completed_req_s"],
            "shed_pct": figures["shed_pct"],
            "completed": figures["completed"],
        },
    )
