"""Pinned outputs of the arrival-driven serving engine.

A fixed matrix of :func:`run_serving` cells, one sha1 each, over
everything a run reports: every record, completion time, energy, peak
power, sojourns, queue delays, outcomes, breaker and fleet counts,
admission-stall warnings, the sink payload, causal spans and telemetry
series.  Across the cells every admission feature is switched on at
least once (each queue policy, SLO deadlines with and without jitter
and shedding, explicit baselines, breakers under faults, a fleet gate,
a sink with bounded memory and front-door shedding, streamed
per-arrival deadlines), and all three dispatchers run, one of them
with a stall guard.  ``plain`` is the default config under
:class:`GreedyDispatcher`.

The journal itself, and crash with resume, are pinned byte for byte by
``tests/integrity/test_journal_stores.py``; the ``journal-crash`` cell
here pins what a resumed run returns.

Run as a script to print the digest of every cell::

    PYTHONPATH=src python tests/serving/test_pinned_serving.py
"""

import hashlib
import tempfile
import warnings
from pathlib import Path

import pytest

from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.serving import (
    AdmissionStallWarning,
    BreakerConfig,
    ConcurrencyCapDispatcher,
    FleetServingConfig,
    GreedyDispatcher,
    PowerCapDispatcher,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)
from repro.sim.errors import HarnessCrash
from repro.telemetry import BurnRateConfig, Telemetry, Tracing
from repro.workload import TrafficStats, get_scenario

pytestmark = pytest.mark.serving

SCALE = "tiny"
HOT = [("gaussian", 1), ("nn", 1)]
MIX = [("nn", 2), ("needle", 1)]


def hot(seed=11):
    """Arrivals well above a cap-1 service rate, so queues fill."""
    return poisson_arrivals(3000.0, 0.02, HOT, seed=seed)


def digest(result, extra=()):
    """sha1 over one run's reported outputs plus ``extra`` items."""
    h = hashlib.sha1()
    for record in result.records:
        h.update(repr(record).encode())
    h.update(
        repr(
            (
                result.dispatcher,
                result.jobs,
                result.completion_time,
                result.energy,
                result.average_power,
                result.peak_power,
                result.peak_in_flight,
            )
        ).encode()
    )
    h.update(repr(result.sojourn_times).encode())
    h.update(repr(result.queue_delays).encode())
    h.update(repr(sorted(result.outcomes.items())).encode())
    h.update(
        repr(
            (
                result.deadline_met,
                result.breaker_trips,
                result.breaker_fast_fails,
                result.recovered_entries,
                result.resumed,
                result.fleet_devices,
                result.devices_lost,
            )
        ).encode()
    )
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def serve(arrivals, dispatcher, config=None, **kwargs):
    """Run one cell, returning the result and its stall warnings."""
    kwargs.setdefault("num_streams", 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AdmissionStallWarning)
        result = run_serving(
            arrivals, dispatcher, config, scale=SCALE, **kwargs
        )
    stalls = [
        str(w.message) for w in caught
        if issubclass(w.category, AdmissionStallWarning)
    ]
    return result, stalls


def cell_plain():
    arrivals = poisson_arrivals(8000.0, 0.004, MIX, seed=1)
    result, stalls = serve(arrivals, GreedyDispatcher(), num_streams=16)
    return digest(result, [stalls])


def _queue_cell(policy):
    config = ServingConfig(queue_depth=3, queue_policy=policy)
    result, stalls = serve(
        hot(), ConcurrencyCapDispatcher(1), config, num_streams=4
    )
    return digest(result, [stalls])


def cell_block():
    return _queue_cell("block")


def cell_reject():
    return _queue_cell("reject")


def cell_shed_oldest():
    return _queue_cell("shed-oldest")


def _slo_cell(shed):
    config = ServingConfig(
        slo_factor=2.0, slo_jitter=0.2, shed_unreachable=shed, seed=5
    )
    result, stalls = serve(hot(5), ConcurrencyCapDispatcher(2), config)
    return digest(result, [stalls])


def cell_slo_shed():
    return _slo_cell(True)


def cell_slo_no_shed():
    return _slo_cell(False)


def cell_slo_baselines():
    config = ServingConfig(
        queue_depth=6,
        queue_policy="shed-oldest",
        slo_factor=3.0,
        baseline_runtimes=(("gaussian", 1.0e-3), ("nn", 2.5e-4)),
        seed=2,
    )
    result, stalls = serve(hot(2), ConcurrencyCapDispatcher(3), config)
    return digest(result, [stalls])


def cell_breaker_faults():
    plan = FaultPlan.generate(
        3, 0.02, launch_fail_rate=600.0, kernel_hang_rate=150.0
    )
    config = ServingConfig(
        queue_depth=4,
        queue_policy="reject",
        breaker=BreakerConfig(threshold=2, cooldown=2e-3),
        plan=plan,
        seed=3,
    )
    result, stalls = serve(
        poisson_arrivals(1500.0, 0.02, HOT, seed=3),
        ConcurrencyCapDispatcher(4),
        config,
    )
    return digest(result, [stalls])


def cell_fleet_gate():
    plan = FaultPlan(
        [
            FaultSpec(FaultKind.DEVICE_LOSS, 4e-3, device=1),
            FaultSpec(FaultKind.LAUNCH_FAIL, 6e-3, target="nn"),
        ]
    )
    config = ServingConfig(
        plan=plan,
        breaker=BreakerConfig(threshold=1, cooldown=1e-3),
        fleet=FleetServingConfig(
            num_devices=4, detection_latency=1e-3, slow_start_window=2e-3
        ),
        seed=7,
    )
    result, stalls = serve(
        poisson_arrivals(4000.0, 0.01, MIX, seed=7),
        ConcurrencyCapDispatcher(8),
        config,
    )
    return digest(result, [stalls])


def cell_power_cap_guard():
    arrivals = poisson_arrivals(2000.0, 0.004, [("gaussian", 1)], seed=1)
    result, stalls = serve(
        arrivals,
        PowerCapDispatcher(watts=1.0, stall_timeout=2e-4),
        num_streams=4,
        power_interval=5e-4,
    )
    assert stalls
    return digest(result, [stalls])


def cell_front_door_sink():
    sink = TrafficStats()
    config = ServingConfig(queue_depth=2, queue_policy="reject", seed=4)
    result, stalls = serve(
        iter(poisson_arrivals(6000.0, 0.01, HOT, seed=4)),
        ConcurrencyCapDispatcher(2),
        config,
        sink=sink,
        front_door=True,
    )
    return digest(result, [stalls, sink.payload()])


def cell_streamed_deadlines():
    built = get_scenario("overload").build(60, scale=SCALE)
    sink = TrafficStats()
    config = ServingConfig(
        queue_depth=3,
        queue_policy="block",
        baseline_runtimes=tuple(sorted(built.baselines.items())),
        seed=built.scenario.seed,
    )
    result, stalls = serve(
        built.stream(),
        ConcurrencyCapDispatcher(2),
        config,
        sink=sink,
        memory_sync=False,
    )
    return digest(result, [stalls, sink.payload()])


def cell_telemetry_tracing():
    telemetry = Telemetry()
    tracing = Tracing(seed=6, burn=BurnRateConfig(min_events=2))
    config = ServingConfig(
        queue_depth=4, queue_policy="reject", slo_factor=1.5, seed=6
    )
    result, stalls = serve(
        hot(6),
        ConcurrencyCapDispatcher(2),
        config,
        telemetry=telemetry,
        tracing=tracing,
    )
    spans = [span.as_dict() for span in tracing.spans]
    series = [(snap.time, sorted(snap.values.items())) for snap in telemetry.snapshots]
    return digest(result, [stalls, spans, tracing.alerts, series])


def cell_journal_crash():
    arrivals = poisson_arrivals(4000.0, 0.004, MIX, seed=8)
    config = ServingConfig(
        slo_factor=4.0,
        plan=FaultPlan([FaultSpec(FaultKind.HARNESS_CRASH, 2e-3)]),
        seed=8,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "serving.jsonl"
        with pytest.raises(HarnessCrash):
            serve(arrivals, ConcurrencyCapDispatcher(2), config, journal_path=path)
        result, stalls = serve(
            arrivals,
            ConcurrencyCapDispatcher(2),
            config,
            journal_path=path,
            resume=True,
        )
    assert result.resumed and result.recovered_entries > 0
    return digest(result, [stalls])


CELLS = {
    "plain": cell_plain,
    "block": cell_block,
    "reject": cell_reject,
    "shed-oldest": cell_shed_oldest,
    "slo-shed": cell_slo_shed,
    "slo-no-shed": cell_slo_no_shed,
    "slo-baselines": cell_slo_baselines,
    "breaker-faults": cell_breaker_faults,
    "fleet-gate": cell_fleet_gate,
    "power-cap-guard": cell_power_cap_guard,
    "front-door-sink": cell_front_door_sink,
    "streamed-deadlines": cell_streamed_deadlines,
    "telemetry-tracing": cell_telemetry_tracing,
    "journal-crash": cell_journal_crash,
}

#: sha1 per cell, computed before the serving engine moved into
#: :mod:`repro.serving`; a refactor must not move any of them.
PINNED = {
    "plain": "30ef7b519e9713dbd1b95e02d6f6965d121c772a",
    "block": "eae3aba131d1b6eb12180073dba184797adb62e2",
    "reject": "2d51544074fd50d8d6e5cbde08c3c72f25dca6fe",
    "shed-oldest": "dccccbd26153114dc060daae3ca52dc45ed8c22b",
    "slo-shed": "f518672019aef80453de69367a78161e96c1aff4",
    "slo-no-shed": "b98826262161e9c80b9b93dbf55dc55d713aaf28",
    "slo-baselines": "3f34b0b40b3f2ec5b212eb7e626cb1cba141f97e",
    "breaker-faults": "f38a2826ad56c7c92cda054785f4abbb9ec27bc5",
    "fleet-gate": "913781c21879f76dce940152e7313b73d3da2313",
    "power-cap-guard": "d3c8d123452d16f513fe02d2f278c65cab9cf7a4",
    "front-door-sink": "afb5f976975029810dc1d35291784f081f12344b",
    "streamed-deadlines": "962e0eaaf8bef3036225703ddfaf58d65d3f21e9",
    "telemetry-tracing": "c5e6bbe8f9a0f805d866e90b76f99ce8bbd11958",
    "journal-crash": "622c084256b21486ccdc6b16f03b1b3e0c61da58",
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_serving_cell(name):
    assert CELLS[name]() == PINNED[name]


if __name__ == "__main__":
    for name, cell in CELLS.items():
        print(f"    {name!r}: {cell()!r},")
