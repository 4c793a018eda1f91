"""Open-loop traffic generation, replayable traces and scenario running.

The workload layer turns the serving stack into a traffic-driven system:
seeded arrival processes (:mod:`~repro.workload.arrivals`) compose into
multi-tenant streams (:mod:`~repro.workload.tenants`), which stream —
never materialized — through admission, scheduling, fleet and telemetry
via the scenario runner (:mod:`~repro.workload.runner`).  Traces can be
recorded to a checksummed envelope file and re-streamed byte-identically,
with crash-resume cursors (:mod:`~repro.workload.trace`).  Canonical
load-normalized scenarios live in :mod:`~repro.workload.scenarios`.

Everything here is off by default: no existing entry point imports this
package, and the serving/streaming hooks it drives are inert unless a
traffic run engages them.  See ``docs/workloads.md``.
"""

from .arrivals import (
    DEFAULT_CHUNK,
    ArrivalProcess,
    ArrivalSpec,
    DiurnalProcess,
    LogNormalProcess,
    ParetoProcess,
    PoissonProcess,
    build_process,
)
from .runner import (
    BatchedTrafficResult,
    TrafficResult,
    TrafficStats,
    run_traffic,
    run_traffic_batched,
)
from .scenarios import SCENARIOS, BuiltScenario, Scenario, get_scenario
from .tenants import TenantClass, TenantModel, TrafficStream
from .trace import (
    CURSOR_FORMAT,
    TRACE_FORMAT,
    TraceError,
    TraceReader,
    arrival_payload,
    payload_arrival,
    read_trace,
    record_trace,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "BatchedTrafficResult",
    "BuiltScenario",
    "CURSOR_FORMAT",
    "DEFAULT_CHUNK",
    "DiurnalProcess",
    "LogNormalProcess",
    "ParetoProcess",
    "PoissonProcess",
    "SCENARIOS",
    "Scenario",
    "TRACE_FORMAT",
    "TenantClass",
    "TenantModel",
    "TraceError",
    "TraceReader",
    "TrafficResult",
    "TrafficStats",
    "TrafficStream",
    "arrival_payload",
    "build_process",
    "get_scenario",
    "payload_arrival",
    "read_trace",
    "record_trace",
    "run_traffic",
    "run_traffic_batched",
]
