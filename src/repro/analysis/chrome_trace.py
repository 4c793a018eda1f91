"""Export simulator traces to Chrome's Trace Event format.

ASCII timelines (:mod:`repro.analysis.timeline`) are great in a terminal;
for interactive inspection, :func:`to_chrome_trace` converts a timeline
(a harness run's ``trace``, derived from its command record and its fault
marks by :func:`repro.framework.metrics.record_timeline`) into the JSON
consumed by ``chrome://tracing`` / Perfetto — the closest free analogue
to the NVIDIA Visual Profiler views the paper's figures come from.

Mapping: each simulator *track* becomes a Chrome "thread" (``tid``) under a
single "process" (the GPU); spans become complete (``"ph": "X"``) events
with microsecond timestamps; instants become instant (``"ph": "i"``)
events.  Categories carry over for Perfetto filtering.

Telemetry counter events (``"ph": "C"`` from
:func:`repro.telemetry.exporters.snapshots_to_counter_events`) can be
merged in via ``counter_events``: they land in their own process
(:data:`~repro.telemetry.exporters.TELEMETRY_PID`) so Perfetto draws the
metric charts under a separate expandable header below the GPU timeline.
Causal-tracing spans (async ``"ph": "b"/"e"`` pairs from
:func:`repro.telemetry.tracing.spans_to_chrome_events`) merge the same
way via ``span_events`` under their own process
(:data:`~repro.telemetry.tracing.TRACING_PID`).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..sim.trace import TraceRecorder

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: Process id used for all GPU tracks.
GPU_PID = 1


def _track_sort_key(track: str):
    """Natural-ordering key: digit runs compare numerically, text runs
    lexically.

    Each piece maps to a *typed* tuple so a digit run never meets a text
    run in a raw ``int < str`` comparison (which raises TypeError when the
    numeric split misses, e.g. ``stream-`` next to ``stream-2``); digit
    pieces sort before text pieces at the same position.
    """
    parts = re.split(r"(\d+)", track)
    return [
        (0, int(p), "") if p.isdigit() else (1, 0, p) for p in parts if p
    ]


def _process_metadata(pid: int, name: str) -> List[Dict[str, object]]:
    """Name a process and pin its display position to its ``pid``."""
    return [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": name},
        },
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": pid},
        },
    ]


def to_chrome_trace(
    trace: TraceRecorder,
    process_name: str = "Simulated GPU",
    counter_events: Optional[Sequence[Dict[str, object]]] = None,
    telemetry_process_name: str = "Telemetry",
    span_events: Optional[Sequence[Dict[str, object]]] = None,
    tracing_process_name: str = "Tracing",
) -> Dict[str, object]:
    """Build the Trace Event JSON object (``traceEvents`` + metadata)."""
    events: List[Dict[str, object]] = []
    tracks = sorted(trace.tracks(), key=_track_sort_key)
    tids = {track: i + 1 for i, track in enumerate(tracks)}

    # Metadata: name the process and each track-thread.  Explicit
    # process/thread sort indices pin the display order (GPU first, tracks
    # in natural order) regardless of event arrival order.
    events.extend(_process_metadata(GPU_PID, process_name))
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": GPU_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": GPU_PID,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )

    for span in trace.spans:
        events.append(
            {
                "ph": "X",
                "pid": GPU_PID,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.category,
                "ts": span.start * 1e6,        # Chrome wants microseconds
                "dur": span.duration * 1e6,
                "args": dict(span.meta),
            }
        )
    for instant in trace.instants:
        events.append(
            {
                "ph": "i",
                "pid": GPU_PID,
                "tid": tids[instant.track],
                "name": instant.name,
                "cat": instant.category,
                "ts": instant.time * 1e6,
                "s": "t",  # thread-scoped instant
                "args": dict(instant.meta),
            }
        )

    if counter_events:
        # Counter tracks ride in their own process so the metric charts
        # group under one header instead of interleaving with streams.
        telemetry_pid = next(
            (int(e["pid"]) for e in counter_events if "pid" in e), GPU_PID + 1
        )
        events.extend(_process_metadata(telemetry_pid, telemetry_process_name))
        events.extend(dict(e) for e in counter_events)

    if span_events:
        # Causal traces likewise ride in their own process: one async
        # track per trace id, grouped under a "Tracing" header.
        tracing_pid = next(
            (int(e["pid"]) for e in span_events if "pid" in e), GPU_PID + 2
        )
        events.extend(_process_metadata(tracing_pid, tracing_process_name))
        events.extend(dict(e) for e in span_events)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro simulated Tesla K20"},
    }


def write_chrome_trace(
    trace: TraceRecorder,
    path: Union[str, Path],
    process_name: str = "Simulated GPU",
    counter_events: Optional[Sequence[Dict[str, object]]] = None,
    span_events: Optional[Sequence[Dict[str, object]]] = None,
) -> Path:
    """Serialize the trace to ``path`` (JSON); returns the path.

    Open the file in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(
            to_chrome_trace(
                trace,
                process_name=process_name,
                counter_events=counter_events,
                span_events=span_events,
            ),
            fh,
        )
    return path
