"""nvprof-style summary statistics from a run's timeline.

``nvprof``/``nsys`` end every profiling session with per-kernel and
per-memcpy summary tables; these helpers produce the same view from a
timeline (a harness run's ``trace``, derived from its command record by
:func:`repro.framework.metrics.record_timeline`), rounding out the
profiler story next to the ASCII timeline and the Chrome-trace export.

All times in the returned rows are in the units indicated by the key
suffix (``_ms``/``_us``); byte totals are raw bytes plus a derived
effective bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..sim.trace import TraceRecorder

__all__ = ["kernel_summary", "transfer_summary"]


def _span_stats(durations: List[float]) -> Dict[str, float]:
    # An empty duration list must not reach arr.min()/arr.max(), which
    # raise on zero-size arrays; zeros keep the row shape intact for
    # callers that tabulate categories with no recorded spans.
    if len(durations) == 0:
        return {"total_ms": 0.0, "avg_us": 0.0, "min_us": 0.0, "max_us": 0.0}
    arr = np.asarray(durations, dtype=float)
    return {
        "total_ms": float(arr.sum() * 1e3),
        "avg_us": float(arr.mean() * 1e6),
        "min_us": float(arr.min() * 1e6),
        "max_us": float(arr.max() * 1e6),
    }


def kernel_summary(trace: TraceRecorder) -> List[Dict[str, object]]:
    """Per-kernel execution statistics, ordered by total time (desc).

    One row per kernel symbol: launch count, total/avg/min/max execution
    interval (first block placed to last block retired) and the share of
    the trace's total kernel time — the classic ``nvprof`` summary columns.
    """
    by_name: Dict[str, List[float]] = {}
    for span in trace.filter(category="kernel"):
        by_name.setdefault(span.name, []).append(span.duration)
    grand_total = sum(sum(v) for v in by_name.values())
    rows = []
    for name, durations in by_name.items():
        stats = _span_stats(durations)
        rows.append(
            {
                "kernel": name,
                "calls": len(durations),
                "time_pct": (
                    sum(durations) / grand_total * 100.0 if grand_total else 0.0
                ),
                **stats,
            }
        )
    rows.sort(key=lambda r: r["total_ms"], reverse=True)
    return rows


def transfer_summary(trace: TraceRecorder) -> List[Dict[str, object]]:
    """Per-direction memcpy statistics (count, bytes, effective GB/s)."""
    rows = []
    for category, label in (
        ("memcpy_htod", "HtoD"),
        ("memcpy_dtoh", "DtoH"),
    ):
        spans = trace.filter(category=category)
        if not spans:
            continue
        durations = [s.duration for s in spans]
        nbytes = sum(int(s.meta.get("bytes", 0)) for s in spans)
        total_time = sum(durations)
        rows.append(
            {
                "direction": label,
                "count": len(spans),
                "bytes": nbytes,
                "effective_GBps": (
                    nbytes / total_time / 1e9 if total_time > 0 else 0.0
                ),
                **_span_stats(durations),
            }
        )
    return rows
