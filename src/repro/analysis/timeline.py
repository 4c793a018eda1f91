"""ASCII timeline rendering — the repository's Visual Profiler view.

The paper's Figures 1, 2 and 5 are NVIDIA Visual Profiler screenshots:
per-stream rows with dark boxes for HtoD copies and light boxes for kernel
execution.  :func:`render_timeline` draws the same picture from a timeline
(a harness run's ``trace``, derived from its command record by
:func:`repro.framework.metrics.record_timeline`) using block characters,
one row per track, so the reproduced timelines can be eyeballed in a
terminal or pasted into EXPERIMENTS.md.

Glyphs: ``#`` HtoD copy, ``%`` DtoH copy, ``=`` kernel execution,
``-`` other activity, ``.`` idle.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.trace import TraceRecorder

__all__ = ["render_timeline", "timeline_rows", "GLYPHS"]

GLYPHS: Dict[str, str] = {
    "memcpy_htod": "#",
    "memcpy_dtoh": "%",
    "kernel": "=",
    "dma_htod": "#",
    "dma_dtoh": "%",
}
IDLE = "."
OTHER = "-"


def _natural_key(track: str):
    """Sort ``stream-10`` after ``stream-9`` (natural numeric order)."""
    parts = re.split(r"(\d+)", track)
    return [int(p) if p.isdigit() else p for p in parts]


def timeline_rows(
    trace: TraceRecorder,
    width: int = 100,
    tracks: Optional[Sequence[str]] = None,
    categories: Optional[Sequence[str]] = None,
    window: Optional[Tuple[float, float]] = None,
) -> List[Tuple[str, str]]:
    """(track, row string) pairs; later spans overwrite earlier glyphs.

    Parameters
    ----------
    trace:
        Source trace.
    width:
        Characters per row.
    tracks:
        Track names to include (default: every ``stream-*`` track, natural
        order).
    categories:
        Categories to draw (default: copies + kernels).
    window:
        (t0, t1) time window; defaults to the trace extent.
    """
    if window is None:
        window = trace.extent()
    t0, t1 = window
    if t1 <= t0:
        return []
    if tracks is None:
        tracks = sorted(
            (t for t in trace.tracks() if t.startswith("stream-")),
            key=_natural_key,
        )
    categories = set(categories or GLYPHS)

    scale = width / (t1 - t0)
    rows: List[Tuple[str, str]] = []
    for track in tracks:
        cells = [IDLE] * width
        for span in trace.spans:
            if span.track != track or span.category not in categories:
                continue
            if span.end <= t0 or span.start >= t1:
                continue
            a = max(0, int((span.start - t0) * scale))
            b = min(width, max(a + 1, int((span.end - t0) * scale + 0.5)))
            glyph = GLYPHS.get(span.category, OTHER)
            for i in range(a, b):
                cells[i] = glyph
        rows.append((track, "".join(cells)))
    return rows


def render_timeline(
    trace: TraceRecorder,
    width: int = 100,
    tracks: Optional[Sequence[str]] = None,
    categories: Optional[Sequence[str]] = None,
    window: Optional[Tuple[float, float]] = None,
    title: str = "",
) -> str:
    """Full multi-line ASCII timeline with a time axis and legend."""
    rows = timeline_rows(
        trace, width=width, tracks=tracks, categories=categories, window=window
    )
    if not rows:
        return "(empty trace)"
    if window is None:
        window = trace.extent()
    t0, t1 = window
    label_width = max(len(track) for track, _ in rows)
    lines: List[str] = []
    if title:
        lines.append(title)
    for track, row in rows:
        lines.append(f"{track:<{label_width}} |{row}|")
    axis = (
        f"{'':<{label_width}} |{t0 * 1e3:<{width // 2}.3f}"
        f"{t1 * 1e3:>{width - width // 2}.3f}|  [ms]"
    )
    lines.append(axis)
    lines.append(
        f"{'':<{label_width}}  legend: # HtoD memcpy   % DtoH memcpy   = kernel execution"
    )
    return "\n".join(lines)
