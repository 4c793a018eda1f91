"""Timeline spans and instants — the simulator's "Visual Profiler" view.

The paper's Figures 1, 2 and 5 are NVIDIA Visual Profiler timelines.  The
repository shows the same information as *spans* (an activity with a start
and an end on a named track, e.g. ``stream-3`` / HtoD memcpy) and
*instants* (point events such as an injected fault).  The GPU model
records neither: a run's timeline is derived after the fact from its
command record (:func:`repro.framework.metrics.record_timeline`), and only
the fault injector marks its own faults, retries and stalls into a
:class:`TraceRecorder`.  :mod:`repro.analysis.timeline` renders timelines
as ASCII charts and :mod:`repro.analysis.chrome_trace` exports them.

Spans are deliberately plain dataclasses; everything downstream (metrics,
timeline rendering, tests) works on these rows rather than reaching into
the simulator's internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Instant", "TraceRecorder", "max_overlap"]


@dataclass(frozen=True)
class Span:
    """A completed activity on a timeline track.

    Attributes
    ----------
    track:
        Row label, e.g. ``"stream-3"`` or ``"dma-htod"``.
    category:
        Activity class: ``"memcpy_htod"``, ``"memcpy_dtoh"``, ``"kernel"``,
        ``"alloc"``, ``"mutex"`` ... used for filtering and colouring.
    name:
        Human-readable label, e.g. the kernel name ``"Fan2"``.
    start, end:
        Simulated times in seconds.
    meta:
        Free-form details (bytes moved, thread-block counts, app id ...).
    """

    track: str
    category: str
    name: str
    start: float
    end: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """Whether two spans overlap in time (open intervals)."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Instant:
    """A point event on a timeline track."""

    track: str
    category: str
    name: str
    time: float
    meta: Dict[str, Any] = field(default_factory=dict)


def max_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Peak number of simultaneously open ``(start, end)`` intervals.

    Empty intervals never count, and back-to-back intervals do not
    overlap.  Used to assert that kernels really overlapped (Figure 5) or
    that copies never did (single DMA engine invariant).
    """
    points: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end <= start:
            continue
        points.append((start, 1))
        points.append((end, -1))
    # Process ends before starts at identical times.
    points.sort()
    level = peak = 0
    for _, delta in points:
        level += delta
        peak = max(peak, level)
    return peak


class TraceRecorder:
    """Spans and instants of one simulation run, in recording order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording -------------------------------------------------------

    def record(
        self,
        track: str,
        category: str,
        name: str,
        start: float,
        end: float,
        **meta: Any,
    ) -> Span:
        """Record a completed span in one call."""
        span = Span(track, category, name, start, end, dict(meta))
        self.spans.append(span)
        return span

    def mark(
        self, track: str, category: str, name: str, time: float, **meta: Any
    ) -> None:
        """Record an instant."""
        self.instants.append(Instant(track, category, name, time, dict(meta)))

    # -- queries ---------------------------------------------------------

    def filter(
        self,
        category: Optional[str] = None,
        track: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[Span], bool]] = None,
    ) -> List[Span]:
        """Spans matching all given criteria, in recording order."""
        out = []
        for s in self.spans:
            if category is not None and s.category != category:
                continue
            if track is not None and s.track != track:
                continue
            if name is not None and s.name != name:
                continue
            if predicate is not None and not predicate(s):
                continue
            out.append(s)
        return out

    def tracks(self) -> List[str]:
        """Distinct track names in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track, None)
        for i in self.instants:
            seen.setdefault(i.track, None)
        return list(seen)

    def extent(self) -> Tuple[float, float]:
        """(min start, max end) over all spans; (0, 0) when empty."""
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(s.start for s in self.spans),
            max(s.end for s in self.spans),
        )

    def max_concurrency(self, category: str) -> int:
        """Peak number of simultaneously open spans of ``category``."""
        return max_overlap(
            (s.start, s.end) for s in self.spans if s.category == category
        )
