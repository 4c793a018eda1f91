"""Aggregation helpers shared by the experiment reports.

Small, dependency-light statistics used when summarizing sweeps: a
sample summary and a confidence-interval helper for the jittered
(nondeterministic-host) experiments.  Timeline views live beside the
timeline itself (:mod:`repro.analysis.timeline`,
:mod:`repro.analysis.profile_summary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["Summary", "summarize", "mean_confidence_interval"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f}"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Summary statistics of ``values`` (ddof=1 std when n > 1)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def mean_confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> Tuple[float, float, float]:
    """(mean, lo, hi) normal-approximation CI; degenerate for n < 2."""
    s = summarize(values)
    if s.count < 2:
        return (s.mean, s.mean, s.mean)
    half = z * s.std / math.sqrt(s.count)
    return (s.mean, s.mean - half, s.mean + half)
