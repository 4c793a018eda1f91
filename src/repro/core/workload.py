"""Workload construction: homogeneous and heterogeneous application sets.

The paper's methodology (Section IV): a *homogeneous* workload runs many
copies of one application (same kernels, data size, launch geometry); a
*heterogeneous* workload mixes two (or more) types, evenly split.  The test
harness sweeps the number of applications NA against the number of streams
NS from fully serialized (NS = 1) to fully parallelized (NS = NA <= 32).

A :class:`Workload` is declarative — a list of (type name, profile kwargs)
in Naive-FIFO order — and is *instantiated* into concrete
:class:`~repro.framework.kernel.KernelApp` objects per schedule, so one
workload can be rerun under every launch order of Figure 3.

Scale profiles: experiments default to the paper's Table III sizes
(``"paper"``); reduced ``"small"``/``"tiny"`` profiles exist for fast test
runs and are selectable globally via the ``REPRO_SCALE`` environment
variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.registry import get_app_class
from ..framework.kernel import KernelApp
from ..scheduling.orders import SchedulingOrder, make_schedule

__all__ = ["SCALES", "resolve_scale", "Workload"]

#: Named problem-size profiles per application type.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "paper": {
        "gaussian": {"n": 512},
        "nn": {"records": 42764},
        "needle": {"n": 512},
        "srad": {"n": 512, "iterations": 10},
    },
    "small": {
        "gaussian": {"n": 128},
        "nn": {"records": 10240},
        "needle": {"n": 256},
        "srad": {"n": 256, "iterations": 5},
    },
    "tiny": {
        "gaussian": {"n": 48},
        "nn": {"records": 2048},
        "needle": {"n": 64},
        "srad": {"n": 64, "iterations": 3},
    },
}


def resolve_scale(scale: Optional[str] = None) -> str:
    """Pick a scale: explicit argument > ``REPRO_SCALE`` env > ``"paper"``."""
    name = scale or os.environ.get("REPRO_SCALE", "paper")
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}")
    return name


@dataclass(frozen=True)
class Workload:
    """A set of application instances in Naive-FIFO order.

    Attributes
    ----------
    entries:
        ``(type_name, profile_kwargs)`` per instance, grouped by type —
        i.e. already in the paper's Naive FIFO order.
    """

    entries: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def homogeneous(
        name: str, count: int, scale: Optional[str] = None, **overrides
    ) -> "Workload":
        """``count`` copies of application ``name``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        kwargs = dict(SCALES[resolve_scale(scale)].get(name, {}))
        kwargs.update(overrides)
        entry = (name, tuple(sorted(kwargs.items())))
        return Workload(entries=tuple([entry] * count))

    @staticmethod
    def heterogeneous_pair(
        type_x: str,
        type_y: str,
        total: int,
        scale: Optional[str] = None,
    ) -> "Workload":
        """Evenly split pair workload (the paper's Figure 4/7/8 setup).

        ``total`` must be even; the first half is type X, the second half
        type Y (Naive FIFO order).
        """
        if total < 2 or total % 2 != 0:
            raise ValueError("total must be an even number >= 2")
        if type_x == type_y:
            raise ValueError("a heterogeneous pair needs two distinct types")
        scale_name = resolve_scale(scale)
        kx = tuple(sorted(SCALES[scale_name].get(type_x, {}).items()))
        ky = tuple(sorted(SCALES[scale_name].get(type_y, {}).items()))
        half = total // 2
        return Workload(
            entries=tuple([(type_x, kx)] * half + [(type_y, ky)] * half)
        )

    @staticmethod
    def mixed(
        spec: Sequence[Tuple[str, int]], scale: Optional[str] = None
    ) -> "Workload":
        """Arbitrary mixture: ``[("gaussian", 4), ("nn", 8), ...]``.

        Supports the "higher degree of task heterogeneity" the paper notes
        its framework can already drive.
        """
        scale_name = resolve_scale(scale)
        entries: List[Tuple[str, Tuple]] = []
        for name, count in spec:
            if count < 1:
                raise ValueError(f"count for {name!r} must be >= 1")
            kwargs = tuple(sorted(SCALES[scale_name].get(name, {}).items()))
            entries.extend([(name, kwargs)] * count)
        if not entries:
            raise ValueError("empty workload spec")
        return Workload(entries=tuple(entries))

    # -- properties ---------------------------------------------------------

    @property
    def size(self) -> int:
        """NA — number of application instances."""
        return len(self.entries)

    @property
    def types(self) -> List[str]:
        """Type name per instance, Naive-FIFO order."""
        return [name for name, _ in self.entries]

    @property
    def type_counts(self) -> Dict[str, int]:
        """Instances per type."""
        counts: Dict[str, int] = {}
        for name, _ in self.entries:
            counts[name] = counts.get(name, 0) + 1
        return counts

    # -- instantiation ---------------------------------------------------------

    def schedule(
        self,
        order: SchedulingOrder = SchedulingOrder.NAIVE_FIFO,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        """Launch order (instance indices) under the given policy."""
        return make_schedule(self.types, order, rng=rng)

    def instantiate(
        self, schedule: Optional[Sequence[int]] = None
    ) -> List[KernelApp]:
        """Build concrete app objects in launch order.

        Instance numbers are per type in FIFO order (so ``gaussian#0`` is
        the same logical instance under every launch order).
        """
        schedule = list(schedule) if schedule is not None else list(range(self.size))
        if sorted(schedule) != list(range(self.size)):
            raise ValueError("schedule must be a permutation of the workload")
        instance_no: Dict[int, int] = {}
        counters: Dict[str, int] = {}
        for idx, (name, _) in enumerate(self.entries):
            counters[name] = counters.get(name, 0)
            instance_no[idx] = counters[name]
            counters[name] += 1
        apps: List[KernelApp] = []
        for idx in schedule:
            name, kwargs = self.entries[idx]
            apps.append(
                get_app_class(name).create(
                    instance=instance_no[idx], **dict(kwargs)
                )
            )
        return apps

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``16x gaussian + 16x needle``."""
        return " + ".join(
            f"{count}x {name}" for name, count in sorted(self.type_counts.items())
        )
