"""Application launch-order policies (paper Section III-C, Figure 3).

Given a workload of ``m`` copies of application type X and ``n`` copies of
type Y, the paper compares five launch orders:

* **Naive FIFO** — all X instances, then all Y instances.
* **Round-Robin** — alternate types: X1, Y1, X2, Y2, ...
* **Random Shuffle** — a random permutation of the FIFO order.
* **Reverse FIFO** — FIFO with the *pair order* reversed: all Y, then all X.
* **Reverse Round-Robin** — Round-Robin starting with Y: Y1, X1, Y2, X2, ...

The order matters for two reasons the paper gives: it is the order in which
the framework allocates CUDA streams to applications (so, with NA > NS,
which applications serialize behind each other), and — because child threads
are launched in schedule order — it prejudices the order in which work
reaches the DMA engines and the grid scheduler.

Orders generalize beyond two types: the type sequence of the schedule is
permuted per policy while instances of each type keep their relative order
(verified by tests against the paper's Figure 3 example with m = n = 4).

This module is the home of the static orders; :mod:`repro.framework`
re-exports them.  The adaptive policies that *choose* among these orders
online live in :mod:`repro.scheduling.policies`.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SchedulingOrder",
    "make_schedule",
    "schedule_signature",
    "all_orders",
    "FIGURE_3",
    "ordering_rows",
]


class SchedulingOrder(Enum):
    """The five launch-order policies of Figure 3."""

    NAIVE_FIFO = "naive-fifo"
    ROUND_ROBIN = "round-robin"
    RANDOM_SHUFFLE = "random-shuffle"
    REVERSE_FIFO = "reverse-fifo"
    REVERSE_ROUND_ROBIN = "reverse-round-robin"

    def __str__(self) -> str:
        return self.value


def all_orders() -> Tuple[SchedulingOrder, ...]:
    """All five policies, in the paper's presentation order."""
    return (
        SchedulingOrder.NAIVE_FIFO,
        SchedulingOrder.ROUND_ROBIN,
        SchedulingOrder.RANDOM_SHUFFLE,
        SchedulingOrder.REVERSE_FIFO,
        SchedulingOrder.REVERSE_ROUND_ROBIN,
    )


#: The paper's Figure 3 reference schedules for m = n = 4 (the four
#: deterministic panels; the shuffle panel is seed-dependent).  Shared by
#: the Figure 3 benchmark and the scheduling tests so the expected layout
#: lives in exactly one place.
FIGURE_3: Dict[str, List[str]] = {
    "naive-fifo": [
        "AX(1)", "AX(2)", "AX(3)", "AX(4)", "AY(1)", "AY(2)", "AY(3)", "AY(4)",
    ],
    "round-robin": [
        "AX(1)", "AY(1)", "AX(2)", "AY(2)", "AX(3)", "AY(3)", "AX(4)", "AY(4)",
    ],
    "reverse-fifo": [
        "AY(1)", "AY(2)", "AY(3)", "AY(4)", "AX(1)", "AX(2)", "AX(3)", "AX(4)",
    ],
    "reverse-round-robin": [
        "AY(1)", "AX(1)", "AY(2)", "AX(2)", "AY(3)", "AX(3)", "AY(4)", "AX(4)",
    ],
}


def _by_type(items: Sequence[str]) -> "OrderedDict[str, List[int]]":
    """Group instance indices by type, preserving first-seen type order."""
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for idx, typ in enumerate(items):
        groups.setdefault(typ, []).append(idx)
    return groups


def _interleave(groups: "OrderedDict[str, List[int]]") -> List[int]:
    """Round-robin across type groups: one instance of each per turn."""
    queues = [list(v) for v in groups.values()]
    out: List[int] = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def make_schedule(
    types: Sequence[str],
    order: SchedulingOrder,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Permute a workload according to ``order``.

    Parameters
    ----------
    types:
        The type name of each application instance, in Naive-FIFO order
        (i.e. grouped by type: ``["X"]*m + ["Y"]*n`` for the paper's setup).
    order:
        Which policy to apply.
    rng:
        Required for :attr:`SchedulingOrder.RANDOM_SHUFFLE`; seeded by the
        caller so runs are reproducible.

    Returns
    -------
    A permutation of ``range(len(types))``: position k of the result is the
    index (into ``types``) of the k-th application to launch.
    """
    n = len(types)
    fifo = list(range(n))
    groups = _by_type(types)

    if order is SchedulingOrder.NAIVE_FIFO:
        return fifo

    if order is SchedulingOrder.ROUND_ROBIN:
        return _interleave(groups)

    if order is SchedulingOrder.RANDOM_SHUFFLE:
        if rng is None:
            raise ValueError("RANDOM_SHUFFLE requires an rng")
        shuffled = fifo.copy()
        rng.shuffle(shuffled)
        return shuffled

    if order is SchedulingOrder.REVERSE_FIFO:
        # FIFO with the type-group order reversed (Figure 3d): all Y first.
        reversed_groups = OrderedDict(reversed(list(groups.items())))
        out: List[int] = []
        for indices in reversed_groups.values():
            out.extend(indices)
        return out

    if order is SchedulingOrder.REVERSE_ROUND_ROBIN:
        # Round-Robin with the type order reversed (Figure 3e): Y1, X1, ...
        reversed_groups = OrderedDict(reversed(list(groups.items())))
        return _interleave(reversed_groups)

    raise ValueError(f"unhandled order {order!r}")  # pragma: no cover


def schedule_signature(
    types: Sequence[str], schedule: Sequence[int]
) -> List[str]:
    """Render a schedule as the paper's ``AX(1) AY(1) ...`` labels.

    Instance numbers are per type, 1-based, in original FIFO order —
    matching Figure 3's notation exactly, which the unit tests compare
    against verbatim.
    """
    instance_no: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for idx, typ in enumerate(types):
        counters[typ] = counters.get(typ, 0) + 1
        instance_no[idx] = counters[typ]
    return [f"{types[i]}({instance_no[i]})" for i in schedule]


def ordering_rows(result) -> List[dict]:
    """Flatten an ``OrderingResult`` into the Figure 7/8 table rows.

    One shared implementation for the CLI ``fig7``/``fig8`` handlers and
    ``bench_fig07`` / ``bench_fig08`` (which previously each carried their
    own copy of this dict comprehension).
    """
    return [
        {
            "pair": f"{r.pair[0]}+{r.pair[1]}",
            "order": str(r.order),
            "makespan_ms": r.makespan * 1e3,
            "normalized_perf": r.normalized_performance,
        }
        for r in result.rows
    ]
