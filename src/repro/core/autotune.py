"""Launch-order search (the paper's future work, realized).

Section III-C conjectures that "we could converge on an optimal ordering
without exhaustively searching all possible orderings".
:class:`OrderSearch` does that: derivative-free search over launch
orders, seeded from the five Figure 3 policies, then random restarts and
greedy pairwise-swap hill climbing, each candidate evaluated by an actual
harness run.  Deterministic given its seed.  It optimizes a pluggable
objective (:data:`OBJECTIVES`): makespan, energy, or energy-delay product.

The conclusion's "learning algorithms capable of proposing dynamic
reordering of the task queue" for recurring workload mixes live in
:mod:`repro.scheduling.policies` (the epsilon-greedy bandit policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..framework.harness import HarnessConfig, TestHarness
from ..scheduling.orders import all_orders, make_schedule
from .runner import RunConfig, RunResult
from .workload import Workload

__all__ = [
    "OBJECTIVES",
    "evaluate_schedule",
    "SearchResult",
    "OrderSearch",
]

#: Objective name -> extractor (smaller is better).
OBJECTIVES: Dict[str, Callable[[RunResult], float]] = {
    "makespan": lambda run: run.makespan,
    "energy": lambda run: run.energy,
    # Energy-delay product: the classic balanced power/performance metric.
    "edp": lambda run: run.energy * run.makespan,
}


def evaluate_schedule(
    workload: Workload,
    schedule: Sequence[int],
    num_streams: int,
    memory_sync: bool = True,
    objective: str = "makespan",
    spec=None,
) -> Tuple[float, RunResult]:
    """Run one explicit schedule and return (objective value, run).

    This bypasses the named policies: ``schedule`` is an arbitrary
    permutation of the workload, which is what the search mutates.
    """
    if objective not in OBJECTIVES:
        raise KeyError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        )
    apps = workload.instantiate(schedule)
    harness = TestHarness(
        HarnessConfig(
            apps=apps,
            num_streams=num_streams,
            memory_sync=memory_sync,
            spec=spec,
        )
    )
    result = harness.run()
    run = RunResult(
        config=RunConfig(
            workload=workload,
            num_streams=num_streams,
            memory_sync=memory_sync,
            spec=spec,
        ),
        harness=result,
    )
    return OBJECTIVES[objective](run), run


@dataclass
class SearchResult:
    """Outcome of an :class:`OrderSearch`."""

    best_schedule: List[int]
    best_value: float
    best_run: RunResult
    evaluations: int
    history: List[Tuple[str, float]] = field(default_factory=list)
    seed_values: Dict[str, float] = field(default_factory=dict)

    @property
    def improvement_over_worst_seed_pct(self) -> float:
        """How much the search beat the worst named policy (%)."""
        worst = max(self.seed_values.values())
        return (worst - self.best_value) / worst * 100.0

    @property
    def improvement_over_best_seed_pct(self) -> float:
        """How much the search beat the best named policy (%)."""
        best_seed = min(self.seed_values.values())
        return (best_seed - self.best_value) / best_seed * 100.0


class OrderSearch:
    """Hill-climbing launch-order optimizer with policy seeding.

    Parameters
    ----------
    workload, num_streams, memory_sync, objective, spec:
        The fixed experimental cell; only the launch order varies.
    seed:
        RNG seed for shuffles and swap proposals.
    """

    def __init__(
        self,
        workload: Workload,
        num_streams: int,
        memory_sync: bool = True,
        objective: str = "makespan",
        seed: int = 0,
        spec=None,
    ) -> None:
        if objective not in OBJECTIVES:
            raise KeyError(
                f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
            )
        self.workload = workload
        self.num_streams = num_streams
        self.memory_sync = memory_sync
        self.objective = objective
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self._cache: Dict[Tuple[int, ...], Tuple[float, RunResult]] = {}
        self.evaluations = 0

    def _evaluate(self, schedule: Sequence[int]) -> Tuple[float, RunResult]:
        key = tuple(schedule)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value, run = evaluate_schedule(
            self.workload,
            schedule,
            self.num_streams,
            memory_sync=self.memory_sync,
            objective=self.objective,
            spec=self.spec,
        )
        self._cache[key] = (value, run)
        self.evaluations += 1
        return value, run

    def search(
        self, restarts: int = 2, swaps_per_climb: int = 20
    ) -> SearchResult:
        """Seed with the five policies, then climb by pairwise swaps.

        ``restarts`` extra random starting points are climbed as well; the
        globally best schedule wins.  Total harness runs are bounded by
        ``5 + restarts + (2 + restarts) * swaps_per_climb`` (minus cache
        hits) — a tiny fraction of the ``NA!`` order space.
        """
        history: List[Tuple[str, float]] = []
        seeds: List[Tuple[str, List[int]]] = []
        for order in all_orders():
            seeds.append(
                (str(order), make_schedule(self.workload.types, order, rng=self.rng))
            )
        for i in range(restarts):
            shuffled = list(range(self.workload.size))
            self.rng.shuffle(shuffled)
            seeds.append((f"restart-{i}", shuffled))

        seed_values: Dict[str, float] = {}
        best_schedule: Optional[List[int]] = None
        best_value = float("inf")
        best_run: Optional[RunResult] = None

        for name, schedule in seeds:
            value, run = self._evaluate(schedule)
            seed_values[name] = value
            history.append((name, value))
            if value < best_value:
                best_schedule, best_value, best_run = list(schedule), value, run

        # Greedy hill climb from the two best seeds and every restart.
        ranked = sorted(seeds, key=lambda s: seed_values[s[0]])
        climb_from = ranked[:2] + [s for s in seeds if s[0].startswith("restart")]
        for name, schedule in climb_from:
            current = list(schedule)
            current_value, current_run = self._evaluate(current)
            for _ in range(swaps_per_climb):
                i, j = self.rng.choice(self.workload.size, size=2, replace=False)
                candidate = current.copy()
                candidate[i], candidate[j] = candidate[j], candidate[i]
                value, run = self._evaluate(candidate)
                history.append((f"{name}+swap", value))
                if value < current_value:
                    current, current_value, current_run = candidate, value, run
            if current_value < best_value:
                best_schedule, best_value, best_run = current, current_value, current_run

        assert best_schedule is not None and best_run is not None
        return SearchResult(
            best_schedule=best_schedule,
            best_value=best_value,
            best_run=best_run,
            evaluations=self.evaluations,
            history=history,
            seed_values=seed_values,
        )

    def exhaustive(self, max_sequences: int = 1000) -> SearchResult:
        """Evaluate *every* distinct type sequence (small workloads only).

        Two schedules that launch the same type sequence are equivalent in
        this model (instances of a type are interchangeable), so the search
        space is the multiset permutations of the type list — e.g. 70 for
        m = n = 4 — not ``NA!``.  Raises if that count exceeds
        ``max_sequences``; use :meth:`search` for larger workloads.
        """
        from itertools import permutations
        from math import factorial

        types = self.workload.types
        counts: Dict[str, int] = {}
        for t in types:
            counts[t] = counts.get(t, 0) + 1
        total = factorial(len(types))
        for c in counts.values():
            total //= factorial(c)
        if total > max_sequences:
            raise ValueError(
                f"{total} distinct type sequences exceed max_sequences="
                f"{max_sequences}; use search() instead"
            )

        # Instance indices per type, consumed in FIFO order per sequence.
        by_type: Dict[str, List[int]] = {}
        for idx, t in enumerate(types):
            by_type.setdefault(t, []).append(idx)

        seen = set()
        history: List[Tuple[str, float]] = []
        best_schedule: Optional[List[int]] = None
        best_value = float("inf")
        best_run: Optional[RunResult] = None
        for sequence in permutations(types):
            if sequence in seen:
                continue
            seen.add(sequence)
            cursors = {t: iter(by_type[t]) for t in by_type}
            schedule = [next(cursors[t]) for t in sequence]
            value, run = self._evaluate(schedule)
            history.append(("".join(s[0] for s in sequence), value))
            if value < best_value:
                best_schedule, best_value, best_run = schedule, value, run

        assert best_schedule is not None and best_run is not None
        values = [v for _, v in history]
        return SearchResult(
            best_schedule=best_schedule,
            best_value=best_value,
            best_run=best_run,
            evaluations=self.evaluations,
            history=history,
            seed_values={"exhaustive-worst": max(values),
                         "exhaustive-best": min(values)},
        )
