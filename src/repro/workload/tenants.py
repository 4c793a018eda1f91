"""Tenant classes and the merged multi-tenant traffic stream.

A :class:`TenantClass` declares one *class* of tenants: its aggregate
arrival process (:class:`~repro.workload.arrivals.ArrivalSpec`), a
weighted application mix over the paper's Table III geometry set, an SLO
factor (deadline = arrival + ``slo_factor`` x the type's measured
serial baseline), a priority, and a sub-tenant population.  "Millions of
apps" scale comes from the population being *sampled, not enumerated*:
each arrival draws its sub-tenant id from a seeded positional stream
(uniform or Zipf-like power-law popularity), so a class with 10^7
tenants costs exactly as much as one with 10.

:class:`TrafficStream` lazily merges the per-class streams by arrival
time into one globally-indexed :class:`~repro.serving.Arrival`
iterator.  Every random draw is chunk-seeded and positional, which gives
the two load-bearing properties:

* **per-class independence** — a class's (time, type, tenant) sub-stream
  is a pure function of ``(seed, class name)``; adding or removing other
  classes never perturbs it;
* **O(1) crash-resume** — :meth:`TrafficStream.state` captures the
  whole stream in a small JSON-able cursor and
  :meth:`TrafficStream.restore` resumes without replaying or skipping an
  arrival.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..serving import Arrival
from .arrivals import DEFAULT_CHUNK, ArrivalSpec

__all__ = [
    "TenantClass",
    "TenantModel",
    "TrafficStream",
]

_POPULARITIES = ("uniform", "zipf")


def _salt(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class _UniformStream:
    """Chunk-seeded positional stream of uniforms in [0, 1).

    Draw ``i`` is a pure function of ``(seed, labels, i)``: draws come in
    chunks keyed by ``i // chunk``, so the cursor is just the count of
    draws consumed and restore is O(1).
    """

    def __init__(self, seed: int, *labels: str, chunk: int = DEFAULT_CHUNK):
        self._key = [int(seed)] + [_salt(label) for label in labels]
        self._chunk = int(chunk)
        self._count = 0
        self._cache_no = -1
        self._cache: Optional[np.ndarray] = None

    def _load(self, chunk_no: int) -> None:
        rng = np.random.default_rng(self._key + [chunk_no])
        self._cache = rng.random(self._chunk)
        self._cache_no = chunk_no

    def draw(self) -> float:
        chunk_no, offset = divmod(self._count, self._chunk)
        if chunk_no != self._cache_no:
            self._load(chunk_no)
        self._count += 1
        return float(self._cache[offset])

    def state(self) -> int:
        return self._count

    def restore(self, count: int) -> None:
        self._count = int(count)
        self._cache_no = -1


@dataclass(frozen=True)
class TenantClass:
    """One class of tenants sharing traffic shape, app mix, SLO and priority.

    Attributes
    ----------
    name:
        Unique class name (seeds every per-class stream).
    arrival:
        Aggregate arrival process of the whole class.
    app_mix:
        ``((type_name, weight), ...)`` over registered app types; weights
        are normalized.
    slo_factor:
        Deadline window as a multiple of the type's measured serial
        baseline; ``0`` disables deadlines for the class.
    priority:
        Informational priority (higher = more important).
    tenants:
        Sub-tenant population size (sampled per arrival, never
        enumerated — millions are fine).
    popularity:
        ``"uniform"`` or ``"zipf"`` (bounded power law over tenant
        ranks, exponent ``zipf_s``): who within the class sends each
        request.
    zipf_s:
        Power-law exponent for ``"zipf"`` popularity (> 1).
    """

    name: str
    arrival: ArrivalSpec
    app_mix: Tuple[Tuple[str, float], ...]
    slo_factor: float = 4.0
    priority: int = 0
    tenants: int = 1
    popularity: str = "uniform"
    zipf_s: float = 1.2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant class needs a name")
        mix = tuple((str(n), float(w)) for n, w in self.app_mix)
        if not mix or any(w <= 0 for _, w in mix):
            raise ValueError("app_mix needs positive weights")
        object.__setattr__(self, "app_mix", mix)
        if self.slo_factor < 0:
            raise ValueError("slo_factor must be >= 0")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.popularity not in _POPULARITIES:
            raise ValueError(
                f"unknown popularity {self.popularity!r}; "
                f"choose from {_POPULARITIES}"
            )
        if self.popularity == "zipf" and self.zipf_s <= 1.0:
            raise ValueError("zipf_s must be > 1")

    @property
    def type_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.app_mix)

    def payload(self) -> Dict:
        """JSON-able form for scenario fingerprints."""
        return {
            "name": self.name,
            "arrival": self.arrival.payload(),
            "app_mix": [list(pair) for pair in self.app_mix],
            "slo_factor": self.slo_factor,
            "priority": self.priority,
            "tenants": self.tenants,
            "popularity": self.popularity,
            "zipf_s": self.zipf_s,
        }


@dataclass(frozen=True)
class TenantModel:
    """A set of tenant classes plus the seed that drives all their draws."""

    classes: Tuple[TenantClass, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("tenant model needs at least one class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant class names in {names}")
        object.__setattr__(self, "classes", classes)

    @property
    def type_names(self) -> Tuple[str, ...]:
        """Every app type any class can emit (sorted, deduplicated)."""
        names = set()
        for cls in self.classes:
            names.update(cls.type_names)
        return tuple(sorted(names))

    def payload(self) -> Dict:
        return {
            "seed": self.seed,
            "classes": [c.payload() for c in self.classes],
        }

    def stream(
        self,
        baselines: Mapping[str, float],
        duration: Optional[float] = None,
        limit: Optional[int] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> "TrafficStream":
        """The merged arrival stream (see :class:`TrafficStream`)."""
        return TrafficStream(
            self, baselines, duration=duration, limit=limit, chunk=chunk
        )


class _ClassState:
    """Per-class generation state inside a :class:`TrafficStream`."""

    __slots__ = ("cls", "process", "types", "users", "cum_weights", "pending")

    def __init__(self, cls: TenantClass, seed: int, chunk: int):
        self.cls = cls
        self.process = cls.arrival.build(seed, name=cls.name, chunk=chunk)
        self.types = _UniformStream(seed, "type", cls.name, chunk=chunk)
        self.users = _UniformStream(seed, "tenant", cls.name, chunk=chunk)
        weights = np.array([w for _, w in cls.app_mix], dtype=float)
        self.cum_weights = np.cumsum(weights / weights.sum())
        self.pending: Optional[float] = None  # next undelivered arrival time


def _draw_tenant_id(cls: TenantClass, u: float) -> int:
    """Sub-tenant id from one uniform draw (uniform or power-law ranks)."""
    n = cls.tenants
    if n == 1:
        return 0
    if cls.popularity == "uniform":
        return min(int(u * n), n - 1)
    # Bounded power law over ranks 1..n (Zipf-like): inverse CDF of the
    # continuous bounded Pareto on [1, n+1).
    s = cls.zipf_s
    top = float(n + 1) ** (1.0 - s)
    x = (u * (top - 1.0) + 1.0) ** (1.0 / (1.0 - s))
    return min(int(x), n) - 1


class TrafficStream:
    """Lazily merged multi-tenant arrival stream with O(1) cursors.

    Iterates :class:`~repro.serving.Arrival` objects ordered by
    time (ties broken by class declaration order), globally indexed from
    0.  Bounded by ``duration`` (simulated seconds), ``limit``
    (arrival count) or both; at least one bound is required.
    """

    def __init__(
        self,
        model: TenantModel,
        baselines: Mapping[str, float],
        duration: Optional[float] = None,
        limit: Optional[int] = None,
        chunk: int = DEFAULT_CHUNK,
    ):
        if duration is None and limit is None:
            raise ValueError("need a duration and/or an arrival limit")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        missing = [
            t for t in model.type_names
            if t not in baselines
            and any(c.slo_factor > 0 and t in c.type_names for c in model.classes)
        ]
        if missing:
            raise ValueError(f"missing baselines for SLO deadlines: {missing}")
        self.model = model
        self.baselines = dict(baselines)
        self.duration = duration
        self.limit = limit
        self._classes = [
            _ClassState(cls, model.seed, chunk) for cls in model.classes
        ]
        self._heap: List[Tuple[float, int]] = []
        self._index = 0
        for i, cs in enumerate(self._classes):
            self._advance(i, cs)

    def _advance(self, i: int, cs: _ClassState) -> None:
        """Draw the class's next arrival time and queue it (if in bounds)."""
        t = next(cs.process)
        if self.duration is not None and t >= self.duration:
            cs.pending = None
            return
        cs.pending = t
        heapq.heappush(self._heap, (t, i))

    def __iter__(self) -> Iterator[Arrival]:
        return self

    def __next__(self) -> Arrival:
        if self.limit is not None and self._index >= self.limit:
            raise StopIteration
        if not self._heap:
            raise StopIteration
        t, i = heapq.heappop(self._heap)
        cs = self._classes[i]
        cls = cs.cls
        names = cls.type_names
        if len(names) == 1:
            type_name = names[0]
        else:
            slot = int(np.searchsorted(cs.cum_weights, cs.types.draw(), "right"))
            type_name = names[min(slot, len(names) - 1)]
        tenant_id = _draw_tenant_id(cls, cs.users.draw())
        deadline = 0.0
        if cls.slo_factor > 0:
            deadline = t + cls.slo_factor * self.baselines[type_name]
        arrival = Arrival(
            index=self._index,
            time=t,
            type_name=type_name,
            tenant=cls.name,
            tenant_id=tenant_id,
            deadline=deadline,
            priority=cls.priority,
        )
        self._index += 1
        self._advance(i, cs)
        return arrival

    # -- cursors -----------------------------------------------------------

    def state(self) -> Dict:
        """JSON-able cursor capturing the whole merged stream."""
        return {
            "index": self._index,
            "classes": [
                {
                    "process": cs.process.state(),
                    "types": cs.types.state(),
                    "users": cs.users.state(),
                    "pending": cs.pending,
                }
                for cs in self._classes
            ],
        }

    def restore(self, state: Dict) -> None:
        """Resume from a cursor taken on an identically-configured stream."""
        snapshots = state["classes"]
        if len(snapshots) != len(self._classes):
            raise ValueError(
                f"cursor covers {len(snapshots)} classes, stream has "
                f"{len(self._classes)}"
            )
        self._index = int(state["index"])
        self._heap = []
        for i, (cs, snap) in enumerate(zip(self._classes, snapshots)):
            cs.process.restore(snap["process"])
            cs.types.restore(snap["types"])
            cs.users.restore(snap["users"])
            cs.pending = snap["pending"]
            if cs.pending is not None:
                heapq.heappush(self._heap, (float(cs.pending), i))
