"""Canonical traffic scenarios, load-normalized to measured capacity.

A :class:`Scenario` is a *shape*: tenant classes whose arrival rates are
relative weights, plus a target ``load`` expressed as a multiple of the
serving capacity of a reference dispatcher (``cap`` concurrent jobs over
the workload's mean serial baseline).  :meth:`Scenario.build` measures
the baselines for the active scale, converts weights to absolute
rates so the offered load lands on ``load`` x capacity, and returns a
:class:`BuiltScenario` that can mint streams and a content fingerprint.

Normalizing to measured capacity (instead of hard-coding rates) keeps
every scenario meaningful at every ``REPRO_SCALE`` profile: "overload"
is 3x capacity whether a request costs 50 us at tiny scale or 5 ms at
paper scale.

The four canonical scenarios (:data:`SCENARIOS`) mirror the serving
literature's standard quadrant: steady Poisson, heavy-tailed bursts,
diurnal swing, and sustained overload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from ..gpu.specs import DeviceSpec
from ..integrity.record import fingerprint
from .arrivals import ArrivalSpec
from .tenants import TenantClass, TenantModel
from .trace import TRACE_VERSION

__all__ = [
    "Scenario",
    "BuiltScenario",
    "SCENARIOS",
    "get_scenario",
]

#: Reference concurrency for capacity normalization (the serving layer's
#: canonical cap-4 dispatcher).
DEFAULT_CAP = 4


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape, independent of scale and absolute rates.

    Attributes
    ----------
    name, description:
        Identity and one-line story.
    load:
        Offered load as a multiple of reference capacity (``cap``
        concurrent jobs / mean serial baseline of the aggregate mix).
        ``0.6`` is comfortable, ``1.0`` saturation, ``3.0`` overload.
    classes:
        Tenant classes whose ``arrival.rate`` fields are *relative
        weights*, not absolute rates — :meth:`build` rescales them so
        the weighted total hits ``load`` x capacity.
    cycles:
        For diurnal classes: how many full periods the run spans (the
        template's ``period`` field is overwritten at build time, since
        the run's duration is only known once rates are).
    seed:
        Tenant-model seed (every stream draw derives from it).
    cap:
        Reference concurrency for the capacity normalization.
    """

    name: str
    description: str
    load: float
    classes: Tuple[TenantClass, ...]
    cycles: float = 4.0
    seed: int = 0
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        # Validate names/mixes early via the model's own checks.
        TenantModel(classes=self.classes, seed=self.seed)

    def type_names(self) -> Tuple[str, ...]:
        return TenantModel(classes=self.classes, seed=self.seed).type_names

    def build(
        self,
        requests: int,
        scale: Optional[str] = None,
        spec: Optional[DeviceSpec] = None,
        baselines: Optional[Mapping[str, float]] = None,
    ) -> "BuiltScenario":
        """Resolve weights to absolute rates for the active scale.

        ``requests`` bounds the stream (the arrival ``limit``); the
        expected run duration ``requests / offered_rate`` also sets the
        period of any diurnal class to span :attr:`cycles` full cycles.
        ``baselines`` (type -> serial-baseline seconds) defaults to
        :func:`~repro.serving.measure_service_baselines` on the active
        scale.
        """
        from ..serving import measure_service_baselines

        if requests < 1:
            raise ValueError("requests must be >= 1")
        names = self.type_names()
        if baselines is None:
            baselines = measure_service_baselines(names, scale=scale, spec=spec)
        baselines = {n: float(baselines[n]) for n in names}

        # Aggregate mean service time under the offered mix, weighting
        # each class's app mix by its arrival weight.
        total_weight = sum(c.arrival.rate for c in self.classes)
        mean_service = sum(
            (c.arrival.rate / total_weight) * w * baselines[t]
            for c in self.classes
            for t, w in c.app_mix
        )
        service_rate = self.cap / mean_service
        offered_rate = self.load * service_rate
        duration = requests / offered_rate

        resolved = []
        for c in self.classes:
            arrival = c.arrival.scaled(offered_rate * c.arrival.rate / total_weight)
            if arrival.kind == "diurnal":
                arrival = replace(arrival, period=duration / self.cycles)
            resolved.append(replace(c, arrival=arrival))
        model = TenantModel(classes=tuple(resolved), seed=self.seed)
        return BuiltScenario(
            scenario=self,
            model=model,
            baselines=baselines,
            requests=int(requests),
            service_rate=service_rate,
            offered_rate=offered_rate,
        )


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario with rates, baselines and bounds resolved for one scale."""

    scenario: Scenario
    model: TenantModel
    baselines: Dict[str, float]
    requests: int
    service_rate: float
    offered_rate: float

    @property
    def name(self) -> str:
        return self.scenario.name

    def stream(self, chunk: Optional[int] = None):
        """A fresh arrival stream for this build (deterministic)."""
        kwargs = {} if chunk is None else {"chunk": chunk}
        return self.model.stream(self.baselines, limit=self.requests, **kwargs)

    def fingerprint(self, extra: Optional[Mapping] = None) -> str:
        """Content hash of everything that determines the arrival trace.

        ``extra`` folds in downstream knobs (serving config, policy)
        so one scenario can fingerprint many distinct runs.
        """
        payload = {
            "format-version": TRACE_VERSION,
            "scenario": self.scenario.name,
            "load": self.scenario.load,
            "cap": self.scenario.cap,
            "model": self.model.payload(),
            "baselines": sorted(self.baselines.items()),
            "requests": self.requests,
        }
        if extra:
            payload["extra"] = dict(extra)
        return fingerprint(payload)


def _interactive(weight: float, spec: ArrivalSpec, **kwargs) -> TenantClass:
    """The latency-sensitive class every scenario carries."""
    defaults = dict(
        slo_factor=4.0,
        priority=2,
        tenants=100_000,
        popularity="zipf",
        zipf_s=1.3,
    )
    defaults.update(kwargs)
    return TenantClass(
        name="interactive",
        arrival=replace(spec, rate=weight),
        app_mix=(("nn", 0.6), ("gaussian", 0.4)),
        **defaults,
    )


def _batch(weight: float, spec: ArrivalSpec, **kwargs) -> TenantClass:
    """The throughput-oriented class: relaxed SLO, heavier kernels."""
    defaults = dict(slo_factor=12.0, priority=0, tenants=500)
    defaults.update(kwargs)
    return TenantClass(
        name="batch",
        arrival=replace(spec, rate=weight),
        app_mix=(("needle", 0.5), ("srad", 0.5)),
        **defaults,
    )


#: The canonical scenario set the leaderboard sweeps (sorted by name).
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="steady",
            description="Poisson interactive + batch at 0.6x capacity",
            load=0.6,
            classes=(
                _interactive(2.0, ArrivalSpec("poisson")),
                _batch(1.0, ArrivalSpec("poisson")),
            ),
            seed=101,
        ),
        Scenario(
            name="burst",
            description=(
                "heavy-tailed arrivals at 0.8x capacity: Pareto "
                "interactive bursts over log-normal batch"
            ),
            load=0.8,
            classes=(
                _interactive(2.0, ArrivalSpec("pareto", alpha=1.3)),
                _batch(1.0, ArrivalSpec("lognormal", sigma=1.5)),
            ),
            seed=202,
        ),
        Scenario(
            name="diurnal",
            description=(
                "sinusoidal daily swing (amplitude 0.8) at 0.7x mean "
                "capacity, interactive-dominated peaks"
            ),
            load=0.7,
            classes=(
                _interactive(
                    2.0, ArrivalSpec("diurnal", amplitude=0.8)
                ),
                _batch(
                    1.0,
                    ArrivalSpec("diurnal", amplitude=0.8, phase=3.14159),
                ),
            ),
            cycles=4.0,
            seed=303,
        ),
        Scenario(
            name="overload",
            description="sustained 3x-capacity overload, mixed priorities",
            load=3.0,
            classes=(
                _interactive(3.0, ArrivalSpec("poisson")),
                _batch(1.0, ArrivalSpec("poisson")),
            ),
            seed=404,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a canonical scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
