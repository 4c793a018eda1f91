"""The batch scheduler: online ordering, sync and width decisions.

:class:`BatchScheduler` sits between serving admission and the framework
harness.  Per admitted batch it consults a policy (see
:mod:`~repro.scheduling.policies`) for the launch order, predicts the DMA
contention stretch to decide whether the batch should take the Section
III-B transfer mutex, and grants a concurrency width.  Measured makespans
are fed back through :meth:`observe`, which is what lets the bandit policy
learn the best static order per workload mix.

Decisions and observations are journaled through the serving layer's
:class:`~repro.serving.journal.RunJournal`: a crashed batch-serving run
resumed against its journal replays every decision and *verifies* it
byte-identically against the recorded prefix — divergence (changed seed,
code, or policy) raises instead of silently re-deciding differently, and
:meth:`BatchScheduler.finish` refuses a resume that stopped short of the
journal's end.

Per-device policy state: a fleet shares one scheduler, but each device id
gets its own policy instance (its own bandit arms), because makespans
measured on one device's queue say nothing about another's backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..integrity.record import fingerprint
from .characterize import WorkloadCharacterizer
from .policies import (
    BatchContext,
    EpsilonGreedyBanditPolicy,
    POLICY_NAMES,
    SchedulingDecision,
    SchedulingPolicy,
    make_policy,
    mix_signature,
)

__all__ = ["SchedulerConfig", "BatchScheduler", "DEFAULT_SYNC_THRESHOLD"]

#: Predicted DMA stretch at or above which the transfer mutex is enabled.
#: Calibrated so a homogeneous compute-heavy batch (gaussian, stretch ~1.6
#: at width 8) keeps the mutex off while any mixed or transfer-leaning
#: batch (stretch ~3+) turns it on — matching the paper's Figure 8 finding
#: that sync helps precisely when transfers contend.
DEFAULT_SYNC_THRESHOLD = 2.0


@dataclass
class SchedulerConfig:
    """Everything that shapes scheduling decisions (and the journal key).

    ``policy`` is a registry name from
    :data:`~repro.scheduling.policies.POLICY_NAMES`.  ``sync_override``
    forces the mutex on/off regardless of the predictor (``None`` = let the
    predictor decide).  ``max_width`` caps the granted concurrency width.
    ``journal_path``/``resume`` enable crash-safe decision journaling.
    """

    policy: str = "bandit"
    seed: int = 0
    scale: Optional[str] = None
    spec: Optional[object] = None
    max_width: Optional[int] = None
    sync_threshold: float = DEFAULT_SYNC_THRESHOLD
    sync_override: Optional[bool] = None
    epsilon: float = 0.1
    decay: float = 0.25
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    policy_options: Dict = field(default_factory=dict)
    #: Caller-provided discriminator mixed into the fingerprint — batched
    #: serving digests its batch sequence here, so a journal can never be
    #: resumed against a different batch stream.
    salt: str = ""

    def fingerprint(self) -> str:
        """Stable digest of every decision-shaping field.

        The journal refuses to resume under a different fingerprint, so
        any change that could alter the decision stream (policy, seed,
        scale, thresholds) is caught before replay rather than surfacing
        as a confusing mid-replay mismatch.
        """
        payload = {
            "format": "repro-scheduler",
            "version": 1,
            "policy": self.policy,
            "seed": self.seed,
            "scale": self.scale,
            "max_width": self.max_width,
            "sync_threshold": self.sync_threshold,
            "sync_override": self.sync_override,
            "epsilon": self.epsilon,
            "decay": self.decay,
            "policy_options": {
                k: self.policy_options[k] for k in sorted(self.policy_options)
            },
            "salt": self.salt,
        }
        return fingerprint(payload)


class BatchScheduler:
    """Per-batch decision engine with journaling and feedback learning.

    Usage::

        sched = BatchScheduler(SchedulerConfig(policy="bandit", seed=7))
        decision = sched.schedule(["gaussian"] * 4 + ["nn"] * 4)
        ... run the batch with decision.schedule / decision.memory_sync ...
        sched.observe(decision, measured_makespan)

    End a journaled run with :meth:`finish` (it completed) or
    :meth:`crash` (it died).  The scheduler is also a context manager;
    exiting closes the journal without the end-of-run check.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        if self.config.policy not in POLICY_NAMES:
            raise KeyError(
                f"unknown policy {self.config.policy!r}; "
                f"available: {POLICY_NAMES}"
            )
        self.characterizer = WorkloadCharacterizer(
            scale=self.config.scale, spec=self.config.spec
        )
        #: device id -> policy instance (independent learning state).
        self._policies: Dict[int, SchedulingPolicy] = {}
        #: device id -> number of decisions issued.
        self._decision_counts: Dict[int, int] = {}
        #: All decisions issued, in issue order (telemetry reads this).
        self.decisions: List[SchedulingDecision] = []
        #: Parallel to :attr:`decisions`: observed makespan or ``None``.
        self.observed: List[Optional[float]] = []
        #: Parallel to :attr:`decisions`: predicted makespan at decide time.
        self.predicted: List[float] = []
        self._journal = None
        self._recovered = 0
        if self.config.journal_path is not None:
            from ..serving.journal import RunJournal

            self._journal = RunJournal(self.config.journal_path)
            self._recovered = self._journal.begin(
                self.config.fingerprint(), resume=self.config.resume
            )

    # -- policy state ------------------------------------------------------

    def _policy_for(self, device: int) -> SchedulingPolicy:
        policy = self._policies.get(device)
        if policy is None:
            kwargs = dict(self.config.policy_options)
            if self.config.policy == EpsilonGreedyBanditPolicy.name:
                kwargs.setdefault("epsilon", self.config.epsilon)
                kwargs.setdefault("decay", self.config.decay)
            policy = make_policy(self.config.policy, **kwargs)
            self._policies[device] = policy
        return policy

    def policy_for(self, device: int = 0) -> SchedulingPolicy:
        """The (lazily created) policy instance owning ``device``'s state."""
        return self._policy_for(device)

    # -- prediction --------------------------------------------------------

    def predicted_stretch(self, types: Sequence[str], width: int) -> float:
        """Heuristic DMA latency stretch for a batch at a given width.

        ``1 + (effective width - 1) * mean transfer fraction``: each
        concurrently launched instance adds contention proportional to how
        transfer-bound the mix is.  Width 1 or a pure-compute mix predicts
        no stretch.
        """
        if not types:
            return 1.0
        eff = max(1, min(width, len(types)))
        mean_fraction = sum(
            self.characterizer.fraction(t) for t in types
        ) / len(types)
        return 1.0 + (eff - 1) * mean_fraction

    def predicted_makespan(self, types: Sequence[str], width: int) -> float:
        """Declared-geometry makespan estimate (lower-bound flavoured)."""
        if not types:
            return 0.0
        eff = max(1, min(width, len(types)))
        estimates = [self.characterizer.serial_estimate(t) for t in types]
        return max(sum(estimates) / eff, max(estimates))

    def _decide_sync(self, stretch: float) -> bool:
        if self.config.sync_override is not None:
            return bool(self.config.sync_override)
        return stretch >= self.config.sync_threshold

    # -- the decision ------------------------------------------------------

    def schedule(
        self,
        types: Sequence[str],
        device: int = 0,
        width: Optional[int] = None,
    ) -> SchedulingDecision:
        """Decide launch order, sync and width for one admitted batch.

        ``types`` is the batch's type sequence in admission (FIFO) order;
        ``width`` an optional caller-side stream cap (defaults to the batch
        size, further capped by ``config.max_width``).
        """
        types = tuple(types)
        if not types:
            raise ValueError("cannot schedule an empty batch")
        granted = width if width is not None else len(types)
        if self.config.max_width is not None:
            granted = min(granted, self.config.max_width)
        granted = max(1, min(granted, len(types)))

        index = self._decision_counts.get(device, 0)
        ctx = BatchContext(
            types=types,
            num_streams=granted,
            device=device,
            decision_index=index,
            seed=self.config.seed,
        )
        policy = self._policy_for(device)
        schedule, order_label = policy.schedule(ctx, self.characterizer)

        stretch = self.predicted_stretch(types, granted)
        decision = SchedulingDecision(
            policy=self.config.policy,
            order_label=order_label,
            schedule=tuple(schedule),
            memory_sync=self._decide_sync(stretch),
            num_streams=granted,
            signature=mix_signature(types, granted),
            device=device,
            decision_index=index,
            predicted_makespan=self.predicted_makespan(types, granted),
            predicted_stretch=stretch,
            explored=policy.explored_last,
        )
        self._decision_counts[device] = index + 1
        self.decisions.append(decision)
        self.observed.append(None)
        self.predicted.append(decision.predicted_makespan)
        if self._journal is not None:
            self._journal.record(decision.to_journal())
        return decision

    # -- feedback ----------------------------------------------------------

    def observe(
        self,
        decision: SchedulingDecision,
        makespan: float,
        records: Optional[Sequence] = None,
    ) -> None:
        """Feed one batch's measured makespan (and records) back.

        Updates the deciding device's policy (bandit arm means), the
        characterizer's observed EMA (when ``records`` are given), and the
        journal.  Must be called in decision order per scheduler for the
        journal replay to stay aligned.
        """
        policy = self._policy_for(decision.device)
        policy.observe(decision.signature, decision.order_label, makespan)
        if records is not None:
            self.characterizer.observe_all(records)
        for i in range(len(self.decisions) - 1, -1, -1):
            if self.decisions[i] is decision:
                self.observed[i] = makespan
                break
        if self._journal is not None:
            self._journal.record(
                {
                    "kind": "observation",
                    "index": decision.decision_index,
                    "device": decision.device,
                    "signature": decision.signature,
                    "order": decision.order_label,
                    "makespan": makespan,
                }
            )

    # -- introspection -----------------------------------------------------

    @property
    def recovered(self) -> int:
        """Journal entries recovered at :meth:`__init__` (resume only)."""
        return self._recovered

    @property
    def journal(self):
        """The underlying :class:`RunJournal`, or ``None``."""
        return self._journal

    def cumulative_regret(self, device: int = 0) -> float:
        """Bandit regret for a device (0.0 for non-learning policies)."""
        policy = self._policies.get(device)
        return getattr(policy, "cumulative_regret", 0.0) if policy else 0.0

    def decision_count(self, device: Optional[int] = None) -> int:
        """Decisions issued — for one device or in total."""
        if device is None:
            return len(self.decisions)
        return self._decision_counts.get(device, 0)

    def finish(self) -> None:
        """End a completed run: see :meth:`repro.serving.journal.
        RunJournal.finish` (no-op without a journal)."""
        if self._journal is not None:
            self._journal.finish()

    def crash(self, time: float) -> None:
        """End a run that died at ``time``: see :meth:`repro.serving.
        journal.RunJournal.crash` (no-op without a journal)."""
        if self._journal is not None:
            self._journal.crash(time)

    def close(self) -> None:
        """Close the journal without the end-of-run check (idempotent)."""
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
