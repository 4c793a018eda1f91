"""Per-class retry budgets: the token bucket that caps retry amplification.

Every resilience mechanism in the repository is a load *amplifier*:
supervisor retries re-run failed attempts, the fleet driver re-runs
deadline-missed work, the hedge manager launches speculative replicas.
Under an isolated fault that amplification buys availability; under a
correlated one (a whole fault domain gone, every survivor overloaded) it
is exactly the feedback loop that turns a capacity dip into a metastable
collapse — the retries *are* the overload.

:class:`RetryBudget` is the shared brake.  One bucket per work class
(application type) refills at ``rate`` tokens per simulated second up to
``burst``; every retry-shaped decision of the fleet — a fault retry, a
deadline re-run, a hedge launch — must ``try_spend`` a token first.  An empty bucket denies the retry, so system-wide duplicate
work is capped at roughly ``rate`` per class no matter how many apps are
failing, and the deny is *accounted* (``denied`` per class) so telemetry
counters stay truthful under exhaustion.

Deadline propagation rides along: :func:`unfinishable` is the one-line
check callers use to shed work whose deadline can no longer be met
instead of spending budget re-running it.

Everything runs on the simulated clock the caller passes in; the module
depends on nothing above :mod:`repro.sim` and owns no processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["RetryBudgetConfig", "RetryBudget", "unfinishable"]


def unfinishable(
    now: float,
    deadline: Optional[float],
    estimated_remaining: float = 0.0,
) -> bool:
    """Whether work cannot finish by ``deadline`` anymore.

    ``deadline=None`` means no deadline (always finishable); otherwise
    the work is unfinishable once ``now + estimated_remaining`` passes
    the deadline.  Callers shed unfinishable work instead of retrying it
    — a retry that cannot produce useful output is pure amplification.
    """
    if deadline is None:
        return False
    return now + estimated_remaining > deadline


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Token-bucket parameters for the per-class retry budget.

    Attributes
    ----------
    rate:
        Tokens refilled per simulated second, per class.
    burst:
        Bucket depth: the largest retry burst one class may spend at
        once.  Buckets start full.
    shared:
        ``True`` pools every class into one global bucket (strict
        system-wide cap); ``False`` (default) isolates classes so one
        flapping app type cannot starve another's retries.
    """

    rate: float = 50.0
    burst: float = 4.0
    shared: bool = False

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


#: Bucket key used for every class when the budget is shared.
_SHARED = "__shared__"


class RetryBudget:
    """Deterministic token buckets over the simulated clock.

    ``clock`` is a zero-argument callable returning the current simulated
    time (normally ``lambda: env.now``); refill is computed lazily at
    each spend from the elapsed simulated seconds, so the budget needs no
    process of its own and costs nothing while idle.
    """

    def __init__(
        self, config: RetryBudgetConfig, clock: Callable[[], float]
    ) -> None:
        self.config = config
        self.clock = clock
        self._tokens: Dict[str, float] = {}
        self._stamped: Dict[str, float] = {}
        #: Spends granted / denied, per class (truthful accounting: a
        #: denied spend performed no retry and launched no hedge).
        self.granted: Dict[str, int] = {}
        self.denied: Dict[str, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RetryBudget granted={self.granted_total} "
            f"denied={self.denied_total}>"
        )

    def _key(self, class_name: str) -> str:
        return _SHARED if self.config.shared else class_name

    def tokens(self, class_name: str, now: Optional[float] = None) -> float:
        """Tokens available to ``class_name`` at ``now`` (refilled view)."""
        if now is None:
            now = self.clock()
        key = self._key(class_name)
        level = self._tokens.get(key, self.config.burst)
        stamped = self._stamped.get(key, now)
        if now > stamped:
            level = min(
                self.config.burst, level + (now - stamped) * self.config.rate
            )
        return level

    def try_spend(
        self, class_name: str, now: Optional[float] = None, cost: float = 1.0
    ) -> bool:
        """Spend ``cost`` tokens from ``class_name``'s bucket, or deny.

        Returns ``True`` (and debits the bucket) when enough tokens were
        available; ``False`` (and increments the class's ``denied``
        count) otherwise.  A denial refunds nothing and runs nothing —
        the caller must not retry.
        """
        if now is None:
            now = self.clock()
        key = self._key(class_name)
        level = self.tokens(class_name, now)
        self._stamped[key] = now
        if level >= cost:
            self._tokens[key] = level - cost
            self.granted[class_name] = self.granted.get(class_name, 0) + 1
            return True
        self._tokens[key] = level
        self.denied[class_name] = self.denied.get(class_name, 0) + 1
        return False

    @property
    def granted_total(self) -> int:
        """Spends granted across every class."""
        return sum(self.granted.values())

    @property
    def denied_total(self) -> int:
        """Spends denied across every class."""
        return sum(self.denied.values())
