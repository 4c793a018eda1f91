"""Metastability detection and the brownout ladder.

The probe is fed synthetic goodput from a driver process so every window
evaluation is deterministic: capacity is ``healthy * per_device_rate``,
and a window whose goodput/capacity ratio sits below the floor counts
against the trip budget.  These tests pin the trip/recover hysteresis,
the metastable-window accounting (ladder fires *before* windows count as
metastable), shedding, and the observational defaults.
"""

import pytest

from repro.integrity import FencedJournal, GenerationFence
from repro.resilience import (
    BrownoutConfig,
    ConcurrencyLadder,
    MetastabilityProbe,
)
from repro.sim.engine import Environment

pytestmark = pytest.mark.resilience

WINDOW = 1e-3


def ladder_for(env, config, width=4):
    """The fleet's brownout ladder: full width, then narrowed per level."""
    narrow = max(1, int(width * config.width_factor))
    return ConcurrencyLadder(env, (width,) + (narrow,) * config.max_level)


def unfiled():
    """A fenced journal with no file behind it, as fleet runs have."""
    return FencedJournal(None, GenerationFence())


def make(env, healthy=4, **overrides):
    cfg = dict(
        window=WINDOW,
        floor=0.5,
        trip_windows=2,
        recover_windows=2,
        per_device_rate=1000.0,  # 1 kernel/window/device
        shed_types=("needle",),
    )
    cfg.update(overrides)
    config = BrownoutConfig(**cfg)
    return MetastabilityProbe(
        env, config, lambda: healthy, ladder_for(env, config),
        journal=unfiled(),
    )


def feed(env, probe, per_window, windows):
    """Drive ``windows`` window-loads of progress, one deposit each."""

    def driver():
        for kernels in per_window:
            probe.note_progress(kernels)
            yield env.timeout(WINDOW)

    # Probe first: at each shared window boundary it closes the window
    # *before* the driver deposits the next window's progress.
    probe.start()
    env.process(driver(), name="feeder")
    env.run(until=windows * WINDOW + WINDOW / 2)
    probe.stop()


class TestWindowAccounting:
    def test_healthy_windows_never_trip(self):
        env = Environment()
        probe = make(env)
        feed(env, probe, [4.0] * 6, 6)
        assert probe.level == 0
        assert probe.metastable_windows == 0
        assert len(probe.windows) == 6
        assert all(w["ratio"] == pytest.approx(1.0) for w in probe.windows)

    def test_trip_after_consecutive_bad_windows(self):
        env = Environment()
        probe = make(env)
        # 2 bad windows trip level 1; 2 more trip level 2.
        feed(env, probe, [4.0, 0.5, 0.5, 0.5, 0.5], 5)
        assert probe.level == probe.ladder.level == 2
        assert [(lvl, lim) for (_, lvl, lim) in probe.ladder.steps] == [
            (1, 2),
            (2, 2),
        ]
        assert [e["level"] for e in probe.events] == [1, 2]
        assert [e["from"] for e in probe.events] == [0, 1]

    def test_ladder_fires_before_metastable_count(self):
        env = Environment()
        probe = make(env, max_level=1)
        # trip_windows=2: windows 1-2 trip the ladder and reset the
        # streak, so a collapse the ladder cures within its budget never
        # counts as metastable — only a streak *past* the budget does.
        feed(env, probe, [0.5, 0.5, 0.5, 0.5], 4)
        assert probe.level == 1
        assert probe.metastable_windows == 0

    def test_sustained_collapse_counts_metastable_windows(self):
        env = Environment()
        probe = make(env, max_level=1, trip_windows=1)
        # Ladder trips at window 1 and stays; the streak rebuilds and
        # every window past the budget is metastable.
        feed(env, probe, [0.0] * 6, 6)
        assert probe.level == 1
        assert probe.metastable_windows > 0

    def test_interrupted_streak_never_trips(self):
        env = Environment()
        probe = make(env)
        feed(env, probe, [0.5, 4.0, 0.5, 4.0, 0.5, 4.0], 6)
        assert probe.level == 0
        assert probe.metastable_windows == 0

    def test_recovery_steps_down_with_hysteresis(self):
        env = Environment()
        probe = make(env, max_level=1)
        feed(env, probe, [0.5, 0.5, 4.0, 4.0, 4.0, 4.0], 6)
        # Tripped at window 2, one healthy window is not enough, two are;
        # the second pair of healthy windows has nothing left to undo.
        assert probe.level == 0
        assert [e["level"] for e in probe.events] == [1, 0]

    def test_capacity_shrinks_with_fleet(self):
        env = Environment()
        healthy = [4]
        config = BrownoutConfig(window=WINDOW, floor=0.5, per_device_rate=1000.0)
        probe = MetastabilityProbe(
            env, config, lambda: healthy[0], ladder_for(env, config),
            journal=unfiled(),
        )

        def driver():
            # Full fleet producing half a fleet's work: unhealthy.
            probe.note_progress(2.0)
            yield env.timeout(WINDOW)
            # Half the fleet died; the same output is now full capacity,
            # so a domain loss alone must not read as collapse.
            healthy[0] = 2
            probe.note_progress(2.0)
            yield env.timeout(WINDOW)

        probe.start()
        env.process(driver(), name="feeder")
        env.run(until=2.5 * WINDOW)
        probe.stop()
        assert probe.windows[0]["ratio"] == pytest.approx(0.5)
        assert probe.windows[1]["ratio"] == pytest.approx(1.0)


class TestBrownoutActions:
    def test_shed_only_at_level_two_and_only_configured_types(self):
        env = Environment()
        probe = make(env)
        assert not probe.shed_class("needle")
        feed(env, probe, [0.0] * 4, 4)
        assert probe.level == 2
        assert probe.shed_class("needle")
        assert not probe.shed_class("gaussian")
        assert probe.sheds == 1

    def test_zero_rate_is_observational(self):
        env = Environment()
        probe = make(env, per_device_rate=0.0, shed_types=())
        feed(env, probe, [0.0] * 6, 6)
        assert probe.level == 0
        assert probe.metastable_windows == 0
        assert all(w["ratio"] == 1.0 for w in probe.windows)

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutConfig(window=0.0)
        with pytest.raises(ValueError):
            BrownoutConfig(floor=0.0)
        with pytest.raises(ValueError):
            BrownoutConfig(max_level=3)
        with pytest.raises(ValueError):
            BrownoutConfig(width_factor=0.0)
        with pytest.raises(ValueError):
            BrownoutConfig(trip_windows=0)
