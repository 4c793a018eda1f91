"""Tests for workload construction."""

import numpy as np
import pytest

from repro.core.workload import SCALES, Workload, resolve_scale
from repro.scheduling.orders import SchedulingOrder


class TestScales:
    def test_three_profiles(self):
        assert set(SCALES) == {"paper", "small", "tiny"}

    def test_paper_scale_matches_table3(self):
        assert SCALES["paper"]["gaussian"] == {"n": 512}
        assert SCALES["paper"]["nn"] == {"records": 42764}
        assert SCALES["paper"]["needle"] == {"n": 512}
        assert SCALES["paper"]["srad"] == {"n": 512, "iterations": 10}

    def test_resolve_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert resolve_scale("paper") == "paper"
        assert resolve_scale() == "small"

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_scale("huge")


class TestConstruction:
    def test_homogeneous(self):
        wl = Workload.homogeneous("nn", 4, scale="tiny")
        assert wl.size == 4
        assert wl.types == ["nn"] * 4
        assert wl.type_counts == {"nn": 4}

    def test_heterogeneous_pair_even_split(self):
        wl = Workload.heterogeneous_pair("gaussian", "needle", 8, scale="tiny")
        assert wl.type_counts == {"gaussian": 4, "needle": 4}
        # Naive FIFO order: all X then all Y.
        assert wl.types == ["gaussian"] * 4 + ["needle"] * 4

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            Workload.heterogeneous_pair("nn", "nn", 4)
        with pytest.raises(ValueError):
            Workload.heterogeneous_pair("nn", "srad", 5)  # odd
        with pytest.raises(ValueError):
            Workload.heterogeneous_pair("nn", "srad", 0)

    def test_mixed(self):
        wl = Workload.mixed([("nn", 2), ("srad", 1), ("needle", 3)], scale="tiny")
        assert wl.size == 6
        assert wl.type_counts == {"nn": 2, "srad": 1, "needle": 3}

    def test_mixed_validation(self):
        with pytest.raises(ValueError):
            Workload.mixed([])
        with pytest.raises(ValueError):
            Workload.mixed([("nn", 0)])

    def test_homogeneous_overrides(self):
        wl = Workload.homogeneous("nn", 1, scale="tiny", records=999)
        apps = wl.instantiate()
        assert apps[0].profile.data_dim == "999"

    def test_describe(self):
        wl = Workload.heterogeneous_pair("gaussian", "needle", 4, scale="tiny")
        assert wl.describe() == "2x gaussian + 2x needle"


class TestInstantiation:
    def test_identity_schedule(self):
        wl = Workload.heterogeneous_pair("nn", "srad", 4, scale="tiny")
        apps = wl.instantiate()
        assert [a.app_id for a in apps] == ["nn#0", "nn#1", "srad#0", "srad#1"]

    def test_permuted_schedule_preserves_identity(self):
        """Instance numbers follow FIFO identity, not launch position."""
        wl = Workload.heterogeneous_pair("nn", "srad", 4, scale="tiny")
        schedule = wl.schedule(SchedulingOrder.REVERSE_ROUND_ROBIN)
        apps = wl.instantiate(schedule)
        assert [a.app_id for a in apps] == ["srad#0", "nn#0", "srad#1", "nn#1"]

    def test_bad_schedule_rejected(self):
        wl = Workload.homogeneous("nn", 3, scale="tiny")
        with pytest.raises(ValueError):
            wl.instantiate([0, 0, 1])
        with pytest.raises(ValueError):
            wl.instantiate([0, 1])

    def test_random_schedule_reproducible(self):
        wl = Workload.heterogeneous_pair("nn", "srad", 8, scale="tiny")
        s1 = wl.schedule(SchedulingOrder.RANDOM_SHUFFLE, rng=np.random.default_rng(5))
        s2 = wl.schedule(SchedulingOrder.RANDOM_SHUFFLE, rng=np.random.default_rng(5))
        assert s1 == s2
