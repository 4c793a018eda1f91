"""Unit tests for :mod:`repro.serving.config`."""

import pytest

from repro.serving import BreakerConfig, ServingConfig

pytestmark = pytest.mark.serving


class TestBreakerConfig:
    def test_defaults_valid(self):
        cfg = BreakerConfig()
        assert cfg.threshold >= 1
        assert cfg.cooldown > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0},
            {"cooldown": 0.0},
            {"cooldown": -1.0},
            {"jitter": -0.1},
            {"jitter": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)


class TestServingConfig:
    def test_default_is_inactive(self):
        # Every serving feature is off by default: no queue bound, no
        # SLO, no baselines, no breaker, no fault plan, no fleet.
        config = ServingConfig()
        assert config.queue_depth == 0 and config.slo_factor == 0.0
        assert config.baseline_runtimes is None
        assert config.breaker is None and config.plan is None
        assert config.fleet is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_depth": -1},
            {"queue_policy": "drop-newest"},
            {"slo_factor": -1.0},
            {"slo_jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_baselines_normalized_to_tuples(self):
        cfg = ServingConfig(baseline_runtimes=[("nn", 1e-3)])
        assert cfg.baseline_runtimes == (("nn", 1e-3),)
        assert isinstance(cfg.baseline_runtimes[0][1], float)

    def test_frozen(self):
        cfg = ServingConfig()
        with pytest.raises(Exception):
            cfg.queue_depth = 5
