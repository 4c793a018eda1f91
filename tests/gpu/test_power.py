"""Unit tests for the power model (:mod:`repro.gpu.power`)."""

import random

import pytest

from repro.gpu.power import PowerModel, PowerState
from repro.gpu.specs import PowerSpec, fermi_c2050, tesla_k20
from repro.sim.engine import Environment

#: The K20's resident-thread ceiling (13 SMX x 2048).
K20_THREADS = tesla_k20().max_resident_threads


def idle_state():
    return PowerState(occupancy=0.0, dma_busy=0, any_active=False)


def busy_state(occ=1.0, dma=0):
    return PowerState(occupancy=occ, dma_busy=dma, any_active=True)


def reference_state(capacity, resident_threads, dma_busy, any_active, streams):
    """The :class:`PowerState` a device with these counts reports."""
    return PowerState(
        occupancy=min(resident_threads / capacity, 1.0),
        dma_busy=dma_busy,
        any_active=any_active,
        active_streams=streams,
    )


class TestFormula:
    spec = PowerSpec()

    def model(self):
        return PowerModel(Environment(), self.spec, K20_THREADS)

    def test_idle_power(self):
        assert self.model().evaluate(idle_state()) == pytest.approx(self.spec.idle)

    def test_full_occupancy_power(self):
        expected = self.spec.idle + self.spec.context_active + self.spec.smx_dynamic_max
        assert self.model().evaluate(busy_state(1.0)) == pytest.approx(expected)

    def test_tdp_clamp(self):
        spec = PowerSpec(smx_dynamic_max=1000.0, tdp=225.0)
        model = PowerModel(Environment(), spec, K20_THREADS)
        assert model.evaluate(busy_state(1.0)) == 225.0

    def test_dma_contribution(self):
        with_dma = self.model().evaluate(busy_state(0.0, dma=2))
        without = self.model().evaluate(busy_state(0.0, dma=0))
        assert with_dma - without == pytest.approx(2 * self.spec.dma_active)

    def test_sublinear_concurrency_scaling(self):
        """Doubling occupancy must raise dynamic power by less than 2x —
        the paper's central energy observation."""
        model = self.model()
        base = model.evaluate(busy_state(0.0))
        p1 = model.evaluate(busy_state(0.4)) - base
        p2 = model.evaluate(busy_state(0.8)) - base
        assert p2 < 2 * p1
        assert p2 > p1  # but still monotone

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            PowerState(occupancy=1.5, dma_busy=0, any_active=True)
        with pytest.raises(ValueError):
            PowerState(occupancy=0.5, dma_busy=-1, any_active=True)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PowerModel(Environment(), self.spec, 0)


class _ReferenceIntegrator:
    """Piecewise-constant integration driven by ``evaluate(PowerState)``.

    An independent copy of the bookkeeping :meth:`PowerModel.update`
    does, fed by the reference formula instead of the counts.
    """

    def __init__(self, env, model):
        self.env = env
        self.formula = model.evaluate
        self.power = self.formula(idle_state())
        self.peak_power = self.power
        self.last_change = env.now
        self.closed = []
        self.energy_before = 0.0
        self.same_instant_changes = 0

    def update(self, state):
        new_power = self.formula(state)
        if new_power == self.power:
            return
        dt = self.env.now - self.last_change
        if dt > 0:
            self.closed.append((self.last_change, self.power))
            self.energy_before += self.power * dt
        else:
            self.same_instant_changes += 1
        self.power = new_power
        self.last_change = self.env.now
        self.peak_power = max(self.peak_power, new_power)

    def energy(self):
        return self.energy_before + self.power * (self.env.now - self.last_change)

    def segments(self):
        return self.closed + [(self.last_change, self.power)]


class TestCountsMatchReference:
    """``update(counts)`` gives exactly the reference formula's watts."""

    @pytest.mark.parametrize(
        "spec, device",
        [
            (PowerSpec(), tesla_k20()),
            # Clamps at TDP on the busy end of the grid.
            (PowerSpec(tdp=150.0), tesla_k20()),
            (PowerSpec(), fermi_c2050()),
        ],
        ids=["k20", "k20-tdp-clamped", "fermi"],
    )
    def test_state_grid_is_bit_exact(self, spec, device):
        capacity = device.max_resident_threads
        block = 256
        model = PowerModel(Environment(), spec, capacity)
        mismatches = []
        clamped = unclamped = 0
        for threads in range(0, capacity + 1, block):
            for dma in range(3):
                for active in (False, True):
                    for streams in range(34):
                        model.update(threads, dma, active, streams)
                        expected = model.evaluate(
                            reference_state(capacity, threads, dma, active, streams)
                        )
                        if model.current_power != expected:
                            mismatches.append(
                                (threads, dma, active, streams,
                                 model.current_power, expected)
                            )
                        if expected == spec.tdp:
                            clamped += 1
                        else:
                            unclamped += 1
        assert mismatches == []
        assert unclamped > 0
        if spec.tdp == 150.0:
            assert clamped > 0

    def test_replayed_updates_integrate_identically(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec, K20_THREADS)
        reference = _ReferenceIntegrator(env, model)
        rng = random.Random(7)
        delays = (0.0, 0.0, 0.0, 1e-6, 2.5e-5, 3e-3)

        def replay():
            for _ in range(2000):
                delay = rng.choice(delays)
                if delay:
                    yield env.timeout(delay)
                counts = (
                    rng.randrange(0, K20_THREADS + 1, 128),
                    rng.randrange(3),
                    rng.random() < 0.8,
                    rng.randrange(34),
                )
                model.update(*counts)
                reference.update(reference_state(K20_THREADS, *counts))
            yield env.timeout(1e-3)

        env.process(replay())
        env.run()
        assert model.energy() == reference.energy()
        assert model.peak_power == reference.peak_power
        assert model.segments() == reference.segments()
        assert reference.same_instant_changes > 100  # the mix exercised them

    @pytest.mark.parametrize(
        "counts",
        [(-256, 0, True, 0), (0, -1, True, 0), (0, 0, True, -1)],
        ids=["threads", "dma", "streams"],
    )
    def test_negative_counts_raise(self, counts):
        model = PowerModel(Environment(), PowerSpec(), K20_THREADS)
        before = model.current_power
        with pytest.raises(ValueError):
            model.update(*counts)
        with pytest.raises(ValueError):
            model.update(*counts)  # a failed count is never cached
        assert model.current_power == before


class TestIntegration:
    def test_energy_of_constant_power(self):
        env = Environment()
        model = PowerModel(env, PowerSpec(), K20_THREADS)
        env.timeout(10.0)
        env.run()
        assert model.energy() == pytest.approx(PowerSpec().idle * 10.0)

    def test_piecewise_integration(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec, K20_THREADS)

        def driver():
            yield env.timeout(5.0)       # 5 s idle
            model.update(K20_THREADS, 0, True, 0)
            yield env.timeout(2.0)       # 2 s at full tilt
            model.update(0, 0, False, 0)
            yield env.timeout(3.0)       # 3 s idle again

        env.process(driver())
        env.run()
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        expected = spec.idle * 5 + full * 2 + spec.idle * 3
        assert model.energy() == pytest.approx(expected)

    def test_energy_until_midpoint(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec, K20_THREADS)

        def driver():
            yield env.timeout(4.0)
            model.update(K20_THREADS, 0, True, 0)
            yield env.timeout(4.0)

        env.process(driver())
        env.run()
        # Energy in the first half only.
        assert model.energy(until=4.0) == pytest.approx(spec.idle * 4.0)
        # Energy window inside the busy half.
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        assert model.energy(until=6.0) - model.energy(until=4.0) == pytest.approx(
            full * 2.0
        )

    def test_average_power(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec, K20_THREADS)

        def driver():
            model.update(K20_THREADS, 0, True, 0)
            yield env.timeout(2.0)
            model.update(0, 0, False, 0)
            yield env.timeout(2.0)

        env.process(driver())
        env.run()
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        assert model.average_power(0.0, 4.0) == pytest.approx((full + spec.idle) / 2)

    def test_peak_power_tracked(self):
        env = Environment()
        model = PowerModel(env, PowerSpec(), K20_THREADS)
        model.update(K20_THREADS // 2, 0, True, 0)
        model.update(0, 0, False, 0)
        assert model.peak_power > PowerSpec().idle

    def test_no_op_update_adds_no_segment(self):
        env = Environment()
        model = PowerModel(env, PowerSpec(), K20_THREADS)
        before = len(model.segments())
        model.update(0, 0, False, 0)  # same power as initial
        assert len(model.segments()) == before
