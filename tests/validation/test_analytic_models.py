"""Validation of the device model against closed-form results.

Beyond unit tests, these check that the simulated engines reproduce
textbook queueing/throughput behaviour:

* the DMA engine under Poisson arrivals of fixed-size copies behaves like
  an M/D/1 queue (Pollaczek-Khinchine mean wait);
* a backlogged copy engine sustains exactly the configured bandwidth;
* a backlogged grid engine sustains exactly ``resident_blocks /
  block_duration`` block throughput;
* the power model's energy equals the analytic integral for a scripted
  activity pattern.
"""

import numpy as np
import pytest

from repro.gpu.commands import CopyDirection, MemcpyCommand
from repro.gpu.device import GPUDevice
from repro.gpu.dma import CopyEngine
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.specs import DMASpec
from repro.sim.engine import Environment


class TestMD1Queue:
    """Poisson arrivals + deterministic service -> M/D/1."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_pollaczek_khinchine(self, rho):
        service = 100e-6                  # fixed: latency-only transfers
        nbytes = 1024
        spec = DMASpec(bandwidth=nbytes / (service - 0e-6), latency=0.0)
        # transfer_time = nbytes / bandwidth = service (no latency term).
        env = Environment()
        engine = CopyEngine(env, CopyDirection.HTOD, spec, policy="fifo")
        rng = np.random.default_rng(42)
        n_jobs = 4000
        lam = rho / service
        arrivals = np.cumsum(rng.exponential(1.0 / lam, size=n_jobs))
        waits = []

        def source():
            now = 0.0
            for i, t in enumerate(arrivals):
                yield env.timeout(t - now)
                now = t
                cmd = MemcpyCommand(env, CopyDirection.HTOD, nbytes)
                cmd.stream_id = i  # independent streams: no FIFO coupling
                cmd.enqueue_time = env.now
                engine.submit(cmd)
                cmd.started.callbacks.append(
                    lambda e, c=cmd: waits.append(c.started.value - c.enqueue_time)
                )

        env.process(source())
        env.run()
        assert len(waits) == n_jobs
        measured = float(np.mean(waits))
        # M/D/1: Wq = rho * s / (2 (1 - rho)).
        analytic = rho * service / (2.0 * (1.0 - rho))
        assert measured == pytest.approx(analytic, rel=0.15)


class TestThroughputSaturation:
    def test_dma_sustains_configured_bandwidth(self):
        env = Environment()
        spec = DMASpec(bandwidth=2e9, latency=0.0)
        engine = CopyEngine(env, CopyDirection.HTOD, spec, policy="fifo")
        total_bytes = 0
        for i in range(200):
            cmd = MemcpyCommand(env, CopyDirection.HTOD, 1 << 20)
            cmd.stream_id = i
            engine.submit(cmd)
            total_bytes += 1 << 20
        env.run()
        assert total_bytes / env.now == pytest.approx(2e9, rel=1e-9)

    def test_grid_engine_sustains_block_throughput(self):
        """Backlogged identical kernels retire blocks at capacity rate."""
        env = Environment()
        device = GPUDevice(env)
        duration = 5e-6
        kd = KernelDescriptor(
            "k", Dim3(104), Dim3(256), registers_per_thread=0,
            block_duration=duration,
        )
        launches = 20
        for _ in range(launches):
            device.create_stream().enqueue_kernel(kd)
        env.run()
        # 104 resident blocks (256 tpb -> 8/SMX x 13); each wave = duration.
        total_blocks = launches * 104
        expected_rate = 104 / duration
        measured_rate = total_blocks / env.now
        # Retirement quantization (1us vs 5us blocks) costs <= 20%.
        assert measured_rate == pytest.approx(expected_rate, rel=0.25)
        assert measured_rate <= expected_rate * 1.0000001


class TestEnergyClosedForm:
    def test_scripted_activity_pattern(self):
        """Energy for a known duty cycle equals the hand integral."""
        from repro.gpu.power import PowerModel
        from repro.gpu.specs import PowerSpec, tesla_k20

        spec = PowerSpec()
        env = Environment()
        capacity = tesla_k20().max_resident_threads
        model = PowerModel(env, spec, capacity)

        def driver():
            for _ in range(10):
                # A quarter of the resident threads, one copy engine and
                # four streams busy.
                model.update(capacity // 4, 1, True, 4)
                yield env.timeout(0.01)
                model.update(0, 0, False, 0)
                yield env.timeout(0.03)

        env.process(driver())
        env.run()
        p_busy = (
            spec.idle + spec.context_active
            + spec.smx_dynamic_max * 0.25 ** spec.concurrency_exponent
            + spec.dma_active + 4 * spec.stream_active
        )
        expected = 10 * (p_busy * 0.01 + spec.idle * 0.03)
        assert model.energy() == pytest.approx(expected, rel=1e-12)
