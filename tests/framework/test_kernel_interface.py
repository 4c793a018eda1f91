"""Tests for the Table II Kernel interface and AppProfile machinery."""

import pytest

from repro.framework.kernel import (
    TABLE_II,
    AppProfile,
    Buffer,
    KernelApp,
    KernelPhase,
    SyncPhase,
    TransferPhase,
)
from repro.gpu.commands import CopyDirection
from repro.gpu.kernels import Dim3, KernelDescriptor


def simple_profile(**overrides):
    kd = KernelDescriptor("k", Dim3(4), Dim3(64), block_duration=5e-6)
    defaults = dict(
        name="demo",
        data_dim="64",
        host_allocs=(Buffer("h", 1024),),
        device_allocs=(Buffer("d", 1024),),
        phases=(
            TransferPhase(CopyDirection.HTOD, (Buffer("in", 4096),)),
            KernelPhase((kd,)),
            TransferPhase(CopyDirection.DTOH, (Buffer("out", 2048),)),
        ),
    )
    defaults.update(overrides)
    return AppProfile(**defaults)


class TestTableII:
    """The paper's virtual-method interface must be fully present."""

    def test_all_seven_methods_exist(self):
        assert set(TABLE_II) == {
            "allocate_host_memory",
            "allocate_device_memory",
            "initialize_host_memory",
            "transfer_memory",
            "execute_kernel",
            "free_host_memory",
            "free_device_memory",
        }
        for method in TABLE_II:
            assert callable(getattr(KernelApp, method)), method

    def test_mapping_names_cuda_calls(self):
        assert "cudaMallocHost" in TABLE_II["allocate_host_memory"]
        assert "cudaMemcpyAsync" in TABLE_II["transfer_memory"]
        assert "cudaFree" in TABLE_II["free_device_memory"]

    def test_harness_uses_only_base_interface(self):
        """AppThread never references a concrete subclass (polymorphism,
        as in the paper: access Kernel methods 'without binding to the
        derived class')."""
        import inspect

        import repro.framework.app_thread as mod

        source = inspect.getsource(mod)
        for concrete in ("GaussianApp", "NNApp", "NeedleApp", "SradApp"):
            assert concrete not in source


class TestPhases:
    def test_transfer_phase_totals(self):
        phase = TransferPhase(
            CopyDirection.HTOD, (Buffer("a", 100), Buffer("b", 200))
        )
        assert phase.total_bytes == 300

    def test_transfer_phase_needs_buffers(self):
        with pytest.raises(ValueError):
            TransferPhase(CopyDirection.HTOD, ())

    def test_kernel_phase_totals(self):
        kd = KernelDescriptor("k", Dim3(10), Dim3(32), block_duration=1e-6)
        assert KernelPhase((kd, kd)).total_blocks == 20

    def test_kernel_phase_needs_launches(self):
        with pytest.raises(ValueError):
            KernelPhase(())

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            Buffer("x", 0)


class TestAppProfile:
    def test_derived_statistics(self):
        profile = simple_profile()
        assert profile.htod_bytes == 4096
        assert profile.dtoh_bytes == 2048
        assert profile.kernel_launches == 1
        assert profile.total_blocks == 4
        assert profile.compute_time_lower_bound == pytest.approx(5e-6)

    def test_profile_needs_phases(self):
        with pytest.raises(ValueError):
            simple_profile(phases=())

    def test_app_identity(self):
        app = KernelApp(simple_profile(), instance=7)
        assert app.app_id == "demo#7"
        assert "demo#7" in repr(app)

    def test_build_profile_abstract(self):
        with pytest.raises(NotImplementedError):
            KernelApp.build_profile()


class TestSharedProfiles:
    """``KernelApp.create`` builds one profile per class and keywords."""

    def test_equal_keywords_share_one_profile(self):
        from repro.apps.gaussian import GaussianApp

        a = GaussianApp.create(instance=0, n=48)
        b = GaussianApp.create(instance=1, n=48)
        assert a.profile is b.profile
        assert (a.app_id, b.app_id) == ("gaussian#0", "gaussian#1")

    def test_other_size_or_class_gets_another(self):
        from repro.apps.gaussian import GaussianApp
        from repro.apps.needle import NeedleApp

        base = GaussianApp.create(n=64).profile
        assert GaussianApp.create(n=128).profile is not base
        assert NeedleApp.create(n=64).profile is not base
