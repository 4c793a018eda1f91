"""One simulated GPU with the framework objects wrapped around it.

The paper's framework puts one device behind one
:class:`~repro.framework.stream_manager.StreamManager`, one transfer
synchronizer and one :class:`~repro.framework.power_monitor.PowerMonitor`
(Table II).  :class:`DeviceStack` builds that stack for every engine that
runs applications on a device — the batch harness, the streaming/serving
engine and each slot of a fleet — so the build order and the fault rule
live in one place.

The fault rule: the device and its power monitor get a
:class:`~repro.resilience.faults.FaultInjector` only when the plan has
faults.  With no plan, or an empty one, every engine stays on its
fault-free code path and results are byte-identical to a build without
the resilience subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..gpu.device import GPUDevice
from ..gpu.specs import DeviceSpec
from ..resilience.faults import FaultInjector, FaultPlan
from .power_monitor import DEFAULT_INTERVAL, PowerMonitor
from .stream_manager import StreamManager
from .sync import make_synchronizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["DeviceStack"]


class DeviceStack:
    """Injector, GPU, stream pool, synchronizer and power monitor.

    Attributes
    ----------
    injector:
        The plan's :class:`FaultInjector`, or ``None`` when the plan has
        no faults.  Applied faults are marked on its own ``trace``.
    gpu:
        The :class:`~repro.gpu.device.GPUDevice`.
    manager, synchronizer, monitor:
        Its stream pool, HtoD transfer synchronizer and power monitor.
    """

    def __init__(
        self,
        env: "Environment",
        spec: Optional[DeviceSpec],
        num_streams: int,
        memory_sync: bool,
        *,
        plan: Optional[FaultPlan] = None,
        copy_policy: str = "interleave",
        admission=None,
        power_interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.env = env
        self.injector: Optional[FaultInjector] = (
            FaultInjector(env, plan)
            if plan is not None and not plan.empty
            else None
        )
        self.gpu = GPUDevice(
            env,
            spec=spec,
            copy_policy=copy_policy,
            admission=admission,
            injector=self.injector,
        )
        self.manager = StreamManager(env, self.gpu, num_streams)
        self.synchronizer = make_synchronizer(env, memory_sync)
        self.monitor = PowerMonitor(
            env, self.gpu, interval=power_interval, injector=self.injector
        )
