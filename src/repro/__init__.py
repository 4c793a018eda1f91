"""Reproduction of Luley & Qiu (2016), "Effective Utilization of CUDA
Hyper-Q for Improved Power and Performance Efficiency".

The package layers, bottom-up:

* :mod:`repro.sim` -- a self-contained discrete-event simulation engine.
* :mod:`repro.gpu` -- a Kepler-class GPU model (SMX array, LEFTOVER thread
  block scheduler, per-direction DMA engines, Hyper-Q queue fabric, power).
* :mod:`repro.apps` -- the four ported Rodinia 3.0 applications (Table I),
  each with a validated numpy reference implementation and the simulator
  workload descriptors from Table III.
* :mod:`repro.framework` -- the paper's Hyper-Q Management Framework
  (Stream, StreamManager, Kernel base class, PowerMonitor, scheduling
  orders, transfer synchronization, test harness).
* :mod:`repro.resilience` -- fault injection, watchdog, retries and
  graceful concurrency degradation.
* :mod:`repro.core` -- the experiment layer reproducing every figure.
* :mod:`repro.serving` -- arrival-driven serving: online dispatchers and
  the one open-loop engine (bounded admission, SLO shedding, breakers,
  run journal).
* :mod:`repro.analysis` -- timelines, tables and statistics.

Quickstart::

    from repro import quick_run
    result = quick_run(pair=("gaussian", "needle"), num_apps=8,
                       num_streams=8, memory_sync=True)
    print(result.summary())
"""

from .version import __version__

__all__ = ["__version__"]


def __getattr__(name):
    # Lazy re-exports keep `import repro` cheap while still offering the
    # convenience surface documented in the README.
    if name in _LAZY:
        module, attr = _LAZY[name]
        import importlib

        value = getattr(importlib.import_module(module), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


_LAZY = {
    "Environment": ("repro.sim", "Environment"),
    "GPUDevice": ("repro.gpu", "GPUDevice"),
    "DeviceSpec": ("repro.gpu", "DeviceSpec"),
    "tesla_k20": ("repro.gpu", "tesla_k20"),
    "fermi_c2050": ("repro.gpu", "fermi_c2050"),
    "KernelDescriptor": ("repro.gpu", "KernelDescriptor"),
    "TraceRecorder": ("repro.sim", "TraceRecorder"),
    "Workload": ("repro.core", "Workload"),
    "ExperimentRunner": ("repro.core", "ExperimentRunner"),
    "RunConfig": ("repro.core", "RunConfig"),
    "RunResult": ("repro.core", "RunResult"),
    "quick_run": ("repro.core", "quick_run"),
    "get_app": ("repro.apps", "get_app"),
    "list_apps": ("repro.apps", "list_apps"),
    "SchedulingOrder": ("repro.framework", "SchedulingOrder"),
    "make_schedule": ("repro.framework", "make_schedule"),
    "TestHarness": ("repro.framework", "TestHarness"),
    "ServingConfig": ("repro.serving", "ServingConfig"),
    "BreakerConfig": ("repro.serving", "BreakerConfig"),
    "RunJournal": ("repro.serving", "RunJournal"),
    "run_serving": ("repro.serving", "run_serving"),
}
