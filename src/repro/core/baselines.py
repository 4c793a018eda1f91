"""Comparator techniques from the related work (paper Section II).

The paper positions its lazy (LEFTOVER) policy against three families of
prior art; all three are implemented so the ablation benchmarks can compare
them on the same workloads:

* **Symbiosis-style admission control** (Li et al. [2]) — two kernels may
  execute concurrently only if the *sum* of their resource requests fits in
  the device.  For realistic kernels this "almost always results in
  serialized execution"; :func:`symbiosis_admission` is a grid-engine
  admission hook enforcing it.
* **Elastic-kernel transfer chunking** (Pai et al. [8]) — large copies are
  split into many small ones to exploit copy-queue interleaving.
  :func:`chunk_profile` rewrites an application profile accordingly (the
  paper's approach is the opposite: *batch* small copies via the mutex).
* **Kernel reordering with fixed thread->stream binding** (Wende et al.
  [11]) — applications launch round-robin across per-stream CPU queues.
  :func:`wende_schedule` produces that launch order; combined with the
  harness's stream sharing it reproduces the host-side serialization the
  paper contrasts with its dynamic assignment.
"""

from __future__ import annotations

from typing import List, Sequence

from ..framework.kernel import AppProfile, Buffer, Phase, TransferPhase
from ..gpu.block_scheduler import GridState
from ..gpu.specs import DeviceSpec
from ..scheduling.orders import SchedulingOrder, make_schedule

__all__ = ["symbiosis_admission", "chunk_profile", "wende_schedule"]


def symbiosis_admission(spec: DeviceSpec):
    """Admission hook: co-schedule only if *total* requests fit the device.

    "For two kernels to be scheduled concurrently, the sum total of their
    resource requests must be less than or equal to the total resources
    available on the GPU."  The hook receives the candidate grid and the
    currently executing grids and admits the candidate only when adding its
    full block/thread request keeps the device within its theoretical
    ceilings.  Oversubscribing kernels therefore serialize — the behaviour
    the paper's LEFTOVER policy improves on (Figure 5).
    """
    max_blocks = spec.max_resident_blocks
    max_threads = spec.max_resident_threads

    def admit(candidate: GridState, active: List[GridState]) -> bool:
        if not active:
            # A lone kernel always runs (possibly over several waves); the
            # sum rule only gates *concurrent* scheduling.
            return True
        blocks = candidate.kernel.num_blocks + sum(
            g.kernel.num_blocks for g in active
        )
        threads = candidate.kernel.total_threads + sum(
            g.kernel.total_threads for g in active
        )
        return blocks <= max_blocks and threads <= max_threads

    return admit


def chunk_profile(profile: AppProfile, chunk_bytes: int = 256 * 1024) -> AppProfile:
    """Split every transfer buffer into <= ``chunk_bytes`` pieces.

    Models Pai et al.'s transfer chunking: more, smaller copy commands per
    application, which *increases* copy-queue interleaving.  Used by the
    ablation bench to show that chunking (helpful for their 100 MB-scale
    single transfers) hurts the paper's many-small-transfers regime, where
    batching via the mutex is the right call.
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    from dataclasses import replace

    new_phases: List[Phase] = []
    for phase in profile.phases:
        if not isinstance(phase, TransferPhase):
            new_phases.append(phase)
            continue
        buffers: List[Buffer] = []
        for buf in phase.buffers:
            remaining = buf.nbytes
            index = 0
            while remaining > 0:
                piece = min(chunk_bytes, remaining)
                buffers.append(Buffer(f"{buf.name}[{index}]", piece))
                remaining -= piece
                index += 1
        new_phases.append(replace(phase, buffers=tuple(buffers)))
    return replace(profile, phases=tuple(new_phases))


def wende_schedule(types: Sequence[str]) -> List[int]:
    """Wende et al.'s round-robin kernel reordering as a launch order.

    Their technique inserts kernels into per-thread CPU queues and launches
    round-robin across them; at the granularity of whole applications this
    is exactly the Round-Robin order of Figure 3b (their work examines only
    this one ordering — the paper examines five).
    """
    return make_schedule(types, SchedulingOrder.ROUND_ROBIN)
