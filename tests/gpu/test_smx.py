"""Unit tests for :mod:`repro.gpu.smx` (resource accounting + placement)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.smx import SMXArray, SMXState
from repro.gpu.specs import SMXSpec


def kd(tpb=256, regs=16, smem=0, blocks=1024, name="k"):
    return KernelDescriptor(
        name=name,
        grid=Dim3(blocks, 1, 1),
        block=Dim3(tpb, 1, 1),
        registers_per_thread=regs,
        shared_mem_per_block=smem,
        block_duration=1e-6,
    )


class TestSMXState:
    def test_initial_state_full_capacity(self):
        s = SMXState(0, SMXSpec())
        assert s.free_blocks == 16
        assert s.free_threads == 2048
        assert not s.busy
        assert s.resident_threads == 0

    def test_take_and_give_back_roundtrip(self):
        s = SMXState(0, SMXSpec())
        k = kd(tpb=256, regs=16)
        n = s.fits(k)
        s.take(k, n)
        assert s.fits(k) == 0
        assert s.busy
        s.give_back(k, n)
        assert s.fits(k) == n
        assert not s.busy

    def test_overtake_rejected(self):
        s = SMXState(0, SMXSpec())
        k = kd(tpb=1024)  # 2048 threads/SMX -> at most 2 resident
        with pytest.raises(ValueError):
            s.take(k, 3)

    def test_double_free_detected(self):
        s = SMXState(0, SMXSpec())
        k = kd(tpb=256)
        s.take(k, 1)
        s.give_back(k, 1)
        with pytest.raises(ValueError):
            s.give_back(k, 1)


class TestSMXArray:
    def test_place_respects_request_size(self):
        arr = SMXArray(13, SMXSpec())
        placements = arr.place(kd(tpb=256, regs=0), 5)
        assert sum(p.nblocks for p in placements) == 5
        assert arr.resident_blocks == 5

    def test_place_caps_at_capacity(self):
        arr = SMXArray(13, SMXSpec())
        # 256 threads/block -> 8/SMX -> 104 device-wide.
        placements = arr.place(kd(tpb=256, regs=0), 10_000)
        assert sum(p.nblocks for p in placements) == 104
        assert arr.place(kd(tpb=256, regs=0), 1) == []

    def test_release_restores_capacity(self):
        arr = SMXArray(4, SMXSpec())
        k = kd(tpb=256, regs=0)
        placements = arr.place(k, 32)
        arr.release(k, placements)
        assert arr.resident_blocks == 0
        assert arr.resident_threads == 0
        assert sum(p.nblocks for p in arr.place(k, 32)) == 32

    def test_leftover_packing_mixed_kernels(self):
        """A second kernel fits into space the first left unused."""
        arr = SMXArray(13, SMXSpec())
        big = kd(tpb=1024, regs=0, name="big")     # 2 blocks/SMX
        placements = arr.place(big, 26)            # fills every thread slot? no:
        assert sum(p.nblocks for p in placements) == 26
        # 26 * 1024 threads = device thread capacity; block slots remain but
        # no threads -> a thread-hungry kernel cannot enter...
        assert arr.place(kd(tpb=32, regs=0, name="tiny"), 1) == []
        arr.release(big, placements[:1])
        # ...until capacity frees.
        assert arr.place(kd(tpb=32, regs=0, name="tiny"), 4) != []

    def test_counters_match_recount(self):
        arr = SMXArray(13, SMXSpec())
        k1 = kd(tpb=256, regs=0, name="a")
        k2 = kd(tpb=64, regs=0, name="b")
        p1 = arr.place(k1, 40)
        p2 = arr.place(k2, 30)
        recount_blocks = sum(
            arr.spec.max_blocks - s.free_blocks for s in arr.smxs
        )
        recount_threads = sum(s.resident_threads for s in arr.smxs)
        assert arr.resident_blocks == recount_blocks
        assert arr.resident_threads == recount_threads
        assert arr.free_block_slots == 13 * 16 - recount_blocks

    def test_occupancy_snapshot(self):
        arr = SMXArray(2, SMXSpec())
        k = kd(tpb=1024, regs=0)
        arr.place(k, 2)
        busy, blocks, occ = arr.utilization_snapshot()
        assert blocks == 2
        assert occ == pytest.approx(2 * 1024 / (2 * 2048))

    def test_zero_request(self):
        arr = SMXArray(2, SMXSpec())
        assert arr.place(kd(), 0) == []


@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from([32, 64, 128, 256, 512, 1024]),  # tpb
            st.integers(min_value=1, max_value=300),          # blocks wanted
        ),
        min_size=1,
        max_size=20,
    )
)
def test_placement_never_exceeds_limits(requests):
    """Property: whatever the placement mix, per-SMX limits always hold."""
    arr = SMXArray(13, SMXSpec())
    live = []
    for i, (tpb, want) in enumerate(requests):
        k = kd(tpb=tpb, regs=16, name=f"k{i}")
        placements = arr.place(k, want)
        placed = sum(p.nblocks for p in placements)
        assert placed <= want
        if placements:
            live.append((k, placements))
        for s in arr.smxs:
            assert 0 <= s.free_blocks <= s.spec.max_blocks
            assert 0 <= s.free_threads <= s.spec.max_threads
            assert 0 <= s.free_registers <= s.spec.registers
            assert 0 <= s.free_shared_mem <= s.spec.shared_memory
        # Occasionally release the oldest cohort to exercise both paths.
        if len(live) > 3:
            k_old, p_old = live.pop(0)
            arr.release(k_old, p_old)
    # Drain everything; the array must return to pristine state.
    for k_old, p_old in live:
        arr.release(k_old, p_old)
    assert arr.resident_blocks == 0
    assert arr.resident_threads == 0
    for s in arr.smxs:
        assert s.free_blocks == s.spec.max_blocks
        assert s.free_threads == s.spec.max_threads


def _reference_place(states, cursor, kernel, max_blocks):
    """The placement rule spelled out with SMXState's own methods.

    Greedy fill in array order from ``cursor``; a placement that meets
    its request moves the cursor past the last SMX it used.  Returns
    ``(placements, cursor)``.
    """
    if max_blocks <= 0:
        return [], cursor
    n_smx = len(states)
    remaining = max_blocks
    placements = []
    for offset in range(n_smx):
        idx = (cursor + offset) % n_smx
        n = min(states[idx].fits(kernel), remaining)
        if n <= 0:
            continue
        states[idx].take(kernel, n)
        placements.append((idx, n))
        remaining -= n
        if remaining == 0:
            cursor = (idx + 1) % n_smx
            break
    return placements, cursor


def _counters(states):
    return [
        (s.free_blocks, s.free_threads, s.free_shared_mem, s.free_registers)
        for s in states
    ]


@settings(max_examples=150, deadline=None)
@given(
    num_smx=st.integers(min_value=1, max_value=13),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("place"),
                st.sampled_from([32, 64, 128, 256, 512, 1024]),  # tpb
                st.sampled_from([0, 8, 16, 32, 63]),             # regs/thread
                st.sampled_from([0, 1 << 10, 8 << 10, 24 << 10, 48 << 10]),
                st.integers(min_value=0, max_value=300),         # blocks wanted
            ),
            st.tuples(st.just("release"), st.integers(min_value=0, max_value=50)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_array_fast_paths_match_per_smx_reference(num_smx, ops):
    """Property: SMXArray.place/release equal a loop over fits/take/give_back.

    Same placements, same per-SMX counters and same device-level totals
    after every operation, for any mix of kernels bounded by any of the
    four resources.
    """
    arr = SMXArray(num_smx, SMXSpec())
    ref = [SMXState(i, SMXSpec()) for i in range(num_smx)]
    cursor = 0
    live = []
    for i, op in enumerate(ops):
        if op[0] == "place":
            _, tpb, regs, smem, want = op
            k = kd(tpb=tpb, regs=regs, smem=smem, name=f"k{i}")
            placements = arr.place(k, want)
            expected, cursor = _reference_place(ref, cursor, k, want)
            assert [tuple(p) for p in placements] == expected
            if placements:
                live.append((k, placements))
        elif live:
            k, placements = live.pop(op[1] % len(live))
            arr.release(k, placements)
            for idx, n in placements:
                ref[idx].give_back(k, n)
        assert _counters(arr.smxs) == _counters(ref)
        assert arr.resident_blocks == sum(
            s.spec.max_blocks - s.free_blocks for s in ref
        )
        assert arr.resident_threads == sum(s.resident_threads for s in ref)


def test_array_release_detects_double_free():
    arr = SMXArray(2, SMXSpec())
    k = kd(tpb=256)
    placements = arr.place(k, 3)
    arr.release(k, placements)
    with pytest.raises(ValueError, match="exceeds capacity"):
        arr.release(k, placements)
