"""Property-based tests for the launch-order policies (hypothesis)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.scheduling.orders import (
    SchedulingOrder,
    all_orders,
    make_schedule,
    schedule_signature,
)

type_lists = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=0, max_size=40
)


@given(types=type_lists, order=st.sampled_from(list(SchedulingOrder)),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_every_policy_yields_a_permutation(types, order, seed):
    rng = np.random.default_rng(seed)
    schedule = make_schedule(types, order, rng=rng)
    assert sorted(schedule) == list(range(len(types)))


@given(types=type_lists, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_type_multiset_preserved(types, seed):
    rng = np.random.default_rng(seed)
    for order in all_orders():
        schedule = make_schedule(types, order, rng=rng)
        assert sorted(types[i] for i in schedule) == sorted(types)


@given(types=type_lists)
def test_deterministic_policies_stable(types):
    for order in all_orders():
        if order is SchedulingOrder.RANDOM_SHUFFLE:
            continue
        assert make_schedule(types, order) == make_schedule(types, order)


@given(types=type_lists)
def test_within_type_order_preserved(types):
    """Non-shuffle policies keep each type's instances in FIFO order."""
    for order in all_orders():
        if order is SchedulingOrder.RANDOM_SHUFFLE:
            continue
        schedule = make_schedule(types, order)
        position = {idx: pos for pos, idx in enumerate(schedule)}
        by_type = {}
        for idx, name in enumerate(types):
            by_type.setdefault(name, []).append(idx)
        for indices in by_type.values():
            positions = [position[i] for i in indices]
            assert positions == sorted(positions)


@given(m=st.integers(min_value=0, max_value=20),
       n=st.integers(min_value=0, max_value=20))
def test_reverse_fifo_is_involution_on_grouped_input(m, n):
    """On FIFO-grouped input (the paper's setup), reversing the type blocks
    twice recovers Naive FIFO."""
    types = ["X"] * m + ["Y"] * n
    once = make_schedule(types, SchedulingOrder.REVERSE_FIFO)
    reversed_types = [types[i] for i in once]
    twice_rel = make_schedule(reversed_types, SchedulingOrder.REVERSE_FIFO)
    twice = [once[i] for i in twice_rel]
    assert twice == make_schedule(types, SchedulingOrder.NAIVE_FIFO)


@given(types=type_lists, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_signature_lists_every_instance_once(types, seed):
    rng = np.random.default_rng(seed)
    for order in all_orders():
        schedule = make_schedule(types, order, rng=rng)
        signature = schedule_signature(types, schedule)
        assert len(signature) == len(types)
        assert len(set(signature)) == len(types)  # labels are unique
