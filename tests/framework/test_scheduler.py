"""Tests for the launch-order policies — verified against Figure 3 verbatim."""

import numpy as np
import pytest

from repro.scheduling.orders import (
    SchedulingOrder,
    all_orders,
    make_schedule,
    schedule_signature,
)

#: The paper's Figure 3 example: m = 4 copies of AX, n = 4 copies of AY.
TYPES = ["AX"] * 4 + ["AY"] * 4


def signature(order, rng=None):
    return schedule_signature(TYPES, make_schedule(TYPES, order, rng=rng))


class TestFigure3:
    def test_naive_fifo_matches_figure_3a(self):
        assert signature(SchedulingOrder.NAIVE_FIFO) == [
            "AX(1)", "AX(2)", "AX(3)", "AX(4)",
            "AY(1)", "AY(2)", "AY(3)", "AY(4)",
        ]

    def test_round_robin_matches_figure_3b(self):
        assert signature(SchedulingOrder.ROUND_ROBIN) == [
            "AX(1)", "AY(1)", "AX(2)", "AY(2)",
            "AX(3)", "AY(3)", "AX(4)", "AY(4)",
        ]

    def test_reverse_fifo_matches_figure_3d(self):
        assert signature(SchedulingOrder.REVERSE_FIFO) == [
            "AY(1)", "AY(2)", "AY(3)", "AY(4)",
            "AX(1)", "AX(2)", "AX(3)", "AX(4)",
        ]

    def test_reverse_round_robin_matches_figure_3e(self):
        assert signature(SchedulingOrder.REVERSE_ROUND_ROBIN) == [
            "AY(1)", "AX(1)", "AY(2)", "AX(2)",
            "AY(3)", "AX(3)", "AY(4)", "AX(4)",
        ]

    def test_random_shuffle_is_permutation_with_counts_preserved(self):
        """Figure 3c: same multiset of applications, order randomized."""
        rng = np.random.default_rng(7)
        sig = signature(SchedulingOrder.RANDOM_SHUFFLE, rng=rng)
        assert sorted(sig) == sorted(signature(SchedulingOrder.NAIVE_FIFO))

    def test_random_shuffle_deterministic_per_seed(self):
        s1 = make_schedule(TYPES, SchedulingOrder.RANDOM_SHUFFLE,
                           rng=np.random.default_rng(42))
        s2 = make_schedule(TYPES, SchedulingOrder.RANDOM_SHUFFLE,
                           rng=np.random.default_rng(42))
        s3 = make_schedule(TYPES, SchedulingOrder.RANDOM_SHUFFLE,
                           rng=np.random.default_rng(43))
        assert s1 == s2
        assert s1 != s3  # overwhelmingly likely for 8! permutations

    def test_random_shuffle_requires_rng(self):
        with pytest.raises(ValueError):
            make_schedule(TYPES, SchedulingOrder.RANDOM_SHUFFLE)


class TestGeneralization:
    def test_all_orders_listed_in_paper_sequence(self):
        assert [str(o) for o in all_orders()] == [
            "naive-fifo",
            "round-robin",
            "random-shuffle",
            "reverse-fifo",
            "reverse-round-robin",
        ]

    def test_uneven_split(self):
        types = ["X"] * 3 + ["Y"] * 1
        rr = schedule_signature(types, make_schedule(types, SchedulingOrder.ROUND_ROBIN))
        assert rr == ["X(1)", "Y(1)", "X(2)", "X(3)"]

    def test_three_types_round_robin(self):
        types = ["A", "A", "B", "B", "C", "C"]
        rr = schedule_signature(types, make_schedule(types, SchedulingOrder.ROUND_ROBIN))
        assert rr == ["A(1)", "B(1)", "C(1)", "A(2)", "B(2)", "C(2)"]

    def test_every_order_is_a_permutation(self):
        types = ["X"] * 5 + ["Y"] * 3
        rng = np.random.default_rng(0)
        for order in all_orders():
            perm = make_schedule(types, order, rng=rng)
            assert sorted(perm) == list(range(8))

    def test_relative_order_within_type_preserved(self):
        """All policies except shuffle keep instances of a type in order."""
        types = ["X"] * 4 + ["Y"] * 4
        for order in all_orders():
            if order is SchedulingOrder.RANDOM_SHUFFLE:
                continue
            perm = make_schedule(types, order)
            x_positions = [perm.index(i) for i in range(4)]
            y_positions = [perm.index(i) for i in range(4, 8)]
            assert x_positions == sorted(x_positions)
            assert y_positions == sorted(y_positions)

    def test_empty_workload(self):
        assert make_schedule([], SchedulingOrder.NAIVE_FIFO) == []
