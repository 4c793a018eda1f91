"""The extracted launch-order module and its package re-exports."""

import numpy as np
import pytest

from repro import scheduling
from repro.scheduling.orders import (
    FIGURE_3,
    SchedulingOrder,
    all_orders,
    make_schedule,
    ordering_rows,
    schedule_signature,
)

pytestmark = pytest.mark.scheduling


class TestBackCompat:
    def test_package_reexports(self):
        assert scheduling.SchedulingOrder is SchedulingOrder
        assert scheduling.make_schedule is make_schedule

    def test_framework_package_still_exports(self):
        from repro.framework import SchedulingOrder as fw_order

        assert fw_order is SchedulingOrder


class TestFigure3Reference:
    def test_reference_matches_make_schedule(self):
        types = ["AX"] * 4 + ["AY"] * 4
        for name, expected in FIGURE_3.items():
            order = SchedulingOrder(name)
            schedule = make_schedule(types, order)
            assert schedule_signature(types, schedule) == expected

    def test_deterministic_panels_only(self):
        assert "random-shuffle" not in FIGURE_3
        assert len(FIGURE_3) == 4

    def test_experiment_agrees_with_reference(self):
        from repro.core.experiments import fig3_orders

        orders = fig3_orders(m=4, n=4, seed=7)
        for name, expected in FIGURE_3.items():
            assert orders[name] == expected


class TestOrderingRows:
    def test_flattens_ordering_result(self):
        class Row:
            def __init__(self, order, makespan, norm):
                self.pair = ("gaussian", "needle")
                self.order = order
                self.makespan = makespan
                self.normalized_performance = norm

        class Result:
            rows = [
                Row(SchedulingOrder.NAIVE_FIFO, 0.002, 1.0),
                Row(SchedulingOrder.ROUND_ROBIN, 0.001, 2.0),
            ]

        rows = ordering_rows(Result())
        assert rows == [
            {
                "pair": "gaussian+needle",
                "order": "naive-fifo",
                "makespan_ms": 2.0,
                "normalized_perf": 1.0,
            },
            {
                "pair": "gaussian+needle",
                "order": "round-robin",
                "makespan_ms": 1.0,
                "normalized_perf": 2.0,
            },
        ]


class TestMakeSchedule:
    def test_shuffle_requires_rng(self):
        with pytest.raises(ValueError):
            make_schedule(["a", "b"], SchedulingOrder.RANDOM_SHUFFLE)

    def test_all_orders_are_permutations(self):
        types = ["x"] * 3 + ["y"] * 5 + ["z"] * 2
        rng = np.random.default_rng(0)
        for order in all_orders():
            schedule = make_schedule(types, order, rng=rng)
            assert sorted(schedule) == list(range(len(types)))
