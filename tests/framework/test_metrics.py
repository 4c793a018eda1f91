"""Tests for the metrics module (effective latency, Eq. 1-2)."""

import pytest

from repro.framework.metrics import (
    AppRecord,
    KernelEvent,
    TransferEvent,
    average_effective_latency,
    effective_latency,
    improvement_pct,
    makespan,
)
from repro.gpu.commands import CopyDirection


def transfer(direction, enq, start, end, nbytes=1000, buffer=""):
    return TransferEvent(
        direction=direction,
        nbytes=nbytes,
        buffer=buffer,
        enqueued=enq,
        started=start,
        completed=end,
    )


def record(app_id="a#0", stream=0, transfers=(), spawn=0.0, start=0.0, end=1.0):
    rec = AppRecord(
        app_id=app_id,
        type_name=app_id.split("#")[0],
        instance=0,
        stream_index=stream,
        launch_index=0,
        spawn_time=spawn,
        gpu_start=start,
        complete_time=end,
    )
    rec.transfers.extend(transfers)
    return rec


class TestEffectiveLatency:
    def test_eq2_span_of_transfers(self):
        """Le = Tend(last) - Tstart(first), including foreign interleaving."""
        rec = record(transfers=[
            transfer(CopyDirection.HTOD, 0.0, 0.0, 1.0),
            transfer(CopyDirection.HTOD, 0.0, 5.0, 6.0),  # gap = contention
        ])
        assert rec.effective_latency(CopyDirection.HTOD) == pytest.approx(6.0)
        assert effective_latency(rec) == pytest.approx(6.0)

    def test_per_direction(self):
        rec = record(transfers=[
            transfer(CopyDirection.HTOD, 0, 0.0, 1.0),
            transfer(CopyDirection.DTOH, 0, 10.0, 12.5),
        ])
        assert rec.effective_latency(CopyDirection.HTOD) == pytest.approx(1.0)
        assert rec.effective_latency(CopyDirection.DTOH) == pytest.approx(2.5)

    def test_none_when_no_transfers(self):
        assert record().effective_latency(CopyDirection.HTOD) is None

    def test_pure_transfer_time_is_service_sum(self):
        rec = record(transfers=[
            transfer(CopyDirection.HTOD, 0, 0.0, 1.0),
            transfer(CopyDirection.HTOD, 0, 5.0, 6.0),
        ])
        assert rec.pure_transfer_time(CopyDirection.HTOD) == pytest.approx(2.0)

    def test_queueing_delay(self):
        t = transfer(CopyDirection.HTOD, 1.0, 3.0, 4.0)
        assert t.queueing_delay == pytest.approx(2.0)
        assert t.service_time == pytest.approx(1.0)


class TestTwoLevelAverage:
    def test_paper_aggregation(self):
        """Average per stream first, then across streams."""
        records = [
            # Stream 0: two apps with Le 2 and 4 -> mean 3.
            record("a#0", 0, [transfer(CopyDirection.HTOD, 0, 0, 2)]),
            record("a#1", 0, [transfer(CopyDirection.HTOD, 0, 0, 4)]),
            # Stream 1: one app with Le 9.
            record("b#0", 1, [transfer(CopyDirection.HTOD, 0, 0, 9)]),
        ]
        # (3 + 9) / 2 = 6; a flat average would give 5.
        assert average_effective_latency(records) == pytest.approx(6.0)

    def test_apps_without_transfers_skipped(self):
        records = [
            record("a#0", 0, [transfer(CopyDirection.HTOD, 0, 0, 2)]),
            record("a#1", 0, []),
        ]
        assert average_effective_latency(records) == pytest.approx(2.0)

    def test_empty(self):
        assert average_effective_latency([]) == 0.0


class TestImprovement:
    def test_positive_when_faster(self):
        assert improvement_pct(100.0, 75.0) == pytest.approx(25.0)

    def test_negative_when_slower(self):
        assert improvement_pct(100.0, 110.0) == pytest.approx(-10.0)

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            improvement_pct(0.0, 1.0)


class TestMakespan:
    def test_span_of_schedule(self):
        records = [
            record("a#0", spawn=0.0, end=5.0),
            record("a#1", spawn=1.0, end=9.0),
        ]
        assert makespan(records) == pytest.approx(9.0)

    def test_empty(self):
        assert makespan([]) == 0.0

    def test_wall_time(self):
        rec = record(start=2.0, end=7.5)
        assert rec.wall_time == pytest.approx(5.5)


class TestEventRecords:
    """Copy and kernel records are immutable values with derived times."""

    def test_attribute_assignment_rejected(self):
        copy = transfer(CopyDirection.HTOD, 0.5, 1.0, 3.0)
        kernel = KernelEvent("k", 4, 0.5, 1.25, 3.0, 2)
        with pytest.raises(AttributeError):
            copy.nbytes = 0
        with pytest.raises(AttributeError):
            kernel.waves = 0

    def test_properties_keep_their_formulas(self):
        copy = transfer(CopyDirection.DTOH, 0.5, 1.0, 3.0)
        assert copy.service_time == copy.completed - copy.started == 2.0
        assert copy.queueing_delay == copy.started - copy.enqueued == 0.5
        kernel = KernelEvent("k", 4, 0.5, 1.25, 3.0, 2)
        assert kernel.execution_time == kernel.completed - kernel.started

    def test_compare_by_value(self):
        a = KernelEvent("k", 4, 0.5, 1.25, 3.0, 2)
        b = KernelEvent(
            name="k", num_blocks=4, enqueued=0.5, started=1.25,
            completed=3.0, waves=2,
        )
        assert a == b and hash(a) == hash(b)
        assert a != a._replace(waves=3)
