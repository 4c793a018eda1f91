"""Batch-scheduled serving: harness integration, learning, crash-resume."""

import pytest

from repro.serving import run_batched_serving
from repro.sim.errors import HarnessCrash

pytestmark = pytest.mark.scheduling

BATCH = [("gaussian", 2), ("needle", 2)]


class TestRunBatchedServing:
    def test_batches_run_and_feed_back(self):
        result = run_batched_serving(
            [BATCH] * 3, policy="greedy-interleave", scale="tiny", seed=1
        )
        assert len(result.batches) == 3
        assert result.total_makespan > 0
        assert result.total_energy > 0
        assert all(b.makespan > 0 for b in result.batches)
        assert result.policy == "greedy-interleave"

    def test_records_carry_order_and_sync_attribution(self):
        result = run_batched_serving(
            [BATCH], policy="round-robin", scale="tiny", seed=1
        )
        batch = result.batches[0]
        for record in batch.records:
            assert record.order_policy == "round-robin"
            assert record.memory_sync == batch.decision.memory_sync

    def test_flat_type_lists_accepted(self):
        result = run_batched_serving(
            [["gaussian", "gaussian", "needle"]],
            policy="naive-fifo",
            scale="tiny",
        )
        types = [r.type_name for r in result.batches[0].records]
        assert sorted(types) == ["gaussian", "gaussian", "needle"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batched_serving([[]], scale="tiny")

    def test_bandit_converges_to_best_measured_arm(self):
        # Deterministic sim: after one exploration pass the bandit's
        # exploit decisions hit the arm with the smallest measured
        # makespan, exactly.
        result = run_batched_serving(
            [BATCH] * 10, policy="bandit", scale="tiny", seed=1
        )
        explored = {
            b.decision.order_label: b.makespan
            for b in result.batches[:5]
        }
        best = min(explored, key=lambda k: (explored[k], k))
        exploit = [
            b for b in result.batches[5:] if not b.decision.explored
        ]
        assert exploit, "expected at least one exploit decision"
        for b in exploit:
            assert b.decision.order_label == best
            assert b.makespan == explored[best]

    def test_shared_scheduler_keeps_learning_across_calls(self):
        from repro.scheduling import BatchScheduler, SchedulerConfig

        scheduler = BatchScheduler(
            SchedulerConfig(policy="bandit", scale="tiny", seed=2)
        )
        run_batched_serving([BATCH] * 3, scheduler=scheduler, scale="tiny")
        run_batched_serving([BATCH] * 3, scheduler=scheduler, scale="tiny")
        assert scheduler.decision_count() == 6

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            run_batched_serving([BATCH], scale="tiny", resume=True)


class TestCrashResume:
    def test_crash_then_resume_matches_uninterrupted(self, tmp_path):
        journal = tmp_path / "batched.jsonl"
        uninterrupted = run_batched_serving(
            [BATCH] * 6, policy="bandit", scale="tiny", seed=3
        )
        with pytest.raises(HarnessCrash):
            run_batched_serving(
                [BATCH] * 6,
                policy="bandit",
                scale="tiny",
                seed=3,
                journal_path=journal,
                crash_after=3,
            )
        resumed = run_batched_serving(
            [BATCH] * 6,
            policy="bandit",
            scale="tiny",
            seed=3,
            journal_path=journal,
            resume=True,
        )
        assert resumed.resumed
        assert resumed.recovered_entries == 6  # 3 decisions + 3 observations
        assert [d.order_label for d in resumed.decisions] == [
            d.order_label for d in uninterrupted.decisions
        ]
        assert [b.makespan for b in resumed.batches] == [
            b.makespan for b in uninterrupted.batches
        ]

    def test_resume_against_different_batches_is_refused(self, tmp_path):
        from repro.serving.journal import JournalMismatchError

        journal = tmp_path / "batched.jsonl"
        with pytest.raises(HarnessCrash):
            run_batched_serving(
                [BATCH] * 4,
                scale="tiny",
                seed=3,
                journal_path=journal,
                crash_after=2,
            )
        with pytest.raises(JournalMismatchError):
            run_batched_serving(
                [BATCH] * 5,  # different batch sequence -> different salt
                scale="tiny",
                seed=3,
                journal_path=journal,
                resume=True,
            )

    def test_resume_shorter_than_journal_is_refused(self, tmp_path):
        """A resume that re-verifies only part of the journal raises."""
        from dataclasses import replace

        from repro.scheduling import SchedulerConfig
        from repro.serving.journal import JournalMismatchError

        config = SchedulerConfig(
            policy="bandit", seed=3, scale="tiny",
            journal_path=tmp_path / "batched.jsonl",
        )
        run_batched_serving([BATCH] * 3, scheduler_config=config)
        with pytest.raises(JournalMismatchError, match="2/6 entries"):
            run_batched_serving(
                [BATCH], scheduler_config=replace(config, resume=True)
            )


class TestTelemetryProbe:
    def test_scheduler_probe_reports_decisions(self, env):
        from repro.scheduling import BatchScheduler, SchedulerConfig
        from repro.telemetry import Telemetry
        from repro.telemetry.probes import instrument_scheduler

        telemetry = Telemetry()
        scheduler = BatchScheduler(
            SchedulerConfig(policy="bandit", scale="tiny", seed=0)
        )
        instrument_scheduler(telemetry, scheduler)
        for _ in range(6):
            d = scheduler.schedule(["gaussian"] * 2 + ["nn"] * 2)
            scheduler.observe(d, 1e-3)
        telemetry.attach(env)
        snap = telemetry.sampler.sample_now()
        decisions = {
            key: value
            for key, value in snap.values.items()
            if key.startswith("repro_sched_decisions_total")
        }
        assert sum(decisions.values()) == 6
        # The first five decisions are the bandit's exploration pass.
        assert (
            snap.values['repro_sched_explorations_total{policy="bandit"}'] >= 5
        )
        assert snap.values["repro_sched_observed_makespan_seconds"] == 1e-3
        assert snap.values['repro_sched_bandit_regret_seconds{device="0"}'] >= 0

    def test_batched_serving_wires_the_probe(self, env):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        run_batched_serving(
            [BATCH] * 2, policy="naive-fifo", scale="tiny", telemetry=telemetry
        )
        telemetry.attach(env)
        snap = telemetry.sampler.sample_now()
        assert (
            snap.values[
                'repro_sched_decisions_total{policy="naive-fifo",order="naive-fifo"}'
            ]
            == 2
        )
