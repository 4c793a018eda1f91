"""Harness-crash fault and deterministic journal resume."""

import pytest

from repro.resilience import FaultPlan
from repro.resilience.faults import FaultKind, FaultSpec
from repro.serving import (
    ConcurrencyCapDispatcher,
    JournalMismatchError,
    RunJournal,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)
from repro.sim.errors import HarnessCrash

pytestmark = pytest.mark.serving

MIX = [("gaussian", 1), ("nn", 1)]
CRASH_AT = 0.01


def trace():
    return poisson_arrivals(1500.0, 0.02, MIX, seed=5)


def config(crash=True, seed=9):
    faults = [
        FaultSpec(kind=FaultKind.LAUNCH_FAIL, time=0.004, target="nn"),
    ]
    if crash:
        faults.append(FaultSpec(kind=FaultKind.HARNESS_CRASH, time=CRASH_AT))
    return ServingConfig(
        queue_depth=4,
        queue_policy="shed-oldest",
        slo_factor=5.0,
        plan=FaultPlan(faults),
        seed=seed,
    )


def crash_run(path):
    with pytest.raises(HarnessCrash):
        run_serving(
            trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
            journal_path=path,
        )


class TestCrash:
    def test_crash_raises_at_planned_time(self):
        with pytest.raises(HarnessCrash) as excinfo:
            run_serving(
                trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8
            )
        assert excinfo.value.time == pytest.approx(CRASH_AT)

    def test_crash_leaves_a_valid_journal_prefix(self, tmp_path):
        path = tmp_path / "run.jsonl"
        crash_run(path)
        entries = RunJournal(path).entries()
        # Some outcomes were committed, but not the whole trace.
        assert 0 < len(entries) < len(trace())
        # Everything journaled happened before the crash.
        for entry in entries:
            if entry["complete"] is not None:
                assert entry["complete"] <= CRASH_AT

    def test_crash_times_sorted(self):
        plan = config().plan
        assert plan.crash_times() == [CRASH_AT]


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        crash_run(path)
        resumed = run_serving(
            trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
            journal_path=path, resume=True,
        )
        # Reference: same device faults, no crash, no journal.
        reference = run_serving(
            trace(), ConcurrencyCapDispatcher(2),
            ServingConfig(
                queue_depth=4,
                queue_policy="shed-oldest",
                slo_factor=5.0,
                plan=FaultPlan(
                    [FaultSpec(kind=FaultKind.LAUNCH_FAIL, time=0.004, target="nn")]
                ),
                seed=9,
            ),
            num_streams=8,
        )
        assert resumed.resumed and resumed.recovered_entries > 0
        assert resumed.completion_time == reference.completion_time
        assert resumed.energy == reference.energy
        assert resumed.sojourn_times == reference.sojourn_times
        assert resumed.outcomes == reference.outcomes
        assert [r.outcome for r in resumed.records] == [
            r.outcome for r in reference.records
        ]
        assert [r.complete_time for r in resumed.records] == [
            r.complete_time for r in reference.records
        ]

    def test_resumed_journal_is_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        crash_run(path)
        run_serving(
            trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
            journal_path=path, resume=True,
        )
        assert len(RunJournal(path).entries()) == len(trace())

    def test_resume_under_wrong_config_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        crash_run(path)
        other = ServingConfig(
            queue_depth=8,       # differs from the journaled run
            queue_policy="shed-oldest",
            slo_factor=5.0,
            plan=config().plan,
            seed=9,
        )
        with pytest.raises(JournalMismatchError):
            run_serving(
                trace(), ConcurrencyCapDispatcher(2), other, num_streams=8,
                journal_path=path, resume=True,
            )

    def test_tampered_journal_detected(self, tmp_path):
        # A *checksum-consistent* edit (re-enveloped, so the CRC is valid)
        # gets past the integrity scan — replay verification still
        # catches the divergence.
        from repro.integrity import decode_line, encode_line

        path = tmp_path / "run.jsonl"
        crash_run(path)
        lines = path.read_bytes().splitlines()
        entry = decode_line(lines[1])
        assert entry["outcome"] == "completed"
        entry["outcome"] = "tampered"
        lines[1] = encode_line(entry, 1).rstrip("\n").encode("utf-8")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalMismatchError):
            run_serving(
                trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
                journal_path=path, resume=True,
            )

    def test_casually_tampered_journal_quarantined_and_outrun(self, tmp_path):
        # An edit that does NOT fix up the checksum is caught earlier: the
        # scan quarantines from the bad record on and replay regenerates
        # the suffix, converging to the uninterrupted run.
        path = tmp_path / "run.jsonl"
        crash_run(path)
        data = bytearray(path.read_bytes())
        offset = data.index(b'"completed"')
        data[offset + 1:offset + 10] = b"tampered!"
        path.write_bytes(bytes(data))
        resumed = run_serving(
            trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
            journal_path=path, resume=True,
        )
        assert sum(resumed.outcomes.values()) == len(trace())
        assert (tmp_path / "run.jsonl.quarantine").exists()

    def test_double_crash_then_resume(self, tmp_path):
        # Crash, resume-with-crash-plan (resume skips the crash), and the
        # journal ends complete: restart-until-done converges.
        path = tmp_path / "run.jsonl"
        crash_run(path)
        first = RunJournal(path).entries()
        resumed = run_serving(
            trace(), ConcurrencyCapDispatcher(2), config(), num_streams=8,
            journal_path=path, resume=True,
        )
        assert resumed.recovered_entries == len(first)
        assert sum(resumed.outcomes.values()) == len(trace())
