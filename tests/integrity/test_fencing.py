"""Generation fencing: stale post-failover writes must never land.

The unit tests replay the split-brain sequence the fence exists for —
bind, loss declaration, late write with the superseded token — against a
real on-disk journal, so "rejected" means *absent from the file*, not
just an exception.  The fleet tests then confirm the harness threads the
same machinery through a real device-loss run.
"""

import pytest

from repro.fleet import FleetConfig, FleetHarness
from repro.integrity import (
    FencedJournal,
    FenceToken,
    GenerationFence,
    StaleGenerationError,
    decode_line,
)
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.serving import RunJournal

from .conftest import FAST_HEALTH, _fleet_apps

pytestmark = pytest.mark.integrity


class TestGenerationFence:
    def test_generations_start_at_zero_and_advance(self):
        fence = GenerationFence()
        assert fence.generation(0) == 0
        assert fence.advance(0) == 1
        assert fence.advance(0) == 2
        assert fence.generation(0) == 2
        assert fence.generation(1) == 0  # independent per device
        assert fence.advances == 2

    def test_token_capture_and_staleness(self):
        fence = GenerationFence()
        token = fence.token(3)
        assert token == FenceToken(3, 0)
        assert fence.is_current(token)
        fence.advance(3)
        assert not fence.is_current(token)
        with pytest.raises(StaleGenerationError) as exc:
            fence.check(token)
        assert exc.value.token is token
        assert exc.value.current == 1
        assert fence.rejected == 1

    def test_tokens_are_immutable(self):
        token = GenerationFence().token(0)
        with pytest.raises(AttributeError):
            token.generation = 99


class TestFencedJournal:
    def _open(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.begin("fence-test")
        return journal

    def test_split_brain_write_never_reaches_disk(self, tmp_path):
        fence = GenerationFence()
        with FencedJournal(self._open(tmp_path), fence) as fenced:
            old = fence.token(0)               # app binds device 0
            fenced.record({"event": "checkpoint", "n": 1}, token=old)
            fence.advance(0)                   # device declared lost
            new = fence.token(0)               # replica re-binds
            # The zombie's in-flight write arrives *after* the advance.
            fenced.record({"event": "checkpoint", "n": 2}, token=old)
            fenced.record({"event": "checkpoint", "n": 3}, token=new)
            assert fenced.rejected == 1
            assert fenced.rejections == [{"event": "checkpoint", "n": 2}]
        lines = (tmp_path / "j.jsonl").read_bytes().splitlines()
        entries = [decode_line(line) for line in lines[1:]]
        assert [e["n"] for e in entries] == [1, 3]

    def test_tokenless_writes_pass_unfenced(self, tmp_path):
        # Coordinator records (device-lost, failover) and terminal app
        # outcomes are legitimate after a loss: no token, no fencing.
        fence = GenerationFence()
        fence.advance(0)
        with FencedJournal(self._open(tmp_path), fence) as fenced:
            fenced.record({"event": "device-lost", "device": 0})
            assert fenced.rejected == 0
        assert len((tmp_path / "j.jsonl").read_bytes().splitlines()) == 2

    def test_fences_without_a_journal_file(self, tmp_path, monkeypatch):
        # A fleet run without a journal path still fences every write:
        # current and tokenless writes pass, a stale one is counted and
        # dropped, and nothing reaches disk.
        monkeypatch.chdir(tmp_path)
        fence = GenerationFence()
        with FencedJournal(None, fence) as fenced:
            old = fence.token(0)
            fenced.record({"event": "checkpoint", "n": 1}, token=old)
            fence.advance(0)
            fenced.record({"event": "device-lost", "device": 0})
            fenced.record({"event": "checkpoint", "n": 2}, token=old)
            fenced.record({"event": "checkpoint", "n": 3}, token=fence.token(0))
            assert fenced.rejected == fence.rejected == 1
            assert fenced.rejections == [{"event": "checkpoint", "n": 2}]
        assert list(tmp_path.iterdir()) == []

    def test_strict_mode_raises(self, tmp_path):
        fence = GenerationFence()
        stale = fence.token(0)
        fence.advance(0)
        with FencedJournal(self._open(tmp_path), fence, strict=True) as fj:
            with pytest.raises(StaleGenerationError):
                fj.record({"event": "checkpoint"}, token=stale)
            assert fj.rejected == 1

    def test_wrapped_surface_passes_through(self, tmp_path):
        fenced = FencedJournal(self._open(tmp_path), GenerationFence())
        assert fenced.appended == 0  # RunJournal attribute via __getattr__
        fenced.close()


class TestFleetFencing:
    def _run(self, tmp_path, lose=True):
        fleet = FleetConfig(num_devices=2, seed=0, **FAST_HEALTH)
        plan = None
        if lose:
            baseline = FleetHarness(
                _fleet_apps(), fleet, num_streams=2, seed=0
            ).run()
            on_dev0 = [r for r in baseline.records if r.device_index == 0]
            target = max(
                on_dev0, key=lambda r: r.complete_time - r.gpu_start
            )
            loss_at = (target.gpu_start + target.complete_time) / 2
            plan = FaultPlan(
                [FaultSpec(FaultKind.DEVICE_LOSS, loss_at, device=0)]
            )
        return FleetHarness(
            _fleet_apps(),
            fleet,
            num_streams=2,
            seed=0,
            plan=plan,
            journal_path=tmp_path / "fleet.jsonl",
        ).run()

    def test_loss_advances_the_generation(self, tmp_path):
        result = self._run(tmp_path)
        assert result.devices_lost == 1
        assert result.fence_advances == 1
        # The sequential simulator leaves no write in flight across the
        # loss instant, so nothing is there to fence off — the counter
        # exists precisely to prove that stays true.
        assert result.stale_writes_rejected == 0

    def test_clean_run_never_advances(self, tmp_path):
        result = self._run(tmp_path, lose=False)
        assert result.fence_advances == 0
        assert result.stale_writes_rejected == 0

    def test_checkpoints_carry_their_generation(self, tmp_path):
        result = self._run(tmp_path)
        assert result.completed == len(result.records)
        lines = (tmp_path / "fleet.jsonl").read_bytes().splitlines()
        entries = [decode_line(line) for line in lines[1:]]
        checkpoints = [e for e in entries if e["event"] == "checkpoint"]
        assert checkpoints
        assert all("gen" in c for c in checkpoints)
        # Post-failover checkpoints of migrated apps carry the surviving
        # device's generation; device 0's pre-loss ones carry gen 0.
        assert {c["gen"] for c in checkpoints} == {0}
        migrated = {
            r.app_id for r in result.records if r.migrations > 0
        }
        assert migrated
        # A migrated app's last durable snapshot was taken after the
        # failover, on the surviving device.
        last = {c["app"]: c for c in checkpoints}
        assert all(last[app]["device"] != 0 for app in migrated)
