"""Pre-envelope journal migration: compat-read, upgrade, or reject.

Journals written before the integrity envelope shipped are plain JSONL
(version 1).  The contract: version sniffing recognizes them, resume
reads them through the compat path and rewrites them in envelope form,
legacy-specific corruption limits are enforced (no checksums -> only the
final line may be torn), and files that are neither format are rejected
with an actionable error — never misparsed into garbage entries.
"""

import json
from pathlib import Path

import pytest

from repro.integrity import decode_line, sniff_format
from repro.serving import (
    JOURNAL_FORMAT,
    LEGACY_JOURNAL_VERSION,
    ConcurrencyCapDispatcher,
    JournalError,
    ServingConfig,
    poisson_arrivals,
    run_serving,
)

pytestmark = pytest.mark.integrity

SEED = 7


def _arrivals():
    return poisson_arrivals(
        rate=4000.0,
        duration=0.002,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=SEED,
    )


def _run(path: Path, resume: bool = False):
    return run_serving(
        _arrivals(),
        ConcurrencyCapDispatcher(2),
        ServingConfig(seed=SEED),
        num_streams=8,
        journal_path=path,
        resume=resume,
    )


@pytest.fixture(scope="module")
def envelope_reference(tmp_path_factory):
    """An uninterrupted envelope-format run: (bytes, header, entries)."""
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    _run(path)
    data = path.read_bytes()
    lines = data.splitlines()
    header = decode_line(lines[0], expected_seq=0)
    entries = [
        decode_line(line, expected_seq=i)
        for i, line in enumerate(lines[1:], start=1)
    ]
    return data, header, entries


def _legacy_bytes(header, entries, version=LEGACY_JOURNAL_VERSION) -> bytes:
    """The same run as a pre-envelope (version 1) journal would be."""
    legacy_header = dict(header, version=version)
    lines = [json.dumps(legacy_header, sort_keys=True)]
    lines += [json.dumps(e, sort_keys=True) for e in entries]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestLegacyCompat:
    def test_legacy_is_sniffed_as_legacy(self, envelope_reference):
        _, header, entries = envelope_reference
        assert sniff_format(_legacy_bytes(header, entries)) == "legacy"

    def test_resume_upgrades_to_envelope(
        self, envelope_reference, tmp_path
    ):
        data, header, entries = envelope_reference
        path = tmp_path / "legacy.jsonl"
        path.write_bytes(_legacy_bytes(header, entries))
        result = _run(path, resume=True)
        assert result.resumed
        assert result.recovered_entries == len(entries)
        # The file is now envelope v2 — byte-identical to what an
        # uninterrupted post-upgrade run writes.
        assert path.read_bytes() == data

    def test_resume_replays_partial_legacy_journal(
        self, envelope_reference, tmp_path
    ):
        data, header, entries = envelope_reference
        assert len(entries) >= 3
        path = tmp_path / "legacy-partial.jsonl"
        path.write_bytes(_legacy_bytes(header, entries[:2]))
        result = _run(path, resume=True)
        assert result.recovered_entries == 2
        assert path.read_bytes() == data

    def test_legacy_torn_tail_recovers(self, envelope_reference, tmp_path):
        _, header, entries = envelope_reference
        legacy = _legacy_bytes(header, entries)
        path = tmp_path / "legacy-torn.jsonl"
        path.write_bytes(legacy[:-9])  # cut inside the final line
        result = _run(path, resume=True)
        assert result.recovered_entries == len(entries) - 1

    def test_legacy_mid_file_corruption_is_refused(
        self, envelope_reference, tmp_path
    ):
        # Legacy lines carry no checksums: a bad line mid-file cannot be
        # blamed on a crash, so the journal must refuse rather than guess
        # which suffix to trust.
        _, header, entries = envelope_reference
        lines = _legacy_bytes(header, entries).decode().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path = tmp_path / "legacy-corrupt.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="final line may be torn"):
            _run(path, resume=True)


class TestRejection:
    def test_unknown_format_rejected_with_actionable_error(self, tmp_path):
        path = tmp_path / "noise.jsonl"
        path.write_bytes(b"\x89PNG not a journal at all\n")
        with pytest.raises(JournalError, match=JOURNAL_FORMAT):
            _run(path, resume=True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError):
            _run(path, resume=True)

    def test_unsupported_future_version_rejected(
        self, envelope_reference, tmp_path
    ):
        _, header, entries = envelope_reference
        path = tmp_path / "future.jsonl"
        path.write_bytes(_legacy_bytes(header, entries, version=99))
        with pytest.raises(JournalError, match="unsupported version"):
            _run(path, resume=True)

    def test_wrong_format_name_rejected(
        self, envelope_reference, tmp_path
    ):
        _, header, entries = envelope_reference
        alien = dict(header, format="someone-elses-journal")
        path = tmp_path / "alien.jsonl"
        path.write_bytes(_legacy_bytes(alien, entries))
        with pytest.raises(JournalError, match=JOURNAL_FORMAT):
            _run(path, resume=True)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            _run(tmp_path / "never-written.jsonl", resume=True)
