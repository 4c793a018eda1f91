"""Crash-safe journaling: the one journal class every store uses.

The journal is a line-oriented file of checksummed **envelope records**
(see :mod:`repro.integrity.record`): one header record naming the
store's format and version and binding the run configuration by
fingerprint, then one record per committed entry, appended in commit
order.  Each append is flushed and fsynced before
:meth:`RunJournal.record` returns, and file creation / atomic rewrite is
followed by a directory fsync — the durability contract is "when
record() returns, the OS has the bytes *and* the name", so the
crash-point fuzzing harness tests what a real SIGKILL would leave behind.

Every crash-safe store in the repo is a :class:`RunJournal` that differs
only in its header and its entries: the serving outcome journal, the
burn-rate alert journal, the fleet checkpoint/failover journal and the
batch scheduler's decision journal (all format
:data:`JOURNAL_FORMAT`), and the traffic recorder's cursor sidecar
(:data:`repro.workload.trace.CURSOR_FORMAT`).

Because every record carries a CRC-32 and its file sequence number,
recovery is no longer limited to "one torn trailing line": a tail cut
mid-write — even mid-UTF-8-codepoint — *and* a byte flipped anywhere in
the middle of the file are both detected, the journal is truncated to its
last valid prefix, the rejected bytes are quarantined to a
``<path>.quarantine`` sidecar, and the scan is reported in a typed
:class:`~repro.integrity.record.RecoveryReport` (:attr:`RunJournal.
recovery`).

**Resume is replay.**  The simulation is deterministic, so the cheapest
*and* safest recovery is to re-execute the run from the start and *verify*
each recomputed entry against the journaled prefix instead of appending
it; once the prefix is exhausted, new entries append as usual.  The
resumed run therefore produces byte-identical results to an uninterrupted
run, and any divergence (changed code, edited journal, wrong config) is
caught as a :class:`JournalMismatchError` rather than silently corrupting
the log.  The fingerprint check makes "resumed against the wrong run"
a first-class error, not a garbage result.

**One end-of-run protocol.**  A run that completes calls
:meth:`RunJournal.finish`, which raises :class:`JournalMismatchError`
when the journal holds recovered entries the replay never re-verified
(it belongs to a longer run); a run that dies calls
:meth:`RunJournal.crash`, which appends a durable crash marker.  Both
close the file.

Pre-envelope (version 1) journals — plain JSONL — are detected by format
sniffing and read through a compat path; resuming one rewrites it in
envelope form.  Unknown formats are rejected with an actionable error,
never misparsed.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from ..integrity.record import (
    MARKER_KEY,
    RecoveryReport,
    UnknownJournalFormat,
    encode_line,
    fsync_dir,
    quarantine_bytes,
    scan_file,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "LEGACY_JOURNAL_VERSION",
    "JournalError",
    "JournalMismatchError",
    "RunJournal",
]

JOURNAL_FORMAT = "repro-serving-journal"
#: Current on-disk version: checksummed envelope records.
JOURNAL_VERSION = 2
#: Pre-envelope plain-JSONL journals, still readable via the compat path.
LEGACY_JOURNAL_VERSION = 1


class JournalError(Exception):
    """The journal file is missing, unreadable or structurally invalid."""


class JournalMismatchError(JournalError):
    """A resumed run diverged from (or does not belong to) its journal."""


class RunJournal:
    """Append-only checksummed entry log with replay-verified resume.

    Lifecycle: construct with a path (and the header's ``format`` name
    and ``version``), :meth:`begin` (fresh or resuming), feed every entry
    through :meth:`record`, then end the run with :meth:`finish` (it
    completed) or :meth:`crash` (it died).  :func:`~repro.serving.run_serving`
    records one entry per terminal outcome.
    """

    def __init__(
        self, path, format: str = JOURNAL_FORMAT, version: int = JOURNAL_VERSION
    ) -> None:
        self.path = Path(path)
        self.format = format
        self.version = version
        self._fh = None
        self._seq = 0
        self._pending: Deque[Dict] = deque()
        #: Entries recovered from a prior run at :meth:`begin`.
        self.recovered = 0
        #: Recovered entries successfully re-verified during replay.
        self.verified = 0
        #: New entries appended (and fsynced) this run.
        self.appended = 0
        #: Marker records (e.g. crash markers) appended this run.
        self.markers = 0
        #: Scan report from the last resume (``None`` for fresh runs).
        self.recovery: Optional[RecoveryReport] = None

    # -- setup -------------------------------------------------------------

    def begin(self, fingerprint: str, resume: bool = False) -> int:
        """Open the journal; returns the number of recovered entries.

        Fresh runs write the header over whatever was at the path.
        Resumed runs scan the existing file, check its fingerprint against
        this run's configuration, truncate to the last valid prefix
        (quarantining anything after it — a torn tail or flipped byte),
        and queue the surviving entries for replay verification.
        """
        entries: List[Dict] = []
        if resume:
            header, entries = self._load(repair=True)
            if header.get("fingerprint") != fingerprint:
                raise JournalMismatchError(
                    f"journal {self.path} was written by a different run "
                    f"configuration (fingerprint {header.get('fingerprint')!r}"
                    f" != {fingerprint!r})"
                )
            self._pending = deque(entries)
            self.recovered = len(entries)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Write header + surviving entries in envelope form, atomically,
        # so torn bytes, markers and any legacy formatting are gone before
        # we start appending again.
        header = {
            "format": self.format,
            "version": self.version,
            "fingerprint": fingerprint,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(encode_line(header, 0))
            for seq, entry in enumerate(entries, start=1):
                fh.write(encode_line(entry, seq))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_dir(self.path)
        self._seq = len(entries) + 1
        self._fh = open(self.path, "a", encoding="utf-8")
        return self.recovered

    def _load(self, repair: bool = False) -> Tuple[Dict, List[Dict]]:
        """Scan the file; with ``repair`` also quarantine invalid bytes.

        Returns the header payload and the surviving entries (markers
        excluded); a ``repair`` scan leaves its report in
        :attr:`recovery`.  Raises
        :class:`JournalError` when the file is absent, empty, of an
        unknown format, or carries the wrong header.
        """
        try:
            header, entries, report, _ = scan_file(self.path)
        except FileNotFoundError:
            raise JournalError(
                f"cannot resume: journal {self.path} does not exist"
            ) from None
        except UnknownJournalFormat as exc:
            raise JournalError(
                f"{self.path} is not a {self.format} file: {exc}"
            ) from None
        if repair:
            self.recovery = report
        if report.format == "legacy" and report.mid_file_corruption:
            # Legacy lines carry no checksum, so a bad line mid-file
            # cannot be blamed on a crash: refuse rather than guess which
            # suffix to trust.
            raise JournalError(
                f"journal {self.path} is corrupt at line "
                f"{report.first_invalid_line} (legacy format: only the "
                "final line may be torn); re-run without --resume or "
                "restore the file from backup"
            )
        if header is None:
            raise JournalError(
                f"journal {self.path} has a corrupt header line"
            )
        if header.get("format") != self.format:
            raise JournalError(f"{self.path} is not a {self.format} file")
        if header.get("version") not in (self.version, LEGACY_JOURNAL_VERSION):
            raise JournalError(
                f"journal {self.path} has unsupported version "
                f"{header.get('version')!r} (this build reads versions "
                f"{LEGACY_JOURNAL_VERSION} and {self.version})"
            )
        if repair and report.quarantined_bytes:
            data = self.path.read_bytes()
            report.sidecar = quarantine_bytes(
                self.path, data[len(data) - report.quarantined_bytes:]
            )
        return header, entries

    # -- engine-facing surface --------------------------------------------

    def record(self, entry: Dict) -> None:
        """Commit one entry.

        During replay of a resumed run this *verifies* the entry against
        the journaled prefix instead of appending; past the prefix it
        appends one fsynced envelope record.
        """
        if self._fh is None:
            raise JournalError("journal used before begin() / after close()")
        # A JSON round trip, so the comparison sees what disk sees: floats
        # serialize with ``repr`` and parse back exactly, so a recomputed
        # entry equals its journaled form iff the values are bit-identical.
        entry = json.loads(json.dumps(entry, sort_keys=True))
        if self._pending:
            prior = self._pending.popleft()
            if prior != entry:
                raise JournalMismatchError(
                    f"resumed run diverged from journal {self.path} at "
                    f"recovered entry {self.verified + 1}/{self.recovered}: "
                    f"journaled {prior!r}, recomputed {entry!r}"
                )
            self.verified += 1
            return
        self._append(entry)
        self.appended += 1

    def fast_forward(self, n: int) -> None:
        """Accept the first ``n`` recovered entries without re-verifying.

        For a resume that restarts *past* those entries (the traffic
        recorder restores its generator from a cursor), so they can never
        be re-emitted.  Entries beyond ``n`` stay pending and must still
        replay-verify.
        """
        for _ in range(n):
            self._pending.popleft()
        self.verified += n

    def _append(self, payload: Dict) -> None:
        self._fh.write(encode_line(payload, self._seq))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._seq += 1

    # -- end of run --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Recovered entries not yet re-verified by the replay."""
        return len(self._pending)

    def finish(self) -> None:
        """Close the journal of a run that completed.

        Raises :class:`JournalMismatchError` (after closing) when the
        replay never re-verified some recovered entries: the journal
        belongs to a longer run.
        """
        unverified = len(self._pending)
        self.close()
        if unverified:
            raise JournalMismatchError(
                f"resumed run re-verified only {self.verified}/"
                f"{self.recovered} entries of journal {self.path}; the "
                "journal belongs to a longer run"
            )

    def crash(self, time: float) -> None:
        """Durably note that the run is dying at ``time``, then close.

        The marker is an envelope record like any other — fsynced before
        the crash propagates — but it is *not* an entry: :meth:`entries`
        filters it and the resume rewrite drops it, so a resumed journal
        still converges to the uninterrupted run's bytes.  Idempotent.
        """
        if self._fh is not None:
            self._append({MARKER_KEY: "crash", "t": float(time)})
            self.markers += 1
        self.close()

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def entries(self) -> List[Dict]:
        """Read back every intact entry currently on disk."""
        _, entries = self._load()
        return entries

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
