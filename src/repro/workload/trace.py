"""Replayable, checksummed traffic traces with crash-resume cursors.

A trace file is an :mod:`repro.integrity.record` envelope journal (the
``I1`` format every other journal in the repo uses): one header record
naming the format and the generating scenario's fingerprint, then one
compact record per arrival::

    I1 00000000 <crc> {"fingerprint": "...", "format": "repro-traffic-trace", ...}
    I1 00000001 <crc> {"a": "nn", "c": "interactive", "d": 0.012, "i": 0, "t": 0.003, "u": 41}

Arrival payload keys are single letters to keep million-request traces
small: ``i`` index, ``t`` arrival time, ``a`` app type, and (only when
non-default) ``c`` tenant class, ``u`` sub-tenant id, ``d`` absolute
deadline, ``p`` priority.  JSON floats round-trip exactly, so a recorded
trace re-streams **byte-identical** arrivals to inline generation — the
equivalence :mod:`tests.workload` pins end-to-end on serving journals.

**Recording is crash-safe** via a cursor sidecar, a
:class:`~repro.serving.journal.RunJournal` with the
:data:`CURSOR_FORMAT` header: every ``cursor_every`` arrivals the trace
file is fsynced and one cursor record — arrival count, byte offset, the
generator's O(1) :meth:`~repro.workload.tenants.TrafficStream.state` —
is durably appended.  :func:`record_trace` with ``resume=True`` then
restores the newest usable cursor (truncating any torn trace tail past
it), fast-forwards the journal past the cursors it skips, and continues
generating, never replaying or skipping an arrival; when the trace
prefix itself is unusable it falls back to full regeneration with every
surviving cursor record replay-verified.  Either way the finished files
are byte-identical to an uninterrupted recording's, and the sidecar
ends like every journal: :meth:`~repro.serving.journal.RunJournal.finish`
after the terminal ``end`` record, or a crash marker when the recording
dies.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, Optional

from ..serving import Arrival
from ..integrity.record import (
    JournalIntegrityError,
    decode_line,
    encode_line,
    fsync_dir,
)
from ..serving.journal import JournalError, RunJournal
from ..sim.errors import HarnessCrash

__all__ = [
    "TRACE_FORMAT",
    "CURSOR_FORMAT",
    "TraceError",
    "TraceReader",
    "arrival_payload",
    "payload_arrival",
    "read_trace",
    "record_trace",
]

TRACE_FORMAT = "repro-traffic-trace"
CURSOR_FORMAT = "repro-traffic-cursor"
TRACE_VERSION = 1

#: Default arrivals between cursor checkpoints (and trace fsyncs).
DEFAULT_CURSOR_EVERY = 256


class TraceError(JournalError):
    """A trace file failed validation (format, checksum, fingerprint)."""


def arrival_payload(arrival: Arrival) -> Dict:
    """One arrival -> its compact trace payload (defaults omitted)."""
    payload: Dict = {
        "i": arrival.index,
        "t": arrival.time,
        "a": arrival.type_name,
    }
    if arrival.tenant:
        payload["c"] = arrival.tenant
        payload["u"] = arrival.tenant_id
    if arrival.deadline:
        payload["d"] = arrival.deadline
    if arrival.priority:
        payload["p"] = arrival.priority
    return payload


def payload_arrival(payload: Dict) -> Arrival:
    """Inverse of :func:`arrival_payload`."""
    return Arrival(
        index=int(payload["i"]),
        time=float(payload["t"]),
        type_name=payload["a"],
        tenant=payload.get("c", ""),
        tenant_id=int(payload.get("u", 0)),
        deadline=float(payload.get("d", 0.0)),
        priority=int(payload.get("p", 0)),
    )


class TraceReader:
    """Streaming reader: header eagerly validated, arrivals lazily decoded.

    Iterating yields :class:`~repro.serving.Arrival` objects;
    every line's checksum and sequence number is verified on the way
    through (corruption raises :class:`TraceError` at the offending
    line, not garbage arrivals downstream).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        first = self._fh.readline()
        if not first:
            self._fh.close()
            raise TraceError(f"{self.path} is empty")
        try:
            header = decode_line(first.rstrip(b"\n"), expected_seq=0)
        except JournalIntegrityError as exc:
            self._fh.close()
            raise TraceError(f"{self.path}: corrupt trace header ({exc})") from None
        if header.get("format") != TRACE_FORMAT:
            self._fh.close()
            raise TraceError(
                f"{self.path} is not a traffic trace "
                f"(format {header.get('format')!r})"
            )
        self.header = header
        self.fingerprint = header.get("fingerprint")
        self._next_seq = 1

    def __iter__(self) -> Iterator[Arrival]:
        return self

    def __next__(self) -> Arrival:
        if self._fh is None:
            raise StopIteration
        raw = self._fh.readline()
        if not raw:
            self.close()
            raise StopIteration
        try:
            payload = decode_line(raw.rstrip(b"\n"), expected_seq=self._next_seq)
        except JournalIntegrityError as exc:
            self.close()
            raise TraceError(
                f"{self.path}: corrupt trace record "
                f"{self._next_seq} ({exc})"
            ) from None
        self._next_seq += 1
        return payload_arrival(payload)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path) -> TraceReader:
    """Open a recorded trace for streaming replay."""
    return TraceReader(path)


def _trace_prefix_valid(path: Path, offset: int, fingerprint: str) -> bool:
    """Whether ``path``'s first ``offset`` bytes are a valid trace prefix."""
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size < offset or offset <= 0:
        return False
    with open(path, "rb") as fh:
        data = fh.read(offset)
    if len(data) < offset or not data.endswith(b"\n"):
        return False
    for seq, raw in enumerate(data[:-1].split(b"\n")):
        try:
            payload = decode_line(raw, expected_seq=seq)
        except JournalIntegrityError:
            return False
        if seq == 0 and (
            payload.get("format") != TRACE_FORMAT
            or payload.get("fingerprint") != fingerprint
        ):
            return False
    return True


def record_trace(
    stream,
    path,
    fingerprint: str,
    *,
    cursor_path=None,
    cursor_every: int = DEFAULT_CURSOR_EVERY,
    resume: bool = False,
    crash_after_cursors: Optional[int] = None,
) -> int:
    """Drive ``stream`` to exhaustion, recording every arrival to ``path``.

    ``stream`` is any arrival iterator; cursor checkpoints additionally
    require the :meth:`state`/:meth:`restore` surface of
    :class:`~repro.workload.tenants.TrafficStream`.  Trace writes are
    buffered and fsynced at each checkpoint (and at the end), cursor
    records are fsynced individually — so after a crash the newest
    durable cursor always points into an intact trace prefix.

    ``resume=True`` recovers a crashed recording (see module docstring).
    ``crash_after_cursors=N`` kills the recording (with
    :class:`~repro.sim.errors.HarnessCrash`) right after the Nth
    checkpoint commits — the deterministic test hook mirroring the fault
    plan's ``HARNESS_CRASH``.  Returns the number of arrivals recorded.
    """
    if cursor_every < 1:
        raise ValueError("cursor_every must be >= 1")
    if resume and cursor_path is None:
        raise ValueError("resume=True requires a cursor_path")
    path = Path(path)

    cursors: Optional[RunJournal] = None
    count = 0
    fresh_trace = True
    if cursor_path is not None:
        cursors = RunJournal(
            cursor_path, format=CURSOR_FORMAT, version=TRACE_VERSION
        )
        if cursors.begin(fingerprint, resume=resume):
            entries = cursors.entries()
            # Newest checkpoint that is a resume point (the terminal
            # ``end`` record carries no offset/state and never is).
            idx = None
            for j in range(len(entries) - 1, -1, -1):
                if "off" in entries[j] and "state" in entries[j]:
                    idx = j
                    break
            if idx is not None and _trace_prefix_valid(
                path, int(entries[idx]["off"]), fingerprint
            ):
                # Fast path: truncate any torn tail past the checkpoint
                # and resume generation exactly where the cursor left it.
                # Records past the chosen cursor (only ever the ``end``
                # marker) stay pending for replay verification.
                newest = entries[idx]
                with open(path, "rb+") as fh:
                    fh.truncate(int(newest["off"]))
                    fh.flush()
                    os.fsync(fh.fileno())
                stream.restore(newest["state"])
                count = int(newest["i"])
                cursors.fast_forward(idx + 1)
                fresh_trace = False
            # Otherwise: fall through to full regeneration; the surviving
            # cursor records stay queued for replay verification.

    mode = "ab" if not fresh_trace else "wb"
    fh = open(path, mode)
    try:
        if fresh_trace:
            fh.write(
                encode_line(
                    {
                        "format": TRACE_FORMAT,
                        "version": TRACE_VERSION,
                        "fingerprint": fingerprint,
                    },
                    0,
                ).encode("utf-8")
            )
        checkpoints = 0
        for arrival in stream:
            fh.write(
                encode_line(arrival_payload(arrival), count + 1).encode("utf-8")
            )
            count += 1
            last_time = arrival.time
            if cursors is not None and count % cursor_every == 0:
                fh.flush()
                os.fsync(fh.fileno())
                cursors.record(
                    {
                        "i": count,
                        "t": last_time,
                        "off": fh.tell(),
                        "state": stream.state(),
                    }
                )
                checkpoints += 1
                if (
                    crash_after_cursors is not None
                    and checkpoints >= crash_after_cursors
                ):
                    raise HarnessCrash(last_time)
        fh.flush()
        os.fsync(fh.fileno())
        fsync_dir(path)
        if cursors is not None:
            cursors.record({"i": count, "end": True})
            cursors.finish()
    except HarnessCrash as crash:
        if cursors is not None:
            cursors.crash(crash.time)
        raise
    finally:
        fh.close()
        if cursors is not None:
            cursors.close()
    return count
