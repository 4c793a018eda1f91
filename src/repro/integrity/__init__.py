"""State-integrity subsystem: trusted persistence for every stateful layer.

Every crash-safe store in the reproduction is one
:class:`~repro.serving.journal.RunJournal` with its own header: the
serving outcome journal, the burn-rate alert journal, the fleet
checkpoint/failover journal (plain, hedged and cascade runs write
different record types into it), the batch scheduler's decision journal
and the traffic recorder's cursor sidecar.  All of them promise
*byte-identical resume* and end a run the same way (``finish()`` refuses
a journal longer than the replay, ``crash(time)`` leaves a durable
marker).  A torn write, a stale checkpoint replayed after a failover, or
a silently flipped byte must not be consumed without complaint; this
package defends the promise at runtime:

* :mod:`~repro.integrity.record` — a versioned, per-record checksummed
  envelope format shared by every journal, the sha1 ``fingerprint``
  every journal header binds its run by, plus a recovery scanner that
  detects torn tails and mid-file corruption, truncates to the last valid
  prefix, quarantines the bad bytes to a sidecar file and reports a typed
  :class:`~repro.integrity.record.RecoveryReport`.
* :mod:`~repro.integrity.fencing` — epoch/generation fencing so that
  after a failover, journal writes stamped with a stale device generation
  are *rejected* instead of interleaved with the migrated replica's
  writes (the classic split-brain window).
* :mod:`~repro.integrity.invariants` — cheap runtime invariant probes
  (SMX occupancy bounds, queue/byte conservation, monotone clocks, power
  accounting) raising :class:`~repro.integrity.invariants.
  IntegrityViolation` with full context instead of letting model drift
  surface as wrong benchmark numbers.
* :mod:`~repro.integrity.crashfuzz` — a deterministic crash-point fuzzing
  harness that kills a journaled run at every byte boundary (and flips
  bytes) and asserts that resume is byte-identical or cleanly truncated.

Layering: the package sits beside :mod:`repro.resilience`, directly on
:mod:`repro.sim`; the stateful layers above (serving, fleet, scheduling,
workload) consume it, nothing below imports it.  See ``docs/integrity.md``.
"""

from .record import (
    ENVELOPE_PREFIX,
    ENVELOPE_VERSION,
    MARKER_KEY,
    JournalIntegrityError,
    RecordCorruption,
    RecoveryReport,
    UnknownJournalFormat,
    decode_line,
    encode_line,
    clock_regressions,
    fingerprint,
    recover_file,
    scan_file,
    sniff_format,
)
from .fencing import (
    FencedJournal,
    FenceToken,
    GenerationFence,
    StaleGenerationError,
)
from .invariants import (
    IntegrityViolation,
    InvariantChecker,
    attach_device_invariants,
    attach_environment_invariants,
)
from .crashfuzz import (
    CrashSite,
    SweepReport,
    enumerate_flips,
    enumerate_truncations,
    mutate,
    run_crash_sweep,
)

__all__ = [
    "ENVELOPE_PREFIX",
    "ENVELOPE_VERSION",
    "MARKER_KEY",
    "CrashSite",
    "FencedJournal",
    "FenceToken",
    "GenerationFence",
    "IntegrityViolation",
    "InvariantChecker",
    "JournalIntegrityError",
    "RecordCorruption",
    "RecoveryReport",
    "StaleGenerationError",
    "SweepReport",
    "UnknownJournalFormat",
    "attach_device_invariants",
    "attach_environment_invariants",
    "clock_regressions",
    "decode_line",
    "encode_line",
    "enumerate_flips",
    "enumerate_truncations",
    "fingerprint",
    "mutate",
    "recover_file",
    "run_crash_sweep",
    "scan_file",
    "sniff_format",
]
