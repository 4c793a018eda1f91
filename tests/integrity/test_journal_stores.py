"""Every journaled store: pinned bytes and one end-of-run contract.

The seven stores of :data:`STORE_BUILDERS` are all
:class:`~repro.serving.journal.RunJournal` files.  Their reference
journals (and the trace the traffic recorder writes beside its cursor
journal) are pinned by sha1, so a refactor of the journal code must not
move a byte on disk.  And every store refuses a resume that is shorter
than its journal.
"""

import hashlib

import pytest

from repro.integrity.record import decode_line, encode_line
from repro.serving import JournalMismatchError

from .conftest import STORE_BUILDERS

pytestmark = pytest.mark.integrity

#: sha1 of each store's reference journal at tiny scale.
JOURNAL_SHA1 = {
    "alerts": "0e92303d70b6c9824c3805336cd23d51b1da173d",
    "cascade": "1818e707cad43336221deb4e05ab78ce67386649",
    "fleet": "79e6258119b252ae470f575afc2afbcc6a2fe654",
    "hedge": "0a770bc8e601f47df41700ee196c161d989d2e00",
    "scheduler": "32a560fcb94619bd5f8a11e78ded0a9ccae1b578",
    "serving": "cc237213070ac9227a678666b8ad7c15da320c28",
    "traffic-cursor": "d520db5ef026c4db84e00a4b67f9154405ecedef",
}
#: sha1 of the trace file the traffic-cursor store records.
TRACE_SHA1 = "ab81abc60dba1f1fcbe2198314290aace8ecff46"


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@pytest.mark.parametrize("name", sorted(STORE_BUILDERS))
def test_reference_journal_pinned(name, tmp_path, monkeypatch):
    # The serving stores size their apps from REPRO_SCALE.
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    store = STORE_BUILDERS[name](tmp_path)
    assert sha1(store.reference) == JOURNAL_SHA1[name]
    if name == "traffic-cursor":
        trace = tmp_path / "traffic-cursor-ref.jsonl.trace"
        assert sha1(trace.read_bytes()) == TRACE_SHA1


def test_resume_shorter_than_journal_refused(store, tmp_path):
    """A journal with one entry more than the run re-emits is refused."""
    lines = store.reference.splitlines()
    last = decode_line(lines[-1], expected_seq=len(lines) - 1)
    path = tmp_path / "longer.jsonl"
    path.write_bytes(
        store.reference + encode_line(last, len(lines)).encode("utf-8")
    )
    with pytest.raises(JournalMismatchError, match="longer run"):
        store.resume(path)
