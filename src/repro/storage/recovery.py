"""Crash recovery and scrubbing for journaled heap files.

:func:`recover` is the only sanctioned way to open a journaled heap
file (callers reach it through :meth:`HeapFile.durable`).  It restores
the invariant the write-ahead protocol promises: **every acknowledged
append is present, nothing else is** —

1. **Replay** the journal segments (:meth:`Journal.replay`), obtaining
   the last committed ``(count, fingerprint)``, the journal's retained
   append copies, and the latest evaluator checkpoint.
2. **Validate** the data file's committed *full* pages.  The journal's
   page-aligned retention base splits the file: pages below
   ``base // records_per_page`` hold only committed, never-again-
   rewritten records, so they must be present, full, and checksum-clean
   — a corrupt page there means acknowledged data is unrecoverable
   (:class:`~repro.exec.errors.RecoveryError`).  Pages at or above the
   split hold exactly the records the journal retains copies of, so
   whatever state a torn page write left them in is irrelevant.
3. **Rebuild** the tail: the records ``[base, committed)`` are
   rewritten from the journal copies as freshly sealed pages, the file
   is truncated after them (discarding uncommitted appends — they were
   never acknowledged), and the data file is fsynced.
4. **Verify end to end**: the chained relation fingerprint
   (:func:`~repro.relation.relation.fingerprint_rows`) is recomputed
   from a full scan of the repaired file and compared against the one
   the COMMIT record carried.  A mismatch — bytes that survived every
   CRC but are still wrong — raises ``RecoveryError`` rather than
   serving silently wrong rows.
5. **Re-arm**: a fresh journal segment is sealed over the recovered
   state (deleting the replayed segments), and the heap file is
   returned ready for new appends, with a :class:`RecoveryReport`
   attached as ``heap.last_recovery``.

:func:`scrub_data` / :func:`scrub_journal` are the read-only halves —
an fsck that reports page and journal health without repairing,
backing the ``python -m repro.storage scrub`` CLI.
"""

from __future__ import annotations

import os
import struct
from typing import List, Optional, Tuple

from repro.exec.errors import RecoveryError, StorageCorruption
from repro.metrics.counters import OperationCounters
from repro.relation.relation import fingerprint_rows
from repro.relation.schema import Schema
from repro.storage.codec import FixedWidthCodec
from repro.storage.heapfile import HeapFile
from repro.storage.journal import Journal, JournalState, data_open, journal_segments
from repro.storage.page import (
    PAGE_FOOTER_BYTES,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    Page,
    PageError,
)

__all__ = [
    "RecoveryReport",
    "ScrubReport",
    "recover",
    "journal_path_for",
    "scrub_data",
    "scrub_journal",
    "scrub",
]


def journal_path_for(path: str) -> str:
    """The journal name-stem for data file ``path``."""
    return path + ".journal"


class RecoveryReport:
    """What one recovery pass found and did."""

    __slots__ = (
        "path",
        "segments_replayed",
        "records_scanned",
        "committed_count",
        "committed_fingerprint",
        "epoch",
        "discarded_appends",
        "torn_tail",
        "rebuilt_records",
        "rebuilt_pages",
        "fingerprint_verified",
        "checkpoint",
        "statements",
    )

    def __init__(self, path: str) -> None:
        self.path = path
        #: Journal segment files replayed.
        self.segments_replayed = 0
        #: Complete journal records parsed.
        self.records_scanned = 0
        #: Appends restored (the acknowledged prefix).
        self.committed_count = 0
        #: Head of the chained fingerprint the last COMMIT acknowledged
        #: — the value replica divergence is diagnosed against.
        self.committed_fingerprint = 0
        #: Highest epoch any replayed segment header carried.
        self.epoch = 0
        #: Journaled appends past the last COMMIT, dropped.
        self.discarded_appends = 0
        #: Whether the journal ended in a torn record.
        self.torn_tail = False
        #: Records rewritten into the data file from journal copies.
        self.rebuilt_records = 0
        #: Pages those records were sealed into.
        self.rebuilt_pages = 0
        #: Whether the end-to-end fingerprint check ran and passed.
        self.fingerprint_verified = False
        #: Latest committed evaluator checkpoint payload, if any.
        self.checkpoint: Optional[bytes] = None
        #: Replayed exactly-once ledger entries ``(sid, version,
        #: row_count)``, restricted to the committed prefix.
        self.statements: List[Tuple[str, int, int]] = []

    def summary(self) -> str:
        return (
            f"recovered {self.path}: {self.committed_count} committed rows "
            f"across {self.segments_replayed} segment(s), "
            f"{self.discarded_appends} uncommitted discarded, "
            f"{self.rebuilt_records} rebuilt from journal"
            f"{' (torn tail cut)' if self.torn_tail else ''}, "
            f"fingerprint {'verified' if self.fingerprint_verified else 'UNVERIFIED'} "
            f"(head {self.committed_fingerprint:#x}), epoch {self.epoch}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoveryReport({self.summary()!r})"


def _read_full_page_records(
    path: str, page_id: int, codec: FixedWidthCodec, records_per_page: int
) -> List[bytes]:
    """The records of one committed full page, or raise RecoveryError."""
    with open(path, "rb") as handle:  # ta: ignore[TA009]
        handle.seek(page_id * PAGE_SIZE)
        raw = handle.read(PAGE_SIZE)
    if len(raw) != PAGE_SIZE:
        raise RecoveryError(
            f"data file {path} is missing committed page {page_id} — "
            "acknowledged rows are unrecoverable"
        )
    try:
        page = Page(codec.record_bytes, bytearray(raw))
    except PageError as exc:
        raise RecoveryError(
            f"committed page {page_id} of {path} is corrupt and below the "
            f"journal's retention base, so no copy exists: {exc}"
        ) from exc
    if page.record_count != records_per_page:
        raise RecoveryError(
            f"committed page {page_id} of {path} holds "
            f"{page.record_count} records where {records_per_page} were "
            "acknowledged — rows are missing"
        )
    return list(page.records())


def _rebuild_tail(
    path: str,
    first_page: int,
    records: List[bytes],
    record_bytes: int,
    records_per_page: int,
) -> int:
    """Seal ``records`` into pages from ``first_page`` on, truncate, fsync.

    Returns the number of pages written.
    """
    mode = "r+b" if os.path.exists(path) else "w+b"
    handle = data_open(path, mode)
    try:
        handle.seek(first_page * PAGE_SIZE)
        pages = 0
        for start in range(0, len(records), records_per_page):
            page = Page(record_bytes)
            for record in records[start : start + records_per_page]:
                page.append(record)
            handle.write(page.to_bytes())
            pages += 1
        handle.truncate((first_page + pages) * PAGE_SIZE)
        from repro.exec.faults import fsync_handle

        fsync_handle(handle)
        return pages
    finally:
        handle.close()


def recover(
    schema: Schema,
    path: str,
    *,
    buffer_pages: int = 64,
    fsync_policy: Optional[str] = None,
    counters: Optional[OperationCounters] = None,
) -> HeapFile:
    """Open the heap file at ``path`` crash-safely (see module docs).

    Raises :class:`~repro.exec.errors.StorageCorruption` when the
    journal itself is corrupt beyond a legitimate torn tail, and
    :class:`~repro.exec.errors.RecoveryError` when acknowledged rows
    cannot be restored or the restored rows fail the fingerprint check.
    """
    codec = FixedWidthCodec(schema)
    jpath = journal_path_for(path)
    report = RecoveryReport(path)
    records_per_page = (
        PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
    ) // codec.record_bytes

    segments = journal_segments(jpath)
    if not segments:
        return _adopt_unjournaled(
            schema, path, jpath, buffer_pages, fsync_policy, report
        )

    state = Journal.replay(jpath)
    report.segments_replayed = len(state.segments)
    report.records_scanned = state.records_scanned
    report.torn_tail = state.torn_tail
    committed = state.committed_count or 0
    fingerprint = state.committed_fingerprint or 0
    report.committed_count = committed
    report.committed_fingerprint = fingerprint
    report.epoch = state.epoch
    report.discarded_appends = max(0, state.logged_count - committed)
    report.checkpoint = state.checkpoint
    # Ledger entries past the committed prefix acknowledge rows that
    # never became durable; replaying them would let a retry dedup
    # against a batch the recovery just discarded.
    report.statements = [
        entry for entry in state.statements if entry[2] <= committed
    ]
    if counters is not None:
        counters.records_replayed += state.records_scanned

    if committed < state.base:
        raise RecoveryError(
            f"journal for {path} retains from append {state.base} but only "
            f"{committed} are committed — the journal is inconsistent",
            report=report,
        )

    # Committed full pages below the retention split must be intact.
    split_page = state.base // records_per_page
    rows: List[bytes] = []
    for page_id in range(split_page):
        rows.extend(
            _read_full_page_records(path, page_id, codec, records_per_page)
        )

    # Everything from the split on is rebuilt from journal copies.
    tail = state.appends[: committed - state.base]
    report.rebuilt_records = len(tail)
    report.rebuilt_pages = _rebuild_tail(
        path, split_page, tail, codec.record_bytes, records_per_page
    )
    rows.extend(tail)

    # End-to-end verification: the chained fingerprint over the restored
    # rows must equal the one the COMMIT acknowledged.
    check = fingerprint_rows(codec.decode(raw) for raw in rows)
    if check != fingerprint:
        raise RecoveryError(
            f"post-recovery fingerprint {check:#x} does not match the "
            f"committed fingerprint {fingerprint:#x} for {path} — the "
            "restored rows are not the acknowledged rows",
            report=report,
        )
    report.fingerprint_verified = True

    journal = Journal.resume(
        jpath, state, record_bytes=codec.record_bytes, fsync_policy=fsync_policy
    )
    heap = HeapFile(schema, path, buffer_pages=buffer_pages, journal=journal)
    if len(heap) != committed:
        raise RecoveryError(
            f"repaired data file holds {len(heap)} rows, expected "
            f"{committed}",
            report=report,
        )
    heap._fingerprint = fingerprint
    from repro.analysis import invariants  # deferred: avoid import cycle

    if invariants.invariants_enabled():
        invariants.verify_recovered_relation(
            heap.scan(), (codec.decode(raw) for raw in rows)
        )
    heap.flush()  # seal a fresh segment; drop the replayed ones
    heap.last_recovery = report
    return heap


def _adopt_unjournaled(
    schema: Schema,
    path: str,
    jpath: str,
    buffer_pages: int,
    fsync_policy: Optional[str],
    report: RecoveryReport,
) -> HeapFile:
    """First durable open: no journal exists yet (fresh or legacy file)."""
    codec = FixedWidthCodec(schema)
    journal = Journal(jpath, record_bytes=codec.record_bytes, fsync_policy=fsync_policy)
    heap = HeapFile(schema, path, buffer_pages=buffer_pages, journal=journal)
    # Pre-existing rows were never journaled; declare them logged so the
    # sealing flush below can commit them and re-log the partial tail
    # page, after which they are protected like any journaled append.
    journal.base = journal.record_count = len(heap)
    report.committed_count = len(heap)
    heap.flush()
    heap.last_recovery = report
    return heap


# ----------------------------------------------------------------------
# Scrubbing (read-only fsck)
# ----------------------------------------------------------------------


class ScrubReport:
    """Read-only health summary of a data file and its journal."""

    __slots__ = (
        "path",
        "pages_checked",
        "records_seen",
        "legacy_pages",
        "corrupt_pages",
        "trailing_bytes",
        "journal_segments",
        "journal_records",
        "journal_torn_tail",
        "journal_committed",
        "journal_fingerprint",
        "journal_epoch",
        "journal_statements",
        "errors",
    )

    def __init__(self, path: str) -> None:
        self.path = path
        self.pages_checked = 0
        self.records_seen = 0
        #: Version-0 pages (no checksum to verify).
        self.legacy_pages = 0
        #: ``(page_id, reason)`` for every page that failed validation.
        self.corrupt_pages: List[Tuple[int, str]] = []
        #: Bytes past the last whole page (a torn page write).
        self.trailing_bytes = 0
        self.journal_segments = 0
        self.journal_records = 0
        self.journal_torn_tail = False
        self.journal_committed: Optional[int] = None
        #: Chained-fingerprint head of the last COMMIT — comparing this
        #: across a primary and its replicas from the CLI is how
        #: replication divergence is diagnosed without a server.
        self.journal_fingerprint: Optional[int] = None
        #: Highest epoch any segment header carries.
        self.journal_epoch = 0
        #: Exactly-once ledger entries the journal retains.
        self.journal_statements = 0
        #: Journal-level corruption messages.
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.corrupt_pages and not self.errors

    def lines(self) -> List[str]:
        """Human-readable findings, one per line."""
        out = [
            f"{self.path}: {self.pages_checked} pages, "
            f"{self.records_seen} records"
            + (f", {self.legacy_pages} legacy (unchecksummed)" if self.legacy_pages else "")
        ]
        if self.trailing_bytes:
            out.append(
                f"  torn trailing write: {self.trailing_bytes} bytes past "
                "the last whole page"
            )
        for page_id, reason in self.corrupt_pages:
            out.append(f"  page {page_id}: {reason}")
        if self.journal_segments:
            out.append(
                f"  journal: {self.journal_segments} segment(s), "
                f"{self.journal_records} records, committed="
                f"{self.journal_committed}"
                + (" (torn tail)" if self.journal_torn_tail else "")
            )
            fingerprint = (
                f"{self.journal_fingerprint:#x}"
                if self.journal_fingerprint is not None
                else "(none)"
            )
            out.append(
                f"  journal head: fingerprint {fingerprint}, "
                f"epoch {self.journal_epoch}, "
                f"{self.journal_statements} ledger statement(s)"
            )
        for error in self.errors:
            out.append(f"  journal error: {error}")
        out.append("clean" if self.ok else "CORRUPT")
        return out


def _detect_record_bytes(raw: bytes) -> Optional[int]:
    """The record width the first page header declares, if plausible."""
    if len(raw) < PAGE_HEADER_BYTES:
        return None
    _count, width, _version = struct.unpack_from(">IHH", raw, 0)
    usable = PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
    return width if 0 < width <= usable else None


def scrub_data(path: str, record_bytes: Optional[int] = None) -> ScrubReport:
    """Verify every page of ``path`` without modifying anything."""
    report = ScrubReport(path)
    if not os.path.exists(path):
        report.errors.append(f"data file {path} does not exist")
        return report
    with open(path, "rb") as handle:  # ta: ignore[TA009]
        blob = handle.read()
    report.trailing_bytes = len(blob) % PAGE_SIZE
    pages = len(blob) // PAGE_SIZE
    if record_bytes is None and pages:
        record_bytes = _detect_record_bytes(blob[:PAGE_SIZE])
        if record_bytes is None:
            report.corrupt_pages.append((0, "unreadable page header"))
            return report
    for page_id in range(pages):
        raw = blob[page_id * PAGE_SIZE : (page_id + 1) * PAGE_SIZE]
        report.pages_checked += 1
        try:
            page = Page(int(record_bytes or 0), bytearray(raw))
        except PageError as exc:
            report.corrupt_pages.append((page_id, str(exc)))
            continue
        if page.version < 1:
            report.legacy_pages += 1
        report.records_seen += page.record_count
    return report


def scrub_journal(path: str, report: ScrubReport) -> None:
    """Verify the journal for data file ``path`` into ``report``."""
    jpath = journal_path_for(path)
    segments = journal_segments(jpath)
    report.journal_segments = len(segments)
    if not segments:
        return
    try:
        state = Journal.replay(jpath)
    except StorageCorruption as exc:
        report.errors.append(str(exc))
        return
    report.journal_records = state.records_scanned
    report.journal_torn_tail = state.torn_tail
    report.journal_committed = state.committed_count
    report.journal_fingerprint = state.committed_fingerprint
    report.journal_epoch = state.epoch
    report.journal_statements = len(state.statements)


def scrub(path: str, record_bytes: Optional[int] = None) -> ScrubReport:
    """Full read-only check: data pages plus journal."""
    report = scrub_data(path, record_bytes)
    scrub_journal(path, report)
    return report
