"""Write-ahead journal for heap-file appends and metadata mutations.

The durability protocol is classic WAL.  Before a tuple touches a data
page, its encoded record is journaled; an append is *acknowledged* only
once a COMMIT record naming it has been written (and synced, per
policy).  After a crash, :mod:`repro.storage.recovery` replays the
journal: appends at or below the last COMMIT are restored into the data
file, appends past it are discarded (never acknowledged, so nothing was
promised), and a torn tail — the partial record a power cut leaves at
the end of the live segment — is recognised by CRC and cut off.

Record format (big-endian), written in a **single** ``write`` call so a
torn write always tears *inside* one record::

    ====== ===== ==========================================
    offset bytes field
    ====== ===== ==========================================
    0      2     magic ``JOURNAL_MAGIC`` ("JR")
    2      1     record kind
    3      1     flags (reserved, 0)
    4      4     payload length
    8      4     CRC-32 of the payload
    12     —     payload
    ====== ===== ==========================================

Kinds:

``SEGMENT_HEADER``
    First record of every segment.  Payload ``>QHIxx``: the append
    index of the first APPEND this segment will carry (``base``), the
    record width (so scrub can validate APPEND lengths without the
    schema), and the **epoch** the writer held when it opened the
    segment.  The epoch is the replication fencing token
    (:mod:`repro.replicate`): a promoted replica bumps it, and a
    deposed primary's stale-epoch segments are diagnosable from scrub.
    Pre-epoch segments wrote zeros in these bytes, so they decode as
    epoch 0.
``APPEND``
    Payload is the raw fixed-width record, exactly the bytes the data
    page will hold.
``COMMIT``
    Payload ``>QQ``: total acknowledged append count and the chained
    relation fingerprint after that many appends
    (:func:`repro.relation.relation.fingerprint_rows`), giving recovery
    an end-to-end integrity check that is independent of both the
    journal CRCs and the page checksums.
``CHECKPOINT``
    Opaque evaluator state (:mod:`repro.storage.checkpoint`); recovery
    surfaces the latest one so a killed aggregation resumes instead of
    restarting.
``STATEMENT``
    Exactly-once bookkeeping for the replication layer.  Payload
    ``>QQ`` (relation version, row count after the statement) followed
    by the UTF-8 statement id.  Logged between a batch's APPENDs and
    its COMMIT, so replaying the journal (or shipping it to a replica)
    rebuilds the dedup ledger alongside the rows: a client retrying an
    acknowledged append after a failover receives its original
    ``(version, row_count)`` instead of a second application.

**Segments and rotation.**  The journal lives next to the data file as
``<path>.journal.NNNNNN``.  Once the data file has been synced
(:meth:`Journal.mark_durable`), journal copies of full, durable pages
are dead weight — but the *tail partial page* is rewritten in place by
later appends, and a torn rewrite there can destroy previously
committed records.  Rotation therefore retains from the page-aligned
base ``(committed // records_per_page) * records_per_page``: a fresh
segment is started, the committed records still on the partial tail
page are re-logged into it, a COMMIT seals it, and only then are the
old segments deleted.  Every committed byte is thus always recoverable
from data-file-plus-journal, with the journal bounded by one page of
records plus the un-rotated tail.

**Sanctioned file API.**  All storage-layer file I/O that mutates disk
must go through :func:`data_open` / :func:`scratch_open` /
:func:`scratch_unlink` (lint rule TA009 enforces this): they label the
handles for the fault-injection harness (:mod:`repro.exec.faults`), so
the crash matrix can kill the process at every write the storage layer
performs.

Environment knobs:

``REPRO_JOURNAL_FSYNC``
    ``always`` (sync every record), ``commit`` (sync at COMMIT — the
    default; an acknowledged append survives a crash), or ``never``
    (benchmark baseline; a crash may lose acknowledged appends).
``REPRO_JOURNAL_SEGMENT_BYTES``
    Soft segment-size target before :meth:`mark_durable` is advised
    (default 4 MiB).  Rotation only happens when the caller invokes it,
    keeping the write path free of hidden syncs.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

from repro.exec.errors import StorageCorruption
from repro.exec.faults import fsync_handle, wrap_handle
from repro.storage.codec import content_checksum

__all__ = [
    "JOURNAL_MAGIC",
    "SEGMENT_HEADER",
    "APPEND",
    "COMMIT",
    "CHECKPOINT",
    "STATEMENT",
    "encode_statement_payload",
    "decode_statement_payload",
    "Journal",
    "JournalStats",
    "JournalState",
    "data_open",
    "scratch_open",
    "scratch_unlink",
    "journal_segments",
]

#: ``"JR"`` — leads every journal record.
JOURNAL_MAGIC = 0x4A52

SEGMENT_HEADER = 1
APPEND = 2
COMMIT = 3
CHECKPOINT = 4
STATEMENT = 5

_KINDS = (SEGMENT_HEADER, APPEND, COMMIT, CHECKPOINT, STATEMENT)

_RECORD_HEADER = struct.Struct(">HBBII")
# base u64, record width u16, epoch u32, 2 pad bytes.  Pre-epoch
# writers packed ">QH6x" — six zero bytes — so their segments decode
# as epoch 0, which is exactly the "never replicated" epoch.
_SEGMENT_PAYLOAD = struct.Struct(">QHIxx")
_COMMIT_PAYLOAD = struct.Struct(">QQ")
_STATEMENT_PREFIX = struct.Struct(">QQ")


def encode_statement_payload(sid: str, version: int, row_count: int) -> bytes:
    """One STATEMENT record payload: dedup-ledger entry bytes."""
    return _STATEMENT_PREFIX.pack(version, row_count) + sid.encode("utf-8")


def decode_statement_payload(payload: bytes) -> Tuple[str, int, int]:
    """``(sid, version, row_count)`` from a STATEMENT payload."""
    if len(payload) < _STATEMENT_PREFIX.size:
        raise StorageCorruption(
            f"STATEMENT payload of {len(payload)} bytes is shorter than "
            f"its {_STATEMENT_PREFIX.size}-byte fixed prefix"
        )
    version, row_count = _STATEMENT_PREFIX.unpack_from(payload, 0)
    sid = payload[_STATEMENT_PREFIX.size :].decode("utf-8", errors="replace")
    return sid, version, row_count

#: Refuse to believe a single journal record payload above this — a
#: corrupt length field must not trigger a gigabyte allocation.
_MAX_PAYLOAD = 64 * 1024 * 1024

_FSYNC_POLICIES = ("always", "commit", "never")
_DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: STATEMENT entries re-logged across rotations: the durable dedup
#: window.  A client can only retry statements it still remembers, so
#: a few hundred per journal bounds the tail risk comfortably.
STATEMENT_RETENTION = 256


def _fsync_policy_from_env() -> str:
    policy = os.environ.get("REPRO_JOURNAL_FSYNC", "commit").strip().lower()
    return policy if policy in _FSYNC_POLICIES else "commit"


def _segment_bytes_from_env() -> int:
    raw = os.environ.get("REPRO_JOURNAL_SEGMENT_BYTES", "")
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_SEGMENT_BYTES
    return value if value > 0 else _DEFAULT_SEGMENT_BYTES


# ----------------------------------------------------------------------
# Sanctioned file primitives (the only direct opens in the storage layer)
# ----------------------------------------------------------------------


def data_open(path: str, mode: str) -> BinaryIO:
    """Open a heap-file data file, labelled ``"data"`` for fault injection."""
    return wrap_handle(open(path, mode), "data")  # ta: ignore[TA009]


def scratch_open(path: str, mode: str) -> BinaryIO:
    """Open a scratch file (sort runs, spills), labelled ``"scratch"``."""
    return wrap_handle(open(path, mode), "scratch")  # ta: ignore[TA009]


def scratch_unlink(path: str) -> None:
    """Remove a scratch file, tolerating its absence (cleanup paths)."""
    try:
        os.unlink(path)  # ta: ignore[TA009]
    except FileNotFoundError:
        pass


def _journal_open(path: str, mode: str) -> BinaryIO:
    return wrap_handle(open(path, mode), "journal")  # ta: ignore[TA009]


def journal_segments(path: str) -> List[str]:
    """Existing segment files for journal ``path``, in sequence order."""
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + "."
    found: List[Tuple[int, str]] = []
    if not os.path.isdir(directory):
        return []
    for entry in os.listdir(directory):
        if entry.startswith(prefix):
            suffix = entry[len(prefix) :]
            if suffix.isdigit():
                found.append((int(suffix), os.path.join(directory, entry)))
    found.sort()
    return [segment for _, segment in found]


# ----------------------------------------------------------------------
# Record encode / decode
# ----------------------------------------------------------------------


def encode_record(kind: int, payload: bytes) -> bytes:
    """One journal record as a single contiguous byte string."""
    if kind not in _KINDS:
        raise ValueError(f"unknown journal record kind {kind}")
    return (
        _RECORD_HEADER.pack(
            JOURNAL_MAGIC, kind, 0, len(payload), content_checksum(payload)
        )
        + payload
    )


def _parse_record(blob: bytes, offset: int) -> "Optional[Tuple[int, bytes, int]]":
    """``(kind, payload, next_offset)`` or None if bytes at ``offset``
    are not one complete, CRC-valid record."""
    end = len(blob)
    if offset + _RECORD_HEADER.size > end:
        return None
    magic, kind, _flags, length, crc = _RECORD_HEADER.unpack_from(blob, offset)
    if magic != JOURNAL_MAGIC or kind not in _KINDS or length > _MAX_PAYLOAD:
        return None
    start = offset + _RECORD_HEADER.size
    if start + length > end:
        return None
    payload = blob[start : start + length]
    if content_checksum(payload) != crc:
        return None
    return kind, payload, start + length


def _valid_record_after(blob: bytes, offset: int) -> bool:
    """Does any complete, CRC-valid record start at or after ``offset``?

    Distinguishes a torn tail (garbage, then nothing) from corruption in
    the middle of the log (garbage, then valid records — bit rot, not a
    crash, and must be refused rather than silently truncated).
    """
    probe = blob.find(struct.pack(">H", JOURNAL_MAGIC), offset)
    while probe != -1:
        if _parse_record(blob, probe) is not None:
            return True
        probe = blob.find(struct.pack(">H", JOURNAL_MAGIC), probe + 1)
    return False


class JournalStats:
    """Write-side activity counts for one journal."""

    __slots__ = (
        "records_written",
        "appends_logged",
        "commits",
        "checkpoints",
        "syncs",
        "rotations",
        "bytes_written",
    )

    def __init__(self) -> None:
        self.records_written = 0
        self.appends_logged = 0
        self.commits = 0
        self.checkpoints = 0
        self.syncs = 0
        self.rotations = 0
        self.bytes_written = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"JournalStats({parts})"


class JournalState:
    """What replay found: the recoverable suffix of the append history."""

    __slots__ = (
        "base",
        "appends",
        "committed_count",
        "committed_fingerprint",
        "checkpoint",
        "torn_tail",
        "records_scanned",
        "segments",
        "epoch",
        "statements",
    )

    def __init__(self) -> None:
        #: Append index of ``appends[0]`` (page-aligned retention base).
        self.base = 0
        #: Raw record bytes for appends ``base, base+1, …`` in order.
        self.appends: List[bytes] = []
        #: Last committed append count, or None if no COMMIT survived.
        self.committed_count: Optional[int] = None
        #: Fingerprint chained over the first ``committed_count`` appends.
        self.committed_fingerprint: Optional[int] = None
        #: Latest CHECKPOINT payload that survived (validated at resume).
        self.checkpoint: Optional[bytes] = None
        #: True when the final segment ended in a torn record.
        self.torn_tail = False
        #: Complete records parsed across all segments.
        self.records_scanned = 0
        #: Segment paths that were replayed, in order.
        self.segments: List[str] = []
        #: Highest epoch any surviving segment header carries.
        self.epoch = 0
        #: Replayed ``(sid, version, row_count)`` dedup-ledger entries,
        #: in log order (the replication layer filters to committed).
        self.statements: List[Tuple[str, int, int]] = []

    @property
    def logged_count(self) -> int:
        """Total appends the journal has copies of (committed or not)."""
        return self.base + len(self.appends)


class Journal:
    """Append-only, segmented write-ahead journal for one heap file."""

    def __init__(
        self,
        path: str,
        *,
        record_bytes: int,
        fsync_policy: Optional[str] = None,
        segment_bytes: Optional[int] = None,
        epoch: int = 0,
    ) -> None:
        if fsync_policy is not None and fsync_policy not in _FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync_policy!r}; known: "
                f"{', '.join(_FSYNC_POLICIES)}"
            )
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.path = path
        self.record_bytes = record_bytes
        self.fsync_policy = fsync_policy or _fsync_policy_from_env()
        self.segment_bytes = segment_bytes or _segment_bytes_from_env()
        #: Fencing token stamped into every segment header this journal
        #: opens.  Bumped by replica promotion (:meth:`bump_epoch`).
        self.epoch = epoch
        #: Recent ``(sid, version, row_count)`` entries, re-logged into
        #: every rotation segment so the dedup window survives space
        #: reclamation (bounded by :data:`STATEMENT_RETENTION`).
        self._statements: List[Tuple[str, int, int]] = []
        self.stats = JournalStats()
        self._handle: Optional[BinaryIO] = None
        self._segment_path: Optional[str] = None
        self._segment_seq = 0
        self._segment_size = 0
        #: Total appends logged (base + records in live segments).
        self.record_count = 0
        #: Append index of the first journaled record still retained.
        self.base = 0
        self.committed_count = 0
        self.committed_fingerprint = 0
        existing = journal_segments(path)
        if existing:
            last = os.path.basename(existing[-1])
            self._segment_seq = int(last.rsplit(".", 1)[1])

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def _open_segment(self, base: int) -> None:
        self._segment_seq += 1
        self._segment_path = f"{self.path}.{self._segment_seq:06d}"
        self._handle = _journal_open(self._segment_path, "wb")
        self._segment_size = 0
        self._write_record(
            SEGMENT_HEADER,
            _SEGMENT_PAYLOAD.pack(base, self.record_bytes, self.epoch),
        )

    def _ensure_segment(self) -> None:
        if self._handle is None:
            # A fresh segment continues the append history: its header
            # names the index of the first APPEND it will carry.  (Not
            # ``self.base`` — after a resume that would masquerade as an
            # unsealed rotation and replay would ignore the segment.)
            self._open_segment(self.record_count)

    def _write_record(self, kind: int, payload: bytes) -> None:
        assert self._handle is not None
        blob = encode_record(kind, payload)
        self._handle.write(blob)
        self._segment_size += len(blob)
        self.stats.records_written += 1
        self.stats.bytes_written += len(blob)
        if self.fsync_policy == "always":
            self.sync()

    def sync(self) -> None:
        """Force journaled records to stable storage."""
        if self._handle is not None:
            fsync_handle(self._handle)
            self.stats.syncs += 1

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def log_append(self, record: bytes) -> int:
        """Journal one encoded tuple; returns its append index.

        Must be called **before** the record touches a data page — that
        ordering *is* the write-ahead property.
        """
        if len(record) != self.record_bytes:
            raise ValueError(
                f"journal expects {self.record_bytes}-byte records, "
                f"got {len(record)}"
            )
        self._ensure_segment()
        index = self.record_count
        self._write_record(APPEND, record)
        self.record_count += 1
        self.stats.appends_logged += 1
        return index

    def commit(self, count: int, fingerprint: int) -> None:
        """Acknowledge every append below ``count``.

        Once this returns (under the default ``commit`` fsync policy),
        those appends survive any crash: they are on stable journal
        storage even if the data pages never made it.
        """
        if count > self.record_count:
            raise ValueError(
                f"cannot commit {count} appends; only {self.record_count} logged"
            )
        self._ensure_segment()
        self._write_record(COMMIT, _COMMIT_PAYLOAD.pack(count, fingerprint))
        if self.fsync_policy == "commit":
            self.sync()
        self.committed_count = count
        self.committed_fingerprint = fingerprint
        self.stats.commits += 1

    def log_checkpoint(self, payload: bytes) -> None:
        """Journal an opaque evaluator checkpoint."""
        self._ensure_segment()
        self._write_record(CHECKPOINT, payload)
        if self.fsync_policy in ("always", "commit"):
            self.sync()
        self.stats.checkpoints += 1

    def log_statement(self, sid: str, version: int, row_count: int) -> None:
        """Journal one exactly-once dedup-ledger entry.

        Called between a batch's APPENDs and its COMMIT so the ledger
        entry becomes durable (and ships to replicas) atomically with
        the rows it acknowledges: the sealing COMMIT covers both.
        """
        self._ensure_segment()
        self._write_record(
            STATEMENT, encode_statement_payload(sid, version, row_count)
        )
        self._statements.append((sid, version, row_count))
        del self._statements[:-STATEMENT_RETENTION]

    def recent_statements(self) -> List[Tuple[str, int, int]]:
        """The retained dedup-ledger entries, oldest first.

        What the shipper sends a bootstrapping replica so its dedup
        window matches the primary's durable one.
        """
        return list(self._statements)

    def bump_epoch(self, epoch: int) -> None:
        """Seal the live segment and continue under a higher epoch.

        Replica promotion: the journal is sealed at the last committed
        record (a fresh segment re-asserts the committed count and
        fingerprint under the new epoch, synced before this returns),
        and every record written from here on carries ``epoch``.  A
        deposed primary's journal keeps its old epoch, which is what
        makes its resurrection diagnosable from scrub.
        """
        if epoch <= self.epoch:
            raise ValueError(
                f"epoch must move forward: {epoch} <= current {self.epoch}"
            )
        old_handle = self._handle
        self._handle = None
        self.epoch = epoch
        self._open_segment(self.record_count)
        self._write_record(
            COMMIT,
            _COMMIT_PAYLOAD.pack(self.committed_count, self.committed_fingerprint),
        )
        self.sync()
        if old_handle is not None:
            old_handle.close()

    @property
    def should_rotate(self) -> bool:
        """Has the live segment outgrown the configured soft target?"""
        return self._segment_size >= self.segment_bytes

    def mark_durable(
        self,
        committed_count: int,
        fingerprint: int,
        records_per_page: int,
        tail_records: Sequence[bytes],
    ) -> None:
        """Reclaim journal space after the data file has been synced.

        The caller asserts that the first ``committed_count`` records
        are durable in the data file.  Retention restarts at the
        page-aligned base — full pages are immutable once written, but
        the partial tail page will be rewritten in place by future
        appends, so its ``tail_records`` (exactly the committed records
        from that base) are re-logged into the fresh segment before the
        old segments are deleted.  A crash anywhere inside this method
        leaves either the old segments or the new complete one; never
        neither.
        """
        base = (committed_count // records_per_page) * records_per_page
        expected_tail = committed_count - base
        if len(tail_records) != expected_tail:
            raise ValueError(
                f"rotation needs the {expected_tail} committed tail records "
                f"from index {base}, got {len(tail_records)}"
            )
        old_handle = self._handle
        old_segments = journal_segments(self.path)
        self._open_segment(base)
        for record in tail_records:
            self._write_record(APPEND, record)
        for sid, version, row_count in self._statements:
            self._write_record(
                STATEMENT, encode_statement_payload(sid, version, row_count)
            )
        self._write_record(
            COMMIT, _COMMIT_PAYLOAD.pack(committed_count, fingerprint)
        )
        self.sync()
        if old_handle is not None:
            old_handle.close()
        for segment in old_segments:
            if segment != self._segment_path:
                os.unlink(segment)  # ta: ignore[TA009]
        self.base = base
        self.record_count = committed_count
        self.committed_count = committed_count
        self.committed_fingerprint = fingerprint
        self.stats.rotations += 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_segment(
        segment: str, *, is_last: bool
    ) -> "Tuple[List[Tuple[int, bytes]], bool]":
        """All complete records of one segment, plus a torn-tail flag.

        Raises :class:`~repro.exec.errors.StorageCorruption` when a
        record fails its CRC *and* valid records follow it (bit rot in
        the middle of the log, which no crash produces) or when the
        failure is in a non-final segment; a failure at the very end of
        the last segment is the legitimate torn tail and merely
        truncates.
        """
        with open(segment, "rb") as handle:  # ta: ignore[TA009]
            blob = handle.read()
        records: List[Tuple[int, bytes]] = []
        offset = 0
        while offset < len(blob):
            parsed = _parse_record(blob, offset)
            if parsed is None:
                if not is_last or _valid_record_after(blob, offset + 1):
                    raise StorageCorruption(
                        f"journal record at offset {offset} of {segment} "
                        "failed its CRC with valid records beyond it — "
                        "the journal is corrupt, not torn",
                        path=segment,
                    )
                return records, True
            kind, payload, offset = parsed
            records.append((kind, payload))
        return records, False

    @staticmethod
    def replay(path: str) -> JournalState:
        """Reconstruct the append history from every surviving segment.

        A segment whose header rewinds the append index below what the
        prior segments already cover is a *rotation* segment; it becomes
        authoritative only if it reached its sealing COMMIT — a rotation
        the crash interrupted earlier is ignored, because the old
        segments it was about to replace are still intact and complete.
        """
        state = JournalState()
        segments = journal_segments(path)
        state.segments = segments
        first = True
        for position, segment in enumerate(segments):
            records, torn = Journal._parse_segment(
                segment, is_last=position == len(segments) - 1
            )
            if torn:
                state.torn_tail = True
            if not records:
                continue
            kind, payload = records[0]
            if kind != SEGMENT_HEADER:
                raise StorageCorruption(
                    f"segment {segment} does not start with a header",
                    path=segment,
                )
            base, _width, segment_epoch = _SEGMENT_PAYLOAD.unpack(payload)
            state.epoch = max(state.epoch, segment_epoch)
            expected = base if first else state.base + len(state.appends)
            if base > expected:
                raise StorageCorruption(
                    f"segment {segment} starts at append {base} but only "
                    f"{expected} appends precede it — a journal segment "
                    "is missing",
                    path=segment,
                )
            if base < expected:
                # Rotation: this segment re-logs committed records the
                # old segments already hold.  Adopt it only if it was
                # sealed; an unsealed rotation means the crash hit
                # before the old segments became deletable, so they are
                # still the authoritative copy.
                if not any(k == COMMIT for k, _ in records[1:]):
                    continue
                if base <= state.base:
                    state.base = base
                    state.appends = []
                else:
                    del state.appends[base - state.base :]
            elif first:
                state.base = base
            first = False
            for kind, payload in records[1:]:
                state.records_scanned += 1
                if kind == SEGMENT_HEADER:
                    raise StorageCorruption(
                        f"duplicate segment header in {segment}",
                        path=segment,
                    )
                if kind == APPEND:
                    state.appends.append(payload)
                elif kind == COMMIT:
                    count, fingerprint = _COMMIT_PAYLOAD.unpack(payload)
                    state.committed_count = count
                    state.committed_fingerprint = fingerprint
                elif kind == STATEMENT:
                    state.statements.append(decode_statement_payload(payload))
                else:  # CHECKPOINT — the latest one wins; resume-time
                    # validation guards against rows it references that
                    # never became durable.
                    state.checkpoint = payload
            state.records_scanned += 1  # the header itself
        return state

    @classmethod
    def resume(
        cls,
        path: str,
        state: JournalState,
        *,
        record_bytes: int,
        fsync_policy: Optional[str] = None,
        segment_bytes: Optional[int] = None,
    ) -> "Journal":
        """Re-arm a journal whose history ``state`` was just replayed.

        Only :mod:`repro.storage.recovery` should call this: a journal
        with existing segments must be replayed (and the data file
        reconciled) before new records may be appended, or the append
        indexes would restart from zero and corrupt the history.
        """
        journal = cls(
            path,
            record_bytes=record_bytes,
            fsync_policy=fsync_policy,
            segment_bytes=segment_bytes,
            epoch=state.epoch,
        )
        journal.base = state.base
        journal.record_count = state.logged_count
        journal.committed_count = state.committed_count or 0
        journal.committed_fingerprint = state.committed_fingerprint or 0
        journal._statements = list(state.statements[-STATEMENT_RETENTION:])
        return journal

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
