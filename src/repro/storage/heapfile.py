"""Heap files: append-only paged storage for one temporal relation.

A :class:`HeapFile` stores fixed-width records (one per tuple, encoded
by :class:`~repro.storage.codec.FixedWidthCodec`) in page order.  At
the paper's 128-byte tuples, the Table 3 relation sizes — 1K tuples =
128 KB up to 64K tuples = 8 MB — map to 17 … 1041 pages.

The scan methods perform the *single segmented scan* all of the
paper's algorithms rely on: pages are fetched in order through the
buffer manager (counting I/O) and each record is decoded into a
tuple or a time-only triple.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple

from repro.core.columns import ColumnSet
from repro.relation.relation import (
    RelationStatistics,
    TemporalRelation,
    fingerprint_rows,
    next_relation_uid,
    statistics_from_columns,
)
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.storage.buffer import BufferManager
from repro.storage.codec import FixedWidthCodec
from repro.storage.journal import Journal, data_open, scratch_open

__all__ = ["HeapFile"]


class HeapFile:
    """An append-only paged file of fixed-width temporal tuples."""

    def __init__(
        self,
        schema: Schema,
        path: Optional[str] = None,
        buffer_pages: int = 64,
        journal: Optional[Journal] = None,
        io_tag: str = "data",
    ) -> None:
        """Open (creating if needed) a heap file.

        ``path=None`` keeps the file in memory (a ``BytesIO``), which
        tests and small examples use; benchmarks pass real paths.
        ``io_tag`` labels the handle for fault injection — ``"data"``
        for relations, ``"scratch"`` for sort runs and spills.

        With a ``journal`` attached, every append is write-ahead logged
        before its page is touched and :meth:`commit`/:meth:`flush`
        provide the acknowledgement points crash recovery honors.  Use
        :meth:`durable` rather than wiring a journal by hand — it runs
        recovery first, which a journal with surviving segments
        requires.
        """
        self.schema = schema
        self.codec = FixedWidthCodec(schema)
        self.path = path
        if path is None:
            self._handle: BinaryIO = io.BytesIO()
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
            opener = scratch_open if io_tag == "scratch" else data_open
            self._handle = opener(path, mode)
        self.journal = journal
        self.buffer = BufferManager(
            self._handle, self.codec.record_bytes, capacity=buffer_pages
        )
        self._tuple_count = self._count_existing()
        pages = self.buffer.page_count()
        self._tail_page_id: Optional[int] = pages - 1 if pages else None
        self.uid = next_relation_uid()
        #: Mutation counter mirroring :class:`TemporalRelation.version`:
        #: appends bump it, and code that rewrites pages in place must
        #: call :meth:`mark_mutated`.  Statistics cache by version, not
        #: tuple count, so an equal-cardinality rewrite still invalidates.
        self.version = 0
        self._statistics_cache: Optional[Tuple[int, RelationStatistics]] = None
        #: Version-keyed flat-column snapshots, one per attribute (None
        #: = timestamps only); any mutation invalidates by version.
        self._columns_cache: dict = {}
        #: Chained order-sensitive fingerprint over every stored row,
        #: maintained per append when journaled (COMMIT records carry
        #: it; recovery re-derives and compares it end to end).
        self._fingerprint = 0
        if journal is not None and self._tuple_count:
            self._fingerprint = fingerprint_rows(self.scan())
        #: Set by :func:`repro.storage.recovery.recover` on durable opens.
        self.last_recovery: Optional[Any] = None

    def _count_existing(self) -> int:
        pages = self.buffer.page_count()
        total = 0
        for page_id in range(pages):
            total += self.buffer.get(page_id).record_count
        return total

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._tuple_count

    @property
    def page_count(self) -> int:
        return self.buffer.page_count()

    @property
    def records_per_page(self) -> int:
        from repro.storage.page import PAGE_FOOTER_BYTES, PAGE_HEADER_BYTES, PAGE_SIZE

        return (
            PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
        ) // self.codec.record_bytes

    @property
    def fingerprint(self) -> int:
        """Chained fingerprint over every stored row (journaled mode)."""
        return self._fingerprint

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, row: TemporalTuple) -> None:
        """Encode and store one tuple at the end of the file."""
        self.append_record(self.codec.encode(row), row)

    def append_record(self, record: bytes, row: TemporalTuple) -> None:
        """Store one tuple whose record a caller already holds.

        ``record`` is ``self.codec.encode(row)``: the journal and the
        page take the record, the fingerprint chain takes the row.
        Replication passes the records it encoded for the ship, or
        received in one, instead of encoding each row again.

        Journaled files observe strict write-ahead order: the record
        reaches the journal before any data page is touched, so a crash
        at any instant leaves the journal a superset of the pages.
        """
        if self.journal is not None:
            self.journal.log_append(record)
        self._fingerprint = fingerprint_rows((row,), self._fingerprint)
        if self._tail_page_id is not None:
            page = self.buffer.get(self._tail_page_id)
            if not page.is_full:
                page.append(record)
                self._tuple_count += 1
                self.version += 1
                return
        page_id, page = self.buffer.allocate()
        page.append(record)
        self._tail_page_id = page_id
        self._tuple_count += 1
        self.version += 1

    def append_all(self, rows) -> None:
        for row in rows:
            self.append(row)

    def mark_mutated(self) -> None:
        """Declare an in-place page rewrite (e.g. a reorder).

        Appends track themselves; anything that mutates existing pages
        through the buffer must call this so version-keyed derivations
        — cached :meth:`statistics`, planner decisions built on them —
        recompute instead of serving the pre-rewrite order facts.
        """
        self.version += 1
        self._statistics_cache = None
        self._columns_cache.clear()

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[TemporalTuple]:
        """One sequential, page-ordered scan decoding full tuples."""
        decode = self.codec.decode
        for page_id in range(self.buffer.page_count()):
            page = self.buffer.get(page_id)
            for record in page.records():
                yield decode(record)

    def scan_triples(
        self, attribute: Optional[str] = None
    ) -> Iterator[Tuple[int, int, Any]]:
        """One scan yielding ``(start, end, value)`` — the evaluator feed.

        With ``attribute=None`` only the timestamps are decoded (the
        COUNT fast path: the paper's aggregate ignores the other 120
        bytes of each record).
        """
        if attribute is None:
            timestamps_only = self.codec.decode_timestamps_only
            for page_id in range(self.buffer.page_count()):
                page = self.buffer.get(page_id)
                for record in page.records():
                    start, end = timestamps_only(record)
                    yield (start, end, None)
            return
        position = self.schema.position_of(attribute)
        for row in self.scan():
            yield (row.start, row.end, row.values[position])

    def scan_columns(self, attribute: Optional[str] = None) -> ColumnSet:
        """One scan batch-decoding whole pages into flat columns.

        The zero-tuple fast path: each page's record region is
        unpacked in a single ``struct`` call
        (:meth:`~repro.storage.codec.FixedWidthCodec.decode_page_columns`)
        and extended onto growing ``array('q')`` columns — no
        TemporalTuple, no per-record triple, nothing per row but array
        slots.  ``attribute=None`` skips every attribute byte (the
        COUNT path); otherwise exactly that attribute's bytes are
        decoded into the value column.
        """
        from repro.storage.page import PAGE_HEADER_BYTES

        position = (
            None if attribute is None else self.schema.position_of(attribute)
        )
        record_bytes = self.codec.record_bytes
        decode_page = self.codec.decode_page_columns
        starts = array("q")
        ends = array("q")
        values: Optional[List[Any]] = None if position is None else []
        batches = 0
        for page_id in range(self.buffer.page_count()):
            page = self.buffer.get(page_id)
            count = page.record_count
            if not count:
                continue
            region = memoryview(page.data)[
                PAGE_HEADER_BYTES : PAGE_HEADER_BYTES + count * record_bytes
            ]
            page_starts, page_ends, page_values = decode_page(
                region, count, position
            )
            starts.extend(page_starts)
            ends.extend(page_ends)
            if values is not None and page_values is not None:
                values.extend(page_values)
            batches += 1
        return ColumnSet(starts, ends, values, batches=max(1, batches))

    def columns(self, attribute: Optional[str] = None) -> ColumnSet:
        """A version-keyed flat-column snapshot of the whole file.

        Mirrors :meth:`TemporalRelation.columns`: the first call per
        (version, attribute) pays one :meth:`scan_columns`; repeats at
        the same version share the snapshot.  Callers must treat the
        columns as read-only.
        """
        cached = self._columns_cache.get(attribute)
        if cached is not None and cached[0] == self.version:
            snapshot: ColumnSet = cached[1]
            return snapshot
        snapshot = self.scan_columns(attribute)
        self._columns_cache[attribute] = (self.version, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def statistics(self) -> RelationStatistics:
        """Planner statistics from the timestamps-only column snapshot.

        Matches :meth:`TemporalRelation.statistics` field for field (one
        :func:`~repro.relation.relation.statistics_from_columns`), so a
        heap file can feed ``strategy="auto"`` directly.  Cached by
        :attr:`version` — appends and declared in-place rewrites
        (:meth:`mark_mutated`) invalidate, rescans do not.  (The old
        tuple-count key went stale on equal-cardinality reorders, and a
        stale ``is_totally_ordered`` mis-plans every later query.)
        """
        if (
            self._statistics_cache is not None
            and self._statistics_cache[0] == self.version
        ):
            return self._statistics_cache[1]
        columns = self.columns()
        stats = statistics_from_columns(columns.starts, columns.ends)
        self._statistics_cache = (self.version, stats)
        return stats

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        relation: TemporalRelation,
        path: Optional[str] = None,
        buffer_pages: int = 64,
    ) -> "HeapFile":
        """Materialise an in-memory relation onto pages."""
        heap = cls(relation.schema, path=path, buffer_pages=buffer_pages)
        heap.append_all(relation)
        heap.flush()
        return heap

    def to_relation(self, name: str = "from_heap") -> TemporalRelation:
        """Read the whole file back into an in-memory relation."""
        return TemporalRelation(self.schema, self.scan(), name=name)

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Acknowledge every append so far (journaled files only).

        Writes a COMMIT record carrying the current count and chained
        fingerprint; under the default fsync policy, the acknowledged
        appends now survive any crash even though their data pages may
        still be dirty in the buffer pool.
        """
        if self.journal is not None:
            self.journal.commit(self._tuple_count, self._fingerprint)

    def _committed_tail_records(self) -> List[bytes]:
        """The committed records on the partial tail page (for rotation)."""
        rpp = self.records_per_page
        base = (self._tuple_count // rpp) * rpp
        if base == self._tuple_count:
            return []
        page = self.buffer.get(base // rpp)
        return [page.read(slot) for slot in range(self._tuple_count - base)]

    def flush(self) -> None:
        """Make every append durable in the *data file*.

        Journaled files run the full commit protocol: journal COMMIT
        (acknowledge), write-back + fsync the data pages, then rotate
        the journal — old segments are deleted, and the committed
        records still on the rewritable partial tail page are re-logged
        so no later torn page write can lose them.
        """
        if self.journal is None:
            self.buffer.flush()
            return
        self.commit()
        self.buffer.sync()
        self.journal.mark_durable(
            self._tuple_count,
            self._fingerprint,
            self.records_per_page,
            self._committed_tail_records(),
        )

    def close(self) -> None:
        self.flush()
        self._handle.close()
        if self.journal is not None:
            self.journal.close()

    def abandon(self) -> None:
        """Drop the OS handles without flushing — a process-death stand-in.

        Dirty buffer pages are discarded and the journal is left
        unrotated, exactly as a crash would leave them; tests and the
        durability bench reopen with :meth:`durable` to exercise
        recovery.
        """
        self._handle.close()
        if self.journal is not None:
            self.journal.close()

    @classmethod
    def durable(
        cls,
        schema: Schema,
        path: str,
        buffer_pages: int = 64,
        fsync_policy: Optional[str] = None,
    ) -> "HeapFile":
        """Open a crash-safe heap file at ``path`` with its journal.

        Routes through :func:`repro.storage.recovery.recover`: if
        journal segments survive from a previous (possibly crashed)
        process, they are replayed and reconciled against the data file
        before the first new append is accepted.
        """
        from repro.storage.recovery import recover

        return recover(
            schema, path, buffer_pages=buffer_pages, fsync_policy=fsync_policy
        )

    def __enter__(self) -> "HeapFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def size_bytes(self) -> int:
        """Total file size — Table 3's '128K … 8M' figures."""
        from repro.storage.page import PAGE_SIZE

        return self.buffer.page_count() * PAGE_SIZE
