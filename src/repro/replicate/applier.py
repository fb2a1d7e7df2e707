"""Replica-side application of shipped journal batches.

:class:`ReplicatedTable` is the unit both roles share: one durable
heap file (journal attached, opened through crash recovery) plus the
in-memory :class:`~repro.serve.snapshots.ServedRelation` the query
server actually serves.  The heap is the durability truth — every
shipped batch is journaled and COMMITted there *before* it becomes
visible to readers through the served relation, so a replica killed
mid-replay recovers to a committed prefix and resumes from its
cursor.

:class:`ReplicaApplier` executes the ``rep.*`` ops a shipper sends:

* **hello** — epoch fencing first (a lower-epoch shipper is a deposed
  primary and gets a typed ``StaleEpoch``), then the per-table cursor
  ``(applied_count, applied_version, fingerprint)`` the shipper
  resumes from.
* **sync** — catch-up chunks.  Rows land in the heap as they arrive
  (journaled, so progress survives a crash), but nothing is committed
  or published until the final chunk's fingerprint matches the
  primary's.  A divergent or abandoned sync is rolled back *in place*
  (``_discard_uncommitted`` reopens the heap through the same crash
  recovery that would run after a restart), so the cursor a reconnect
  reports always describes the committed prefix — never an inflated
  in-memory state that would permanently fail the primary's prefix
  check.
* **ship** — one incremental batch.  The chained fingerprint is
  verified *before* any mutation; duplicate deliveries (version at or
  below the applied cursor) are acknowledged idempotently without
  touching anything, which is what makes the shipper's retry loop
  safe.
* **heartbeat** — liveness for the failover monitor.

Every mutation of one table happens under ``table.lock`` (reentrant:
the primary's ship path resyncs a behind replica while already
holding it).  The invariant the lock protects end to end:
``len(table.heap) == row count of table.served.base`` and both carry
the same chained fingerprint, except inside an unfinished sync where
the heap may run ahead (uncommitted).
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.exec.errors import ReplicationError
from repro.relation.relation import (
    TemporalRelation,
    fingerprint_rows,
)
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.snapshots import ServedRelation
from repro.storage.heapfile import HeapFile
from repro.replicate.wire import decode_rows, require_int, optional_str

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replicate.node import ReplicationNode

__all__ = ["ReplicatedTable", "ReplicaApplier"]


class ReplicatedTable:
    """One replicated relation: durable heap + served in-memory mirror."""

    def __init__(self, name: str, schema: Schema, path: str) -> None:
        self.name = name
        self.schema = schema
        self.path = path
        #: The replication stream identity read tokens bind to — shared
        #: across every node serving this table (unlike relation uids,
        #: which are per-process).
        self.stream_uid = f"rep:{name.lower()}"
        #: Reentrant: the primary's ship path may resync a behind
        #: replica while already holding the lock for the append.
        self.lock = threading.RLock()
        self.heap: Optional[HeapFile] = None
        self.served: Optional[ServedRelation] = None
        self._fsync_policy: Optional[str] = None
        #: Rows buffered between a sync's first and final chunk; only
        #: published to the served relation when the fingerprint holds.
        self._sync_rows: List[TemporalTuple] = []  # ta: guarded-by(self.lock)

    def open(self, fsync_policy: Optional[str] = None) -> List[Tuple[str, int, int]]:
        """Recover the heap, rebuild the served mirror, and return the
        recovered dedup-ledger entries (for the node's dedup window).

        The served relation's version is bootstrapped from the last
        committed STATEMENT record — version numbers must survive
        restarts, or read tokens handed out before a crash would
        compare against a reset counter.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fsync_policy = fsync_policy
        heap = HeapFile.durable(self.schema, self.path, fsync_policy=fsync_policy)
        report = heap.last_recovery
        statements: List[Tuple[str, int, int]] = (
            list(report.statements) if report is not None else []
        )
        if statements:
            version = statements[-1][1]
        else:
            # Pre-replication data with no ledger: treat the whole
            # content as one batch.  Fresh files start at version 0.
            version = 1 if len(heap) else 0
        relation = TemporalRelation(self.schema, heap.scan(), name=self.name)
        relation.version = version
        self.heap = heap
        self.served = ServedRelation(relation, name=self.name)
        return statements

    def cursor(self) -> Dict[str, Any]:
        """The shipper-resume cursor: applied rows/version/fingerprint."""
        assert self.heap is not None and self.served is not None
        with self.lock:
            version, _ = self.served.stats()
            return {
                "applied_count": len(self.heap),
                "applied_version": version,
                "fingerprint": self.heap.fingerprint,
            }

    def reset_to_committed(self) -> List[Tuple[str, int, int]]:
        """Roll the in-memory state back to the durable committed
        prefix: abandon the live handles (a crash stand-in — nothing
        uncommitted is flushed) and reopen through recovery, which
        discards journal appends past the last COMMIT.  Returns the
        recovered dedup ledger.  Callers already hold the reentrant
        ``self.lock``; re-entering keeps the guard explicit.
        """
        assert self.heap is not None
        with self.lock:
            self._sync_rows = []
            self.heap.abandon()
            return self.open(self._fsync_policy)

    def close(self) -> None:
        if self.heap is not None:
            self.heap.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicatedTable({self.name!r})"


def _maybe_rotate(table: ReplicatedTable) -> None:
    """Reclaim journal space once the live segment outgrows its target
    (full flush: data-file sync, then rotation)."""
    heap = table.heap
    assert heap is not None
    if heap.journal is not None and heap.journal.should_rotate:
        heap.flush()


class ReplicaApplier:
    """Executes ``rep.*`` frames against a node's replicated tables."""

    def __init__(
        self, node: "ReplicationNode", tables: Dict[str, ReplicatedTable]
    ) -> None:
        self._node = node
        self._tables = tables
        self.batches_applied = 0
        self.duplicates_ignored = 0
        self.rows_applied = 0
        #: Times a table was rolled back to its committed prefix after
        #: an abandoned or diverged sync.
        self.rollbacks = 0

    # ------------------------------------------------------------------
    # Rollback to the committed prefix
    # ------------------------------------------------------------------

    def _discard_uncommitted(self, table: ReplicatedTable) -> None:
        """Drop any uncommitted rows a failed or abandoned sync left in
        the in-memory heap, restoring ``len(heap)``/``fingerprint`` to
        the committed prefix.  Without this the replica's cursor would
        report the inflated state and every subsequent reconnect would
        fail the primary's prefix check ("rebuild the replica") until a
        process restart.  Caller holds ``table.lock``.
        """
        heap = table.heap
        assert heap is not None
        dirty = bool(table._sync_rows)
        if (
            heap.journal is not None
            and len(heap) != (heap.journal.committed_count or 0)
        ):
            dirty = True
        if not dirty:
            return
        self._node.reload_table(table)
        self.rollbacks += 1

    # ------------------------------------------------------------------
    # Lookup / validation
    # ------------------------------------------------------------------

    def _table(self, frame: Dict[str, Any]) -> ReplicatedTable:
        name = frame.get("table")
        if not isinstance(name, str):
            raise ReplicationError("replication frame needs a 'table' name")
        table = self._tables.get(name.lower())
        if table is None:
            known = ", ".join(sorted(self._tables)) or "(none)"
            raise ReplicationError(
                f"unknown replicated table {name!r}; replicated: {known}"
            )
        return table

    # ------------------------------------------------------------------
    # rep.hello
    # ------------------------------------------------------------------

    def apply_hello(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._node.observe_epoch(require_int(frame, "epoch"))
        endpoint = optional_str(frame, "endpoint")
        if endpoint is not None:
            self._node.note_primary(endpoint)
        tables_reply: Dict[str, Any] = {}
        for name, info in dict(frame.get("tables") or {}).items():
            table = self._table({"table": name})
            assert table.heap is not None
            width = require_int(dict(info), "record_bytes")
            if width != table.heap.codec.record_bytes:
                raise ReplicationError(
                    f"stream {name!r} ships {width}-byte records but this "
                    f"replica stores {table.heap.codec.record_bytes}-byte "
                    "records — schema mismatch"
                )
            with table.lock:
                # A sync the previous primary abandoned mid-stream left
                # uncommitted rows inflating the heap; report the
                # committed prefix or this shipper can never resume.
                self._discard_uncommitted(table)
                tables_reply[name] = table.cursor()
        self._node.note_heartbeat()
        return {
            "ok": True,
            "op": "rep.hello",
            "epoch": self._node.epoch,
            "tables": tables_reply,
        }

    # ------------------------------------------------------------------
    # rep.ship — one incremental committed batch
    # ------------------------------------------------------------------

    def apply_ship(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._node.observe_epoch(require_int(frame, "epoch"))
        table = self._table(frame)
        heap, served = table.heap, table.served
        assert heap is not None and served is not None
        version = require_int(frame, "version")
        sid = optional_str(frame, "sid")
        self._node.note_heartbeat()
        with table.lock:
            # A ship means no sync is in flight on this table (rep.*
            # ops serialize on one worker; the shipper never
            # interleaves the two) — leftovers are an abandoned sync.
            self._discard_uncommitted(table)
            heap, served = table.heap, table.served
            assert heap is not None and served is not None
            applied_version, _ = served.stats()
            if version <= applied_version:
                # Duplicate delivery (shipper retry after a torn frame
                # or reconnect): already applied, acknowledge as such.
                self.duplicates_ignored += 1
                return {
                    "ok": True,
                    "op": "rep.ship",
                    "table": table.name,
                    "applied_count": len(heap),
                    "applied_version": applied_version,
                    "duplicate": True,
                }
            base_count = require_int(frame, "base_count")
            if version != applied_version + 1 or base_count != len(heap):
                raise ReplicationError(
                    f"replica holds {table.name!r} at v{applied_version}/"
                    f"{len(heap)} rows but the batch expects v{version} on "
                    f"{base_count} rows — resync required"
                )
            records = decode_rows(
                frame.get("rows") or [], heap.codec.record_bytes
            )
            if not records:
                raise ReplicationError("ship batch carries no rows")
            rows = [heap.codec.decode(record) for record in records]
            # Verify the chained fingerprint BEFORE mutating anything:
            # a divergent batch must leave no trace.
            expect = fingerprint_rows(rows, heap.fingerprint)
            if expect != require_int(frame, "fingerprint"):
                raise ReplicationError(
                    f"shipped batch v{version} diverges from this replica's "
                    f"fingerprint chain for {table.name!r} — refusing to "
                    "apply (scrub both journals to locate the fork)"
                )
            for row in rows:
                heap.append(row)
            row_count = len(heap)
            if row_count != require_int(frame, "row_count"):
                # The appends above are uncommitted; drop them before
                # raising so the cursor stays on the committed prefix.
                self._discard_uncommitted(table)
                raise ReplicationError(
                    f"batch v{version} lands at {row_count} rows, but the "
                    f"primary acknowledged {frame.get('row_count')}"
                )
            if sid is not None and heap.journal is not None:
                heap.journal.log_statement(sid, version, row_count)
            heap.commit()
            served.append_replicated(
                [(list(row.values), row.start, row.end) for row in rows],
                version,
            )
            if sid is not None:
                self._node.dedup_record(sid, version, row_count)
            _maybe_rotate(table)
        self.batches_applied += 1
        self.rows_applied += len(records)
        return {
            "ok": True,
            "op": "rep.ship",
            "table": table.name,
            "applied_count": row_count,
            "applied_version": version,
            "duplicate": False,
        }

    # ------------------------------------------------------------------
    # rep.sync — catch-up chunks
    # ------------------------------------------------------------------

    def apply_sync(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._node.observe_epoch(require_int(frame, "epoch"))
        table = self._table(frame)
        heap, served = table.heap, table.served
        assert heap is not None and served is not None
        self._node.note_heartbeat()
        with table.lock:
            base_count = require_int(frame, "base_count")
            expected_base = len(heap)
            if base_count != expected_base:
                # A misaligned chunk aborts the whole sync: roll back
                # to the committed prefix so the next attempt (which
                # resumes from our cursor) starts clean.
                self._discard_uncommitted(table)
                raise ReplicationError(
                    f"sync chunk for {table.name!r} starts at row "
                    f"{base_count} but this replica holds {expected_base}"
                )
            records = decode_rows(
                frame.get("rows") or [], heap.codec.record_bytes
            )
            rows = [heap.codec.decode(record) for record in records]
            for row in rows:
                heap.append(row)
            table._sync_rows.extend(rows)
            if not bool(frame.get("final", True)):
                return {
                    "ok": True,
                    "op": "rep.sync",
                    "table": table.name,
                    "applied_count": len(heap),
                    "final": False,
                }
            # Final chunk: verify end-to-end, commit, publish.
            version = require_int(frame, "version")
            row_count = require_int(frame, "row_count")
            fingerprint = require_int(frame, "fingerprint")
            synced = table._sync_rows
            table._sync_rows = []
            if len(heap) != row_count or heap.fingerprint != fingerprint:
                reached, reached_fp = len(heap), heap.fingerprint
                # Roll back to the committed prefix before raising: the
                # uncommitted appends would otherwise inflate the
                # cursor and wedge every future reconnect behind the
                # prefix check.
                self._discard_uncommitted(table)
                raise ReplicationError(
                    f"sync of {table.name!r} diverged: replica reaches "
                    f"{reached} rows / fingerprint "
                    f"{reached_fp:#x}, primary acknowledged "
                    f"{row_count} rows / {fingerprint:#x}"
                )
            for sid, stmt_version, stmt_rows in frame.get("statements") or []:
                if heap.journal is not None:
                    heap.journal.log_statement(
                        str(sid), int(stmt_version), int(stmt_rows)
                    )
                self._node.dedup_record(
                    str(sid), int(stmt_version), int(stmt_rows)
                )
            heap.commit()
            applied_version, _ = served.stats()
            if synced and version > applied_version:
                served.append_replicated(
                    [(list(row.values), row.start, row.end) for row in synced],
                    version,
                )
            else:
                served.adopt_version(version)
            self.rows_applied += len(synced)
            _maybe_rotate(table)
            return {
                "ok": True,
                "op": "rep.sync",
                "table": table.name,
                "applied_count": len(heap),
                "applied_version": version,
                "final": True,
            }

    # ------------------------------------------------------------------
    # rep.heartbeat
    # ------------------------------------------------------------------

    def apply_heartbeat(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._node.observe_epoch(require_int(frame, "epoch"))
        self._node.note_heartbeat()
        return {
            "ok": True,
            "op": "rep.heartbeat",
            "epoch": self._node.epoch,
            "applied": {
                table.name: table.cursor()["applied_count"]
                for table in self._tables.values()
            },
        }

    # ------------------------------------------------------------------
    # Prefix verification (shipper-side helper, but lives with the
    # fingerprint logic)
    # ------------------------------------------------------------------

    @staticmethod
    def prefix_fingerprint(heap: HeapFile, count: int) -> int:
        """Chained fingerprint over the first ``count`` stored rows."""
        from itertools import islice

        return fingerprint_rows(islice(heap.scan(), count))
