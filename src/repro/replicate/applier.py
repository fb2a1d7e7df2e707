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
  primary and gets a typed ``StaleEpoch``), then the schema check (the
  shipper's must equal this replica's), then the per-table cursor
  ``(applied_count, applied_version, fingerprint)`` the shipper
  resumes from.
* **sync** — catch-up chunks.  Rows land in the heap as they arrive
  (journaled, so progress survives a crash), but nothing is committed
  or published until the final chunk lands on the primary's row count
  and fingerprint.  A refused or abandoned sync is rolled back *in place*
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

Shipped rows, like the primary's own appends, are written by
:meth:`ReplicatedTable.write`; a replica's refusal is a typed
``ReplicationError``.

Every mutation of one table happens under ``table.lock`` (reentrant:
the primary's ship path resyncs a behind replica while already
holding it).  The invariant the lock protects end to end:
``len(table.heap) == row count of table.served.base`` and both carry
the same chained fingerprint, except inside an unfinished sync where
the heap may run ahead (uncommitted).
"""

from __future__ import annotations

import os
import struct
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.errors import InvalidInput, ReplicationError
from repro.relation.relation import (
    TemporalRelation,
    fingerprint_rows,
)
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.server import append_rows
from repro.serve.snapshots import ServedRelation
from repro.storage.heapfile import HeapFile
from repro.storage.journal import encode_statement_payload
from repro.replicate.wire import optional_str, require_int, schema_spec

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

    def write(
        self,
        batch: Sequence[Tuple[Any, Any, Any]],
        statements: Sequence[Tuple[str, int, int]] = (),
        expect: Optional[Tuple[int, int]] = None,
    ) -> List[TemporalTuple]:
        """Journal one batch of ``(values, start, end)`` rows, then its
        dedup-ledger ``statements``, and return the validated rows: the
        one write path of the primary's append, a shipped batch and each
        sync chunk.  All that can refuse runs before the first heap
        append: the rows validate and encode, the ledger entries encode,
        and the batch lands on ``expect``, the primary's ``(row_count,
        fingerprint)``, when given.  Nothing is committed or published.
        Caller holds ``self.lock``."""
        heap, served = self.heap, self.served
        assert heap is not None and heap.journal is not None
        assert served is not None
        rows = served.validate_batch(batch)
        records = [heap.codec.encode(row) for row in rows]
        for entry in statements:
            try:
                encode_statement_payload(*entry)
            except (UnicodeEncodeError, struct.error) as error:
                raise InvalidInput(
                    f"ledger entry {entry!r} cannot be journaled: {error}"
                ) from None
        if expect is not None:
            reached = (
                len(heap) + len(rows),
                fingerprint_rows(rows, heap.fingerprint),
            )
            if reached != expect:
                raise ReplicationError(
                    f"batch for {self.name!r} diverges from this replica's "
                    f"chain: it reaches {reached[0]} rows / {reached[1]:#x}, "
                    f"the primary acknowledged {expect[0]} / {expect[1]:#x} "
                    "(history diverged; scrub both journals for the fork)"
                )
        for record, row in zip(records, rows):
            heap.append_record(record, row)
        for entry in statements:
            heap.journal.log_statement(*entry)
        return rows

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

    def rotate_if_due(self) -> None:
        """Reclaim journal space once the live segment outgrows its
        target (full flush: data-file sync, then rotation)."""
        heap = self.heap
        assert heap is not None and heap.journal is not None
        if heap.journal.should_rotate:
            heap.flush()

    def close(self) -> None:
        if self.heap is not None:
            self.heap.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicatedTable({self.name!r})"


def _write_shipped(
    table: ReplicatedTable,
    frame: Dict[str, Any],
    statements: Sequence[Tuple[str, int, int]] = (),
    expect: Optional[Tuple[int, int]] = None,
) -> List[TemporalTuple]:
    """:meth:`ReplicatedTable.write` of a ``rep.*`` frame's rows, with
    every refusal a :class:`ReplicationError`: a typed error frame to
    the shipper, not an exception escaping the op."""
    try:
        return table.write(append_rows(frame.get("rows")), statements, expect)
    except ValueError as error:
        raise ReplicationError(
            f"replica refuses the rows shipped for {table.name!r}: {error}"
        ) from error


def _reply(op: str, table: ReplicatedTable, **fields: Any) -> Dict[str, Any]:
    """A ``rep.ship``/``rep.sync`` acknowledgement: the table's cursor."""
    cursor = table.cursor()
    return {"ok": True, "op": op, "table": table.name, **cursor, **fields}


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
        assert heap is not None and heap.journal is not None
        # A sync's buffered rows are uncommitted heap rows too.
        if len(heap) == (heap.journal.committed_count or 0):
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
            shipped = info.get("schema") if isinstance(info, dict) else None
            if shipped != schema_spec(table.schema):
                raise ReplicationError(
                    f"stream {name!r} ships schema {shipped}, this replica "
                    f"stores {schema_spec(table.schema)} — schema mismatch"
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
                return _reply("rep.ship", table, duplicate=True)
            base_count = require_int(frame, "base_count")
            if version != applied_version + 1 or base_count != len(heap):
                raise ReplicationError(
                    f"replica holds {table.name!r} at v{applied_version}/"
                    f"{len(heap)} rows but the batch expects v{version} on "
                    f"{base_count} rows — resync required"
                )
            if not frame.get("rows"):
                raise ReplicationError("ship batch carries no rows")
            row_count = require_int(frame, "row_count")
            statements = [] if sid is None else [(sid, version, row_count)]
            rows = _write_shipped(
                table,
                frame,
                statements,
                (row_count, require_int(frame, "fingerprint")),
            )
            heap.commit()
            served.append_replicated(rows, version)
            if sid is not None:
                self._node.dedup_record(sid, version, row_count)
            table.rotate_if_due()
            self.batches_applied += 1
            self.rows_applied += len(rows)
            return _reply("rep.ship", table, duplicate=False)

    # ------------------------------------------------------------------
    # rep.sync — catch-up chunks
    # ------------------------------------------------------------------

    def apply_sync(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._node.observe_epoch(require_int(frame, "epoch"))
        table = self._table(frame)
        heap, served = table.heap, table.served
        assert heap is not None and served is not None
        self._node.note_heartbeat()
        final = bool(frame.get("final", True))
        with table.lock:
            try:
                base_count = require_int(frame, "base_count")
                if base_count != len(heap):
                    raise ReplicationError(
                        f"sync chunk for {table.name!r} starts at row "
                        f"{base_count} but this replica holds {len(heap)}"
                    )
                statements: List[Tuple[str, int, int]] = []
                expect: Optional[Tuple[int, int]] = None
                if final:
                    # The final chunk lands on the primary's row count
                    # and fingerprint, and carries its dedup ledger.
                    version = require_int(frame, "version")
                    try:
                        statements = [
                            (str(sid), int(at), int(count))
                            for sid, at, count in frame.get("statements") or []
                        ]
                    except (TypeError, ValueError):
                        raise ReplicationError(
                            "sync statements must be [sid, version, rows] lists"
                        ) from None
                    expect = (
                        require_int(frame, "row_count"),
                        require_int(frame, "fingerprint"),
                    )
                rows = _write_shipped(table, frame, statements, expect)
            except ReplicationError:
                # A refused chunk aborts the whole sync: roll back to the
                # committed prefix so the next attempt starts clean.
                self._discard_uncommitted(table)
                raise
            table._sync_rows.extend(rows)
            if not final:
                return _reply("rep.sync", table, final=False)
            synced, table._sync_rows = table._sync_rows, []
            heap.commit()
            for entry in statements:
                self._node.dedup_record(*entry)
            applied_version, _ = served.stats()
            if synced and version > applied_version:
                served.append_replicated(synced, version)
            else:
                served.adopt_version(version)
            self.rows_applied += len(synced)
            table.rotate_if_due()
            return _reply("rep.sync", table, final=True)

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
