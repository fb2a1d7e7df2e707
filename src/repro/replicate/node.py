"""A replication-aware query server node.

:class:`ReplicationNode` extends the serving layer's
:class:`~repro.serve.server.QueryServer` with the journal-shipping
machinery: durable heap-backed tables, the ``rep.*`` ops, the epoch
fence, and (on the primary) synchronous shipping to replicas.

Roles and the epoch fence
-------------------------

Every node carries a monotonically increasing **epoch**, recovered
from its journal segment headers.  Promotion bumps it; the new epoch
is stamped into a fresh journal segment on every table *before* the
promoted node accepts a write, so the fencing decision is itself
durable.  Any node observing a higher epoch than its own — a deposed
primary hearing from the promoted replica, or receiving a shipped
frame stamped with the new epoch — **fences**: its role flips to
``"fenced"``, its scheduler answers every queued or future write with
a typed ``StaleEpoch``, and its shipper stands down.  A lower-epoch
peer is refused with the same typed error.  Two nodes can therefore
never both acknowledge writes for the same epoch: split-brain reduces
to the epoch comparison.

Write path (primary)
--------------------

Under the table lock: validate and encode every row and the
STATEMENT ledger record (a refusal leaves no row in the heap) →
journal them → COMMIT → ship synchronously to every live replica →
publish to the served relation → acknowledge.  The client's
acknowledgement therefore implies the batch is durable locally *and*
applied on every replica that was reachable at commit time — the
zero-acknowledged-loss property the chaos harness checks.

Read path (replica)
-------------------

Replicas serve queries from the same snapshot machinery as any
server; bounded staleness comes from read tokens (see
``QueryServer._check_read_token``).  Writes are refused with
``NotPrimary`` carrying the last-known primary endpoint as a redirect
hint.

Failover
--------

:class:`FailoverMonitor` watches the heartbeat gap on a replica and
promotes it after ``lease_ms`` of silence.  The chaos harness instead
promotes explicitly via the ``rep.promote`` op — deterministic tests
must not wait out wall-clock leases.
"""

from __future__ import annotations

import asyncio
import hmac
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.errors import (
    NotPrimary,
    ReplicationError,
    StaleEpoch,
    TemporalAggregateError,
)
from repro.relation.schema import Schema
from repro.serve.config import ServerConfig
from repro.serve.server import QueryServer, _error_frame
from repro.serve.session import Session
from repro.serve.snapshots import ServedRelation
from repro.replicate.applier import ReplicaApplier, ReplicatedTable
from repro.replicate.shipper import JournalShipper
from repro.replicate.wire import ShipBatch, wire_rows

__all__ = ["TableSpec", "ReplicationNode", "FailoverMonitor"]


@dataclass(frozen=True)
class TableSpec:
    """One replicated relation: name, schema, and its heap-file path."""

    name: str
    schema: Schema
    path: str


class ReplicationNode(QueryServer):
    """A query server whose tables are journaled and replicated."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        tables: Sequence[TableSpec] = (),
        peers: Sequence[str] = (),
        endpoint: Optional[str] = None,
        lease_ms: Optional[float] = None,
        heartbeat_ms: float = 100.0,
        fsync_policy: Optional[str] = None,
        repl_secret: Optional[str] = None,
    ) -> None:
        super().__init__(config)
        #: Shared token gating every ``rep.*`` op (None = open, for
        #: single-tenant test rigs).  Without it any query client could
        #: issue ``rep.promote`` and fence the legitimate primary.
        self.repl_secret = repl_secret
        #: This node's *serving* address as peers should dial it —
        #: advertised in hellos so replicas can hint redirected clients.
        self.endpoint = endpoint
        #: Serializes role/epoch *transitions* (promote, fence, adopt).
        #: Reads of ``role``/``_epoch``/``_fenced_by`` are deliberately
        #: plain (reference/int assignment is atomic under the GIL) —
        #: the append path inspects them while holding a table lock,
        #: and taking _role_lock there would invert the documented
        #: order (_role_lock before table.lock, never the reverse).
        self._role_lock = threading.RLock()
        self._fenced_by: Optional[int] = None  # ta: unguarded
        #: Last primary heartbeat, as a monotonic instant (plain float
        #: write — atomic under the GIL; the monitor only compares it).
        self._last_heartbeat = monotonic()  # ta: unguarded
        self._primary_endpoint: Optional[str] = None  # ta: unguarded
        self.tables: Dict[str, ReplicatedTable] = {}
        epoch = 0
        for spec in tables:
            table = ReplicatedTable(spec.name, spec.schema, spec.path)
            statements = table.open(fsync_policy)
            self.seed_dedup(statements)
            assert table.served is not None and table.heap is not None
            # Bypass register(): the served relation must wrap the
            # heap-backed rows, not a fresh copy.
            self._served[spec.name.lower()] = table.served
            self.tables[spec.name.lower()] = table
            if table.heap.journal is not None:
                epoch = max(epoch, table.heap.journal.epoch)
        self._epoch = epoch  # ta: unguarded
        self.applier = ReplicaApplier(self, self.tables)
        self.shipper: Optional[JournalShipper] = None  # ta: unguarded
        self._peers = list(peers)
        self._heartbeat_ms = heartbeat_ms
        self._lease_ms = lease_ms
        self._monitor: Optional[FailoverMonitor] = None  # ta: unguarded
        #: Single replication worker: serializes every rep.* op (ship,
        #: sync, promote) and keeps their blocking file/socket I/O off
        #: the event loop.
        self._repl_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-repl"
        )
        if self.role != "primary":
            self.scheduler.fence_writes(None)

    # ------------------------------------------------------------------
    # Epoch / role state machine
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def observe_epoch(self, epoch: int) -> None:
        """Apply the epoch fence to one observed peer epoch.

        Lower than ours → the peer is deposed; refuse it typed.
        Higher than ours → *we* are stale; a primary fences itself, a
        replica adopts the new epoch (its new primary speaks it).  A
        fenced node participates in nothing either way.
        """
        with self._role_lock:
            if self.role == "fenced":
                if epoch > (self._fenced_by or 0):
                    self._fenced_by = epoch
                raise StaleEpoch(
                    f"this node (epoch {self._epoch}) is fenced by epoch "
                    f"{self._fenced_by}",
                    epoch=self._epoch,
                    observed_epoch=self._fenced_by or epoch,
                )
            if epoch < self._epoch:
                raise StaleEpoch(
                    f"peer speaks epoch {epoch}, this node is at "
                    f"{self._epoch}; the peer was deposed",
                    epoch=epoch,
                    observed_epoch=self._epoch,
                )
            if epoch > self._epoch:
                if self.role == "primary":
                    own = self._epoch
                    self._fence_locked(epoch)
                    raise StaleEpoch(
                        f"this node (epoch {own}) observed epoch "
                        f"{epoch}; it has been deposed and is now fenced",
                        epoch=own,
                        observed_epoch=epoch,
                    )
                self._adopt_epoch_locked(epoch)

    def _adopt_epoch_locked(self, epoch: int) -> None:
        """Advance to ``epoch``, sealing a fresh journal segment per
        table so the adoption is durable."""
        for table in self.tables.values():
            with table.lock:
                if table.heap is not None and table.heap.journal is not None:
                    table.heap.journal.bump_epoch(epoch)
        self._epoch = epoch

    def promote(self) -> int:
        """Promote this node to primary at a fresh, higher epoch.

        Durably bumps every table's journal first, then flips the
        role, lifts the write fence, and starts shipping to peers.
        Idempotent on an already-primary node (returns its epoch).
        """
        with self._role_lock:
            if self.role == "primary":
                return self._epoch
            if self.role == "fenced":
                raise StaleEpoch(
                    "a fenced node cannot be promoted; restart it as a "
                    "fresh replica",
                    epoch=self._epoch,
                    observed_epoch=self._fenced_by or self._epoch,
                )
            self._adopt_epoch_locked(self._epoch + 1)
            # Transitions hold _role_lock; reads stay plain (GIL-atomic
            # str swap) so the append path's re-check under table.lock
            # cannot invert the _role_lock -> table.lock order.
            self.role = "primary"  # ta: unguarded
            self.scheduler.fence_writes(None)
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.stop(join=False)
        self._start_shipper()
        return self.epoch

    def fence(self, observed_epoch: int) -> None:
        """Demote this node permanently: a higher epoch exists."""
        with self._role_lock:
            self._fence_locked(observed_epoch)

    def _fence_locked(self, observed_epoch: int) -> None:
        if self.role == "fenced":
            self._fenced_by = max(self._fenced_by or 0, observed_epoch)
            return
        self.role = "fenced"
        self._fenced_by = observed_epoch
        epoch = self._epoch

        def refusal() -> Dict[str, Any]:
            return _error_frame(
                StaleEpoch(
                    f"this node (epoch {epoch}) was deposed by epoch "
                    f"{observed_epoch}; writes are fenced",
                    epoch=epoch,
                    observed_epoch=observed_epoch,
                )
            )

        self.scheduler.fence_writes(refusal)
        shipper = self.shipper
        if shipper is not None:
            # Signal only: fencing is discovered *inside* shipper code
            # paths that hold a link lock (and often on the heartbeat
            # thread itself) — closing links here would self-deadlock.
            # node.stop() closes them for real.
            shipper.signal_stop()

    def note_heartbeat(self) -> None:
        self._last_heartbeat = monotonic()

    def note_primary(self, endpoint: str) -> None:
        self._primary_endpoint = endpoint

    def heartbeat_age(self) -> float:
        """Seconds since the last primary heartbeat (or hello)."""
        return monotonic() - self._last_heartbeat

    def replicated_tables(self) -> List[ReplicatedTable]:
        return list(self.tables.values())

    def reload_table(self, table: ReplicatedTable) -> None:
        """Reopen one table through crash recovery, discarding journal
        appends past the last COMMIT, and re-point the served registry
        at the rebuilt mirror.  Caller holds ``table.lock``."""
        statements = table.reset_to_committed()
        self.seed_dedup(statements)
        assert table.served is not None
        self._served[table.name.lower()] = table.served

    # ------------------------------------------------------------------
    # QueryServer extension points
    # ------------------------------------------------------------------

    def hello_extra(self) -> Dict[str, Any]:
        extra: Dict[str, Any] = {
            "epoch": self.epoch,
            "streams": {
                table.name: table.stream_uid for table in self.tables.values()
            },
        }
        if self.endpoint:
            extra["endpoint"] = self.endpoint
        return extra

    def _stream_uid(self, served: ServedRelation) -> str:
        table = self.tables.get(served.name.lower())
        if table is not None:
            return table.stream_uid
        return super()._stream_uid(served)

    def _primary_hint(self) -> Optional[str]:
        return self._primary_endpoint

    def _refuse_write(self) -> Optional[TemporalAggregateError]:
        # Plain reads only: the append path re-checks this while
        # holding a table lock (see __init__ on the lock order).
        role = self.role
        if role == "primary":
            return None
        if role == "fenced":
            epoch, fenced_by = self._epoch, self._fenced_by
            return StaleEpoch(
                f"this node (epoch {epoch}) was deposed by epoch "
                f"{fenced_by}; writes are fenced",
                epoch=epoch,
                observed_epoch=fenced_by or epoch,
            )
        return NotPrimary(
            "node is a replica; writes go to the primary",
            role=role,
            primary_hint=self._primary_hint(),
        )

    def _apply_append(
        self,
        served: ServedRelation,
        batch: Any,
        sid: Optional[str],
    ) -> tuple:
        """The primary's durable append: journal, ledger, commit, ship,
        publish — in that order — then acknowledge."""
        table = self.tables.get(served.name.lower())
        if table is None:
            # A table registered outside replication (tests): plain.
            return served.append_batch(batch)
        heap = table.heap
        assert heap is not None
        with table.lock:
            refusal = self._refuse_write()
            if refusal is not None:
                # Demoted between admission and execution.
                raise refusal
            batch = list(batch)
            if not batch:
                raise ValueError("append batch must contain at least one row")
            version = served.stats()[0] + 1
            base_count = len(heap)
            row_count = base_count + len(batch)
            # Every batch gets a ledger record — client-supplied sids
            # make retries exactly-once; the anonymous fallback still
            # pins the (version, row_count) identity for restart
            # bootstrap and replica version adoption.
            ledger_sid = sid or f"anon:{table.name}:{version}"
            rows = table.write(batch, [(ledger_sid, version, row_count)])
            heap.commit()
            shipper = self.shipper
            if shipper is not None:
                shipper.ship(
                    ShipBatch(
                        table=table.name,
                        version=version,
                        row_count=row_count,
                        base_count=base_count,
                        fingerprint=heap.fingerprint,
                        sid=ledger_sid,
                        rows=wire_rows(rows),
                    )
                )
            applied = served.append_replicated(rows, version)
            table.rotate_if_due()
            return applied

    # ------------------------------------------------------------------
    # rep.* ops
    # ------------------------------------------------------------------

    async def _handle_extra_op(
        self, op: str, frame: Dict[str, Any], session: Session
    ) -> bool:
        if not op.startswith("rep."):
            return False
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._repl_executor, self._rep_dispatch, op, frame
        )
        await session.send(reply)
        return True

    def _rep_dispatch(self, op: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        try:
            secret = self.repl_secret
            if secret is not None:
                supplied = frame.get("auth")
                if not isinstance(supplied, str) or not hmac.compare_digest(
                    supplied, secret
                ):
                    raise ReplicationError(
                        f"replication op {op!r} refused: missing or invalid "
                        "auth token"
                    )
            if op == "rep.hello":
                return self.applier.apply_hello(frame)
            if op == "rep.ship":
                return self.applier.apply_ship(frame)
            if op == "rep.sync":
                return self.applier.apply_sync(frame)
            if op == "rep.heartbeat":
                return self.applier.apply_heartbeat(frame)
            if op == "rep.promote":
                epoch = self.promote()
                return {"ok": True, "op": "rep.promote", "epoch": epoch}
            if op == "rep.status":
                return {"ok": True, "op": "rep.status", **self.status()}
            raise ReplicationError(f"unknown replication op {op!r}")
        except TemporalAggregateError as error:
            return _error_frame(error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._role_lock:
            role, epoch, fenced_by = self.role, self._epoch, self._fenced_by
        return {
            "role": role,
            "epoch": epoch,
            "fenced_by": fenced_by,
            "tables": {
                table.name: table.cursor() for table in self.tables.values()
            },
        }

    def _replication_stats(self) -> Optional[Dict[str, Any]]:
        stats = self.status()
        stats["applier"] = {
            "batches_applied": self.applier.batches_applied,
            "duplicates_ignored": self.applier.duplicates_ignored,
            "rows_applied": self.applier.rows_applied,
            "rollbacks": self.applier.rollbacks,
        }
        shipper = self.shipper
        if shipper is not None:
            stats["peers"] = shipper.peer_stats()
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _start_shipper(self) -> None:
        if not self._peers:
            return
        shipper = JournalShipper(
            self, self._peers, heartbeat_ms=self._heartbeat_ms
        )
        self.shipper = shipper
        shipper.start()

    def attach_peer(self, endpoint: str) -> None:
        """Add a replica to a primary that started without one.

        The connect-time sync inside the shipper start is synchronous:
        when this returns, the new replica has the full history.  Only
        supported while no shipper is running (late replica bring-up,
        benches); reconfiguring a live link set is out of scope.
        """
        if self.shipper is not None:
            raise RuntimeError("shipper already running; restart to repeer")
        self._peers = [*self._peers, endpoint]
        self._start_shipper()

    async def start(self) -> None:
        await super().start()
        if self.endpoint is None and self.port is not None:
            self.endpoint = f"{self.config.host}:{self.port}"
        if self.role == "primary":
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._repl_executor, self._start_shipper)
        elif self._lease_ms is not None:
            self._monitor = FailoverMonitor(self, lease_ms=self._lease_ms)
            self._monitor.start()

    async def stop(self) -> None:
        monitor = self._monitor
        if monitor is not None:
            monitor.stop()
        shipper = self.shipper
        if shipper is not None:
            shipper.stop()
        self._repl_executor.shutdown(wait=True)
        await super().stop()
        for table in self.tables.values():
            with table.lock:
                table.close()


class FailoverMonitor:
    """Promotes a replica once the primary's lease lapses.

    Wakes every quarter-lease, compares the heartbeat age against the
    lease, and calls :meth:`ReplicationNode.promote` when it lapses.
    Event-paced (no wall-clock reads; :func:`time.monotonic` only via
    the node's heartbeat age).
    """

    def __init__(self, node: ReplicationNode, *, lease_ms: float) -> None:
        self._node = node
        self._lease_s = max(lease_ms, 1.0) / 1000.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.promotions = 0  # written by the monitor thread only

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-failover", daemon=True
        )
        self._thread.start()

    def stop(self, join: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if join and thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def _run(self) -> None:
        interval = max(self._lease_s / 4.0, 0.005)
        while not self._stop.wait(interval):
            if self._node.role != "replica":
                return
            if self._node.heartbeat_age() >= self._lease_s:
                try:
                    self.promotions += 1
                    self._node.promote()
                except StaleEpoch:
                    pass
                return
