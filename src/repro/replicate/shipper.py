"""Primary-side journal shipping.

:class:`JournalShipper` owns one :class:`PeerLink` per configured
replica and pushes committed batches to every live link *before* the
primary acknowledges the client (synchronous shipping — the zero
acknowledged-loss guarantee costs one round trip per live replica).

Link lifecycle:

* :meth:`start` connects every peer and starts the heartbeat and
  redial threads.
* A connect performs the ``rep.hello`` handshake, verifies that the
  replica's applied prefix lies on this primary's fingerprint chain
  (a diverged replica is refused — it must be rebuilt, not silently
  overwritten), then streams a ``rep.sync`` catch-up for whatever the
  replica is missing, chunked under the frame-size bound.
* :meth:`ship` sends one batch to each live link.  A dead socket
  marks the link down (the redial thread revives it); a typed
  ``StaleEpoch`` from the replica means *this* primary was deposed —
  it fences itself immediately and propagates the refusal to the
  client whose append triggered it.
* The **heartbeat thread** paces on :class:`threading.Event` waits
  (no wall-clock reads) and only beats live links — short socket
  round trips, so replica failover monitors see liveness on schedule
  no matter how long a catch-up sync elsewhere takes.
* The **redial thread** revives dead links and completes deferred
  per-table syncs.  A full catch-up can take arbitrarily long, which
  is exactly why it must not share a thread with the heartbeats: a
  slow resync of one replica must never starve another replica's
  lease.

Lock discipline — the order is ``table.lock → link.lock``, never the
reverse.  The append path holds ``table.lock`` when it ships, so no
code may touch table state while holding ``link.lock``; every
connect-time sync therefore works from a :class:`TableSnapshot` built
under ``table.lock`` *before* ``link.lock`` is acquired.  All
per-link I/O happens under ``link.lock``; ship order per link matches
commit order because the append path itself is serialized per table.
"""

from __future__ import annotations

import socket
import threading
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.exec.errors import (
    ReplicationError,
    StaleEpoch,
    TemporalAggregateError,
)
from repro.serve.client import raise_for_error
from repro.serve.protocol import (
    ConnectionClosed,
    FrameError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.relation.relation import fingerprint_rows
from repro.relation.schema import Schema
from repro.replicate.wire import (
    ShipBatch,
    heartbeat_frame,
    hello_frame,
    require_int,
    schema_spec,
    ship_frame,
    sync_chunk_rows,
    sync_frame,
    wire_rows,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replicate.node import ReplicationNode

__all__ = ["PeerLink", "TableSnapshot", "JournalShipper"]

#: Seconds before a replication socket operation is declared dead.
LINK_TIMEOUT = 10.0


class PeerLink:
    """One replica connection: socket, liveness, and counters."""

    def __init__(self, endpoint: str) -> None:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"peer endpoint must be host:port, got {endpoint!r}")
        self.endpoint = endpoint
        self.host = host
        self.port = int(port)
        #: Serializes all I/O on this link: ships, heartbeats, redials.
        #: Holders must not acquire any table lock (see module docs).
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None  # ta: guarded-by(self.lock)
        self.alive = False  # ta: guarded-by(self.lock)
        #: Tables a partial reconnect left behind the primary — the
        #: redial thread finishes them with a full-snapshot reconnect.
        self.pending_sync: Set[str] = set()  # ta: guarded-by(self.lock)
        self.ships = 0  # ta: guarded-by(self.lock)
        self.syncs = 0  # ta: guarded-by(self.lock)
        self.drops = 0  # ta: guarded-by(self.lock)

    def close_locked(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None
        self.alive = False
        self.pending_sync = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerLink({self.endpoint!r})"


class TableSnapshot(NamedTuple):
    """One table's shippable state, materialized under ``table.lock``.

    The connect/sync path consumes only this — never live table state
    — so a reconnect can run entirely under ``link.lock`` without ever
    acquiring a table lock (the ABBA hazard against the append path,
    which holds ``table.lock`` while shipping).
    """

    name: str
    schema: Schema
    rows: List[Any]
    version: int
    fingerprint: int
    statements: List[Tuple[str, int, int]]


class JournalShipper:
    """Ships committed batches from one primary to its replicas."""

    def __init__(
        self,
        node: "ReplicationNode",
        peers: List[str],
        *,
        heartbeat_ms: float = 100.0,
    ) -> None:
        self._node = node
        self.links = [PeerLink(endpoint) for endpoint in peers]
        self._heartbeat_s = max(heartbeat_ms, 1.0) / 1000.0
        self._stop = threading.Event()
        self._beat_thread: Optional[threading.Thread] = None
        self._redial_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Dial every peer (best effort — a down replica stays a dead
        link the redial thread keeps reviving) and start beating."""
        snapshots = self._snapshot_tables()
        for link in self.links:
            with link.lock:
                try:
                    self._connect_locked(link, snapshots)
                except StaleEpoch:
                    # A higher epoch exists: _receive already fenced
                    # the node.  Starting still succeeds — a fenced
                    # node must stay up to serve typed refusals.
                    link.close_locked()
                except (TemporalAggregateError, ConnectionClosed, FrameError, OSError):
                    link.close_locked()
        self._beat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-shipper-beat", daemon=True
        )
        self._beat_thread.start()
        self._redial_thread = threading.Thread(
            target=self._redial_loop, name="repro-shipper-redial", daemon=True
        )
        self._redial_thread.start()

    def signal_stop(self) -> None:
        """Flag the shipper down without touching any link.

        The fence path calls this *while a link lock may be held on
        the current call stack* (a StaleEpoch reply surfaces inside
        ``_connect_locked``/``ship``), so it must not try to close
        sockets — :meth:`stop` does that later, lock-free to callers.
        """
        self._stop.set()

    def stop(self, join: bool = True) -> None:
        """Signal both threads down and close every link.
        ``join=False`` is for callers running *on* one of those
        threads (fencing discovered during a heartbeat must not
        deadlock joining itself)."""
        self._stop.set()
        current = threading.current_thread()
        for thread in (self._beat_thread, self._redial_thread):
            if join and thread is not None and thread is not current:
                thread.join(timeout=LINK_TIMEOUT)
        for link in self.links:
            with link.lock:
                link.close_locked()

    # ------------------------------------------------------------------
    # Table snapshots (always built before any link lock is taken)
    # ------------------------------------------------------------------

    def _snapshot_tables(
        self, names: Optional[Set[str]] = None
    ) -> Dict[str, TableSnapshot]:
        """Materialize shippable state for the named tables (all, when
        ``names`` is None), one ``table.lock`` at a time.

        Callers must hold **no link lock** (a link-lock holder waiting
        on a table lock is the ABBA deadlock against the append path)
        and at most the locks of tables in ``names`` — those re-enter
        their own reentrant lock, which the ship path's inline redial
        relies on.
        """
        snapshots: Dict[str, TableSnapshot] = {}
        for table in self._node.replicated_tables():
            if names is not None and table.name not in names:
                continue
            heap = table.heap
            assert heap is not None and table.served is not None
            with table.lock:
                rows = list(heap.scan())
                version, _ = table.served.stats()
                statements = (
                    heap.journal.recent_statements()
                    if heap.journal is not None
                    else []
                )
                if statements:
                    # Mid-append snapshot: the in-flight batch is
                    # journaled (ledger included) but not yet published
                    # to the served relation — the ledger's tail, not
                    # the served version, names the heap's state.
                    version = max(version, statements[-1][1])
                snapshots[table.name] = TableSnapshot(
                    name=table.name,
                    schema=table.schema,
                    rows=rows,
                    version=version,
                    fingerprint=heap.fingerprint,
                    statements=statements,
                )
        return snapshots

    # ------------------------------------------------------------------
    # Connect / resync
    # ------------------------------------------------------------------

    def _connect_locked(
        self, link: PeerLink, snapshots: Dict[str, TableSnapshot]
    ) -> None:
        """Handshake and catch the replica up from ``snapshots``.

        Caller holds ``link.lock`` and must have built ``snapshots``
        beforehand; no table lock is acquired here.  Tables without a
        snapshot are deferred to ``link.pending_sync`` (the redial
        thread reconnects with a full snapshot set).  Raises on any
        failure (caller marks the link).
        """
        link.close_locked()
        sock = socket.create_connection(
            (link.host, link.port), timeout=LINK_TIMEOUT
        )
        try:
            # The query server greets every connection with its hello
            # frame; consume it before speaking rep.* ops.
            raise_for_error(recv_frame(sock))
            tables = {
                table.name: {"schema": schema_spec(table.schema)}
                for table in self._node.replicated_tables()
            }
            self._send(
                sock,
                hello_frame(self._node.epoch, tables, self._node.endpoint),
            )
            reply = self._receive(sock)
            cursors = dict(reply.get("tables") or {})
            deferred: Set[str] = set()
            for table in self._node.replicated_tables():
                snapshot = snapshots.get(table.name)
                if snapshot is None:
                    deferred.add(table.name)
                    continue
                cursor = dict(cursors.get(table.name) or {})
                self._sync_snapshot_locked(sock, snapshot, cursor)
        except BaseException:
            sock.close()
            raise
        link.sock = sock
        link.alive = True
        link.pending_sync = deferred

    def _sync_snapshot_locked(
        self,
        sock: socket.socket,
        snapshot: TableSnapshot,
        cursor: Dict[str, Any],
    ) -> None:
        """Bring one table from the replica's cursor to the snapshot's
        tail.  Pure snapshot reads and socket I/O — no table state."""
        applied = require_int(cursor, "applied_count")
        total = len(snapshot.rows)
        if applied > total:
            raise ReplicationError(
                f"replica holds {applied} rows of {snapshot.name!r} but this "
                f"primary snapshot only has {total} — refusing to "
                "ship into a longer history (rebuild the replica, or retry "
                "once the snapshot catches up)"
            )
        if applied:
            prefix = fingerprint_rows(islice(snapshot.rows, applied))
            if prefix != require_int(cursor, "fingerprint"):
                raise ReplicationError(
                    f"replica's first {applied} rows of {snapshot.name!r} "
                    "diverge from this primary's fingerprint chain — "
                    "refusing to ship (rebuild the replica)"
                )
        if (
            applied == total
            and require_int(cursor, "applied_version") >= snapshot.version
        ):
            return
        frame = partial(
            sync_frame,
            self._node.epoch,
            snapshot.name,
            version=snapshot.version,
            row_count=total,
            fingerprint=snapshot.fingerprint,
        )
        # Size the chunks beside the largest the frame's other fields
        # get: the last base count, the ledger, and ``false``.
        largest = frame(
            base_count=total, rows=[], statements=snapshot.statements, final=False
        )
        step = sync_chunk_rows(
            snapshot.schema, len(encode_frame(self._stamped(largest)))
        )
        for base in range(applied, max(total, applied + 1), step):
            final = base + step >= total
            self._send(
                sock,
                frame(
                    base_count=base,
                    rows=wire_rows(snapshot.rows[base : base + step]),
                    statements=snapshot.statements if final else [],
                    final=final,
                ),
            )
            self._receive(sock)

    def _stamped(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``frame`` with the shared replication auth token, which rides
        every ``rep.*`` frame when the node has one configured."""
        secret = self._node.repl_secret
        if secret is not None:
            frame["auth"] = secret
        return frame

    def _send(self, sock: socket.socket, frame: Dict[str, Any]) -> None:
        """One stamped frame out."""
        send_frame(sock, self._stamped(frame))

    def _receive(self, sock: socket.socket) -> Dict[str, Any]:
        """One reply, with the epoch fence applied: a peer refusing us
        because a *higher* epoch exists means we were deposed — fence
        now.  A peer that merely fenced itself against our (current)
        epoch is just a dead link, not a demotion."""
        try:
            return raise_for_error(recv_frame(sock))
        except StaleEpoch as error:
            if error.observed_epoch > self._node.epoch:
                self._node.fence(error.observed_epoch)
            raise

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def ship(self, batch: ShipBatch) -> int:
        """Ship one committed batch to every live link.

        The caller is the append path and holds the shipped table's
        (reentrant) lock — and no other table's.  Returns the number
        of replicas that applied the batch.  Dead links are skipped
        (the redial thread revives them; the reconnect sync carries
        this batch).  A transient mid-ship failure gets exactly one
        immediate redial, syncing *only the shipped table* from a
        snapshot built outside ``link.lock`` — other tables are
        deferred to the redial thread, because snapshotting them here
        could interleave table locks with a concurrent appender.
        ``StaleEpoch`` propagates after self-fencing — the caller's
        client must see the typed refusal.
        """
        delivered = 0
        for link in self.links:
            redial = False
            with link.lock:
                if not link.alive or link.sock is None:
                    continue
                try:
                    self._send(link.sock, ship_frame(self._node.epoch, batch))
                    self._receive(link.sock)
                    link.ships += 1
                    delivered += 1
                except StaleEpoch:
                    link.close_locked()
                    raise
                except (
                    TemporalAggregateError,
                    ConnectionClosed,
                    FrameError,
                    OSError,
                ):
                    # A torn frame or a cursor mismatch: one immediate
                    # redial catches the replica up — the reconnect
                    # sync includes this batch, already in our heap.
                    # (Duplicate delivery on the replica is idempotent,
                    # so overlap with a half-applied ship is safe.)
                    link.drops += 1
                    link.close_locked()
                    redial = True
            if not redial:
                continue
            # Snapshot with no link lock held: the shipped table's
            # lock is already ours (reentrant), and no other table
            # lock is touched.
            snapshots = self._snapshot_tables({batch.table})
            with link.lock:
                try:
                    self._connect_locked(link, snapshots)
                    link.syncs += 1
                    delivered += 1
                except StaleEpoch:
                    link.close_locked()
                    raise
                except (
                    TemporalAggregateError,
                    ConnectionClosed,
                    FrameError,
                    OSError,
                ):
                    link.close_locked()
        return delivered

    # ------------------------------------------------------------------
    # Heartbeats and redials (separate threads: a slow catch-up sync
    # must never delay another replica's liveness signal)
    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """Beat every live link each tick — short I/O only, no table
        locks, no reconnects."""
        while not self._stop.wait(self._heartbeat_s):
            if self._node.role != "primary":
                return
            for link in self.links:
                with link.lock:
                    if not link.alive or link.sock is None:
                        continue
                    try:
                        self._send(
                            link.sock, heartbeat_frame(self._node.epoch)
                        )
                        self._receive(link.sock)
                    except StaleEpoch:
                        # fence() already ran inside _receive; the
                        # loop exits on the role check above.
                        link.close_locked()
                    except (ConnectionClosed, FrameError, OSError):
                        link.drops += 1
                        link.close_locked()

    def _redial_loop(self) -> None:
        """Revive dead links and finish deferred per-table syncs.

        Snapshots are built first, with no link lock held; the
        reconnect itself then runs under ``link.lock`` consuming only
        snapshot state — the one sanctioned direction of the
        ``table.lock → link.lock`` order.
        """
        while not self._stop.wait(self._heartbeat_s):
            if self._node.role != "primary":
                return
            for link in self.links:
                with link.lock:
                    needs_work = not link.alive or bool(link.pending_sync)
                if not needs_work:
                    continue
                snapshots = self._snapshot_tables()
                with link.lock:
                    if link.alive and not link.pending_sync:
                        # A ship's inline redial beat us to it.
                        continue
                    try:
                        self._connect_locked(link, snapshots)
                        link.syncs += 1
                    except StaleEpoch:
                        link.close_locked()
                    except (
                        TemporalAggregateError,
                        ConnectionClosed,
                        FrameError,
                        OSError,
                    ):
                        link.close_locked()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def peer_stats(self) -> List[Dict[str, Any]]:
        stats: List[Dict[str, Any]] = []
        for link in self.links:
            with link.lock:
                stats.append(
                    {
                        "endpoint": link.endpoint,
                        "alive": link.alive,
                        "ships": link.ships,
                        "syncs": link.syncs,
                        "drops": link.drops,
                        "pending_sync": sorted(link.pending_sync),
                    }
                )
        return stats
