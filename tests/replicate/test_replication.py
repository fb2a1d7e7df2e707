"""Steady-state replication over real sockets.

Every test drives a live primary+replica pair through the serving
protocol: appends land durably on the primary, ship synchronously,
and the replica's heap, served relation, and version numbers converge
to the primary's exactly.
"""

from __future__ import annotations

import pytest

from repro.exec.errors import NotPrimary, ReplicaLagExceeded
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.serve.client import QueryClient, RemoteQueryError
from repro.serve.server import ServerRunner
from repro.storage.heapfile import HeapFile
from repro.replicate.client import ReplicatedClient

from tests.replicate.conftest import make_node, replicated_pair


def _cursors(pair):
    return (
        pair.primary.tables["jobs"].cursor(),
        pair.replica.tables["jobs"].cursor(),
    )


def test_appends_ship_synchronously(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            assert c.role == "primary"
            assert c.streams["jobs"] == "rep:jobs"
            v1, n1 = c.append("jobs", [["alice", 100, 0, 10]])
            v2, n2 = c.append(
                "jobs", [["bob", 200, 5, 15], ["carol", 300, 8, 20]]
            )
        assert (v1, n1) == (1, 1)
        assert (v2, n2) == (2, 3)
        # Ship is synchronous: by the time the append was acknowledged
        # the replica had applied it — no sleeps, no polling.
        primary_cursor, replica_cursor = _cursors(pair)
        assert replica_cursor == primary_cursor
        assert replica_cursor["applied_version"] == 2
        assert replica_cursor["applied_count"] == 3


def test_replica_serves_reads_refuses_writes(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
        with QueryClient(pair.replica_runner.host, pair.replica_runner.port) as r:
            assert r.role == "replica"
            reply = r.query("SELECT COUNT(name) FROM jobs")
            assert reply.role == "replica"
            assert (0, 10, 1) in reply.rows
            with pytest.raises(NotPrimary) as exc:
                r.append("jobs", [["mallory", 1, 0, 1]])
            # The refusal redirects to the live primary.
            assert exc.value.primary_hint == pair.primary_endpoint


def test_read_token_gives_read_your_writes(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            version, _ = c.append("jobs", [["alice", 100, 0, 10]])
            uid = c.streams["jobs"]
        with QueryClient(pair.replica_runner.host, pair.replica_runner.port) as r:
            # At or below the applied version: served.
            reply = r.query("SELECT COUNT(name) FROM jobs", token=(uid, version))
            assert reply.pinned_version >= version
            # Beyond it: typed refusal with a retry hint, not stale rows.
            with pytest.raises(ReplicaLagExceeded) as exc:
                r.query(
                    "SELECT COUNT(name) FROM jobs", token=(uid, version + 1)
                )
            assert exc.value.token_version == version + 1
            assert exc.value.applied_version == version
            assert exc.value.retry_after_ms >= 1


def test_exactly_once_append_with_sid(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            first = c.append("jobs", [["alice", 100, 0, 10]], sid="c9:1")
            # A retry of the same statement (lost ack) re-acknowledges
            # the original identity without applying twice.
            second = c.append("jobs", [["alice", 100, 0, 10]], sid="c9:1")
        assert first == second == (1, 1)
        primary_cursor, replica_cursor = _cursors(pair)
        assert primary_cursor["applied_count"] == 1
        assert replica_cursor == primary_cursor


def test_dedup_window_replicates_to_replica(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            acked = c.append("jobs", [["alice", 100, 0, 10]], sid="c9:1")
        # The sid shipped with the batch: the replica's ledger already
        # knows it, so a post-failover retry would dedup there too.
        assert pair.replica.dedup_lookup("c9:1") == acked


def test_replicated_client_routes_writes_to_primary(tmp_path):
    with replicated_pair(tmp_path) as pair:
        # Endpoints listed replica-first: the client discovers the
        # primary via the NotPrimary hint and still lands the append.
        with ReplicatedClient(
            [pair.replica_endpoint, pair.primary_endpoint], client_id="rc"
        ) as client:
            version, count = client.append("jobs", [["alice", 100, 0, 10]])
            assert (version, count) == (1, 1)
            assert client.rotations >= 1
            reply = client.query("SELECT SUM(salary) FROM jobs", table="jobs")
            assert reply.pinned_version == version


@pytest.mark.parametrize(
    "refused_row",
    [["waytoolongname", 3, 0, 5], ["big", 2**31, 0, 5]],
    ids=["over-wide-string", "int-outside-int32"],
)
def test_refused_append_leaves_no_row_in_the_heap(tmp_path, refused_row):
    """The record codec refuses the batch's second row: its first row
    must not stay in the heap, where the next append's commit would
    make it durable although no reader ever saw it."""
    data = str(tmp_path / "p")
    primary = make_node(data, role="primary")
    runner = ServerRunner(primary).start()
    try:
        with QueryClient(runner.host, runner.port) as c:
            c.append("jobs", [["ok", 1, 0, 5]])
            with pytest.raises(RemoteQueryError) as info:
                c.append("jobs", [["fine", 2, 0, 5], refused_row])
            assert info.value.remote_type == "CodecError"
            c.append("jobs", [["next", 4, 0, 5]])
        table = primary.tables["jobs"]
        assert len(table.heap) == table.served.stats()[1] == 2
    finally:
        runner.stop()
    reborn = make_node(data, role="primary")
    runner = ServerRunner(reborn).start()
    try:
        recovered = [row.values[0] for row in reborn.tables["jobs"].served.pin()]
        assert recovered == ["ok", "next"]
    finally:
        runner.stop()


def test_replicated_append_encodes_each_record_once(tmp_path, monkeypatch):
    """The primary encodes a batch once, for its heap and its ship; the
    replica stores the shipped records as they arrive.  The journals,
    fingerprint chains and recovered rows match encoding per row."""
    rows = [["ann", 1, 0, 5], ["ben", 2, 3, 9], ["cy", 3, 3, 3], ["di", 4, 6, 20]]
    encodes = {"primary": 0, "replica": 0}
    with replicated_pair(tmp_path) as pair:
        for side, node in (("primary", pair.primary), ("replica", pair.replica)):
            codec = node.tables["jobs"].heap.codec

            def counted(row, side=side, encode=codec.encode):
                encodes[side] += 1
                return encode(row)

            monkeypatch.setattr(codec, "encode", counted)
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", rows)
        assert encodes == {"primary": 4, "replica": 0}
        primary_cursor, replica_cursor = _cursors(pair)
        assert replica_cursor == primary_cursor
    for side in ("primary", "replica"):
        heap = HeapFile.durable(
            EMPLOYED_SCHEMA, str(tmp_path / side / "jobs.heap")
        )
        try:
            assert [
                [*row.values, row.start, row.end] for row in heap.scan()
            ] == rows
            assert heap.fingerprint == primary_cursor["fingerprint"]
        finally:
            heap.close()


def test_late_starting_replica_catches_up_via_sync(tmp_path):
    # Primary accumulates history with no replica attached.
    replica_dir = str(tmp_path / "replica")
    primary = make_node(str(tmp_path / "primary"), role="primary")
    primary_runner = ServerRunner(primary).start()
    try:
        with QueryClient(primary_runner.host, primary_runner.port) as c:
            for i in range(5):
                c.append("jobs", [[f"p{i}", 100 + i, i, i + 10]], sid=f"c:{i}")
        # Now the replica comes up and the primary (restarted with the
        # peer configured) syncs it from row zero.
        replica = make_node(replica_dir, role="replica")
        replica_runner = ServerRunner(replica).start()
        try:
            shipper_peer = f"{replica_runner.host}:{replica_runner.port}"
            assert primary.shipper is None
            primary.attach_peer(shipper_peer)
            # The connect-time sync is synchronous inside start().
            assert replica.tables["jobs"].cursor() == primary.tables[
                "jobs"
            ].cursor()
            assert replica.tables["jobs"].cursor()["applied_version"] == 5
            # Ledger entries rode the sync: exactly-once spans catch-up.
            assert replica.dedup_lookup("c:4") is not None
            replica_runner.stop()
        finally:
            if replica_runner._thread is not None and replica_runner._thread.is_alive():
                replica_runner.stop()
    finally:
        primary_runner.stop()


def test_stats_frame_reports_replication(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
            stats = c.stats()
        replication = stats["replication"]
        assert replication["role"] == "primary"
        assert replication["tables"]["jobs"]["applied_count"] == 1
        peers = replication["peers"]
        assert len(peers) == 1 and peers[0]["alive"]
        with QueryClient(pair.replica_runner.host, pair.replica_runner.port) as r:
            rstats = r.stats()
        assert rstats["replication"]["role"] == "replica"
        assert rstats["replication"]["applier"]["batches_applied"] == 1
