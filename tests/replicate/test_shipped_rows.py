"""Replicated batches travel as ``append``-shaped rows.

The primary ships ``[value..., start, end]`` lists; the replica
validates and encodes them as an append would, and every batch, on
either side, is written through one method that refuses before the
first heap append.  These tests pin the cases that shape makes work —
wide records, a schema handshake by name — and the refusals that must
leave no row behind.
"""

from __future__ import annotations

import pytest

from repro.exec.errors import ReplicationError
from repro.relation.schema import EMPLOYED_SCHEMA, Schema
from repro.serve.client import QueryClient, RemoteQueryError
from repro.serve.server import ServerRunner
from repro.storage.heapfile import HeapFile
from repro.replicate.wire import sync_chunk_rows

from tests.replicate.conftest import make_node, replicated_pair
from tests.replicate.test_crash_matrix import _ship_frame_for
from tests.replicate.test_review_fixes import _close_tables, _sync_chunk

#: 612-byte records, past the 128-byte tuples the paper stores.
WIDE_SCHEMA = Schema.of("note:str:600", "salary:int:4")

#: Rows in one wide batch: 4.3 MB as an append request, and more rows
#: than one sync chunk of worst-case wide rows holds.
WIDE_ROWS = 7000


def _wide_rows(count):
    return [[f"{i:06d}" + "n" * 594, i, i, i + 10] for i in range(count)]


def _stored(path, schema=EMPLOYED_SCHEMA):
    heap = HeapFile.durable(schema, path)
    try:
        return [[*row.values, row.start, row.end] for row in heap.scan()]
    finally:
        heap.close()


def test_late_replica_catches_up_on_612_byte_records(tmp_path):
    assert sync_chunk_rows(WIDE_SCHEMA, 0) < WIDE_ROWS // 2
    primary = make_node(str(tmp_path / "primary"), schema=WIDE_SCHEMA)
    primary_runner = ServerRunner(primary).start()
    try:
        with QueryClient(primary_runner.host, primary_runner.port) as c:
            assert c.append("jobs", _wide_rows(WIDE_ROWS)) == (1, WIDE_ROWS)
        replica = make_node(
            str(tmp_path / "replica"), role="replica", schema=WIDE_SCHEMA
        )
        replica_runner = ServerRunner(replica).start()
        try:
            primary.attach_peer(f"{replica_runner.host}:{replica_runner.port}")
            primary_cursor = primary.tables["jobs"].cursor()
            assert replica.tables["jobs"].cursor() == primary_cursor
            assert primary_cursor["applied_count"] == WIDE_ROWS
            assert primary.shipper.peer_stats()[0]["alive"]
        finally:
            replica_runner.stop()
    finally:
        primary_runner.stop()
    assert _stored(str(tmp_path / "replica" / "jobs.heap"), WIDE_SCHEMA) == (
        _wide_rows(WIDE_ROWS)
    )


def test_wide_batch_is_on_the_replica_when_acknowledged(tmp_path):
    with replicated_pair(tmp_path, schema=WIDE_SCHEMA) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", _wide_rows(1))
            assert c.append("jobs", _wide_rows(WIDE_ROWS)[1:]) == (2, WIDE_ROWS)
        primary_cursor = pair.primary.tables["jobs"].cursor()
        assert pair.replica.tables["jobs"].cursor() == primary_cursor
        assert primary_cursor["applied_count"] == WIDE_ROWS
        stats = pair.primary.shipper.peer_stats()[0]
        assert stats["alive"] and stats["drops"] == 0


def test_replica_with_a_renamed_attribute_is_refused_at_hello(tmp_path):
    """Same record width, different attribute name: the shipper must not
    bring the link up, or the replica would store ``name`` values under
    ``who``."""
    renamed = Schema.of("who:str:8", "salary:int:4", padding=108)
    assert renamed.record_bytes == EMPLOYED_SCHEMA.record_bytes
    replica = make_node(str(tmp_path / "replica"), role="replica", schema=renamed)
    replica_runner = ServerRunner(replica).start()
    primary = make_node(
        str(tmp_path / "primary"),
        peers=[f"{replica_runner.host}:{replica_runner.port}"],
    )
    primary_runner = ServerRunner(primary).start()
    try:
        with QueryClient(primary_runner.host, primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
        assert primary.shipper.peer_stats()[0]["alive"] is False
        assert replica.tables["jobs"].cursor()["applied_count"] == 0
    finally:
        primary_runner.stop()
        replica_runner.stop()


@pytest.mark.parametrize(
    "refused, reason",
    [
        ((["alice", "lots"], 0, 10), "expects int"),
        ((["waytoolongname", 1], 0, 10), "exceeds the 8-byte width"),
        ((["alice", 1], 10, 0), "invalid valid-time bounds"),
        ((["bo\x00", 1], 0, 10), "ends in NUL"),
    ],
    ids=["wrong-type", "over-wide-string", "inverted-interval", "trailing-nul"],
)
def test_refused_shipped_row_leaves_heap_and_cursor_untouched(
    tmp_path, refused, reason
):
    node = make_node(str(tmp_path / "r"), role="replica")
    try:
        table = node.tables["jobs"]
        node.applier.apply_ship(
            _ship_frame_for(table, [(["ann", 1], 0, 5)], 1, "c:1")
        )
        cursor = table.cursor()
        ship = _ship_frame_for(table, [(["bob", 2], 1, 6), refused], 2, "c:2")
        sync = _sync_chunk(
            table, [(["bob", 2], 1, 6), refused],
            base_count=1, version=2, row_count=3, fingerprint=0, final=True,
        )
        for op, frame in (("rep.ship", ship), ("rep.sync", sync)):
            # The refusal is a typed error frame, not an escaped exception.
            reply = node._rep_dispatch(op, frame)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ReplicationError"
            assert reason in reply["error"]["message"]
            table = node.tables["jobs"]
            assert len(table.heap) == 1
            assert table.cursor() == cursor
        with pytest.raises(ReplicationError, match=reason):
            node.applier.apply_ship(ship)
        assert node.dedup_lookup("c:2") is None
    finally:
        _close_tables(node)


def test_append_with_an_unjournalable_sid_leaves_no_row_in_the_heap(tmp_path):
    """A sid with no UTF-8 is refused before the batch's rows reach the
    heap, where the next append's commit would make them durable
    although no reader saw them."""
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
            with pytest.raises(RemoteQueryError) as info:
                c.append("jobs", [["bob", 5, 5, 15]], sid="s\ud800")
            assert info.value.remote_type == "InvalidInput"
            assert c.append("jobs", [["carol", 300, 8, 20]]) == (2, 2)
        primary = pair.primary.tables["jobs"]
        assert len(primary.heap) == primary.served.stats()[1] == 2
        assert pair.replica.tables["jobs"].cursor() == primary.cursor()
        assert pair.replica.tables["jobs"].served.stats() == (2, 2)
    expected = [["alice", 100, 0, 10], ["carol", 300, 8, 20]]
    for side in ("primary", "replica"):
        assert _stored(str(tmp_path / side / "jobs.heap")) == expected


@pytest.mark.parametrize(
    "value", ["bo\x00", "s\ud800"], ids=["trailing-nul", "lone-surrogate"]
)
def test_str_the_codec_cannot_read_back_is_refused_typed(tmp_path, value):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
            before = (
                pair.primary.tables["jobs"].cursor(),
                pair.replica.tables["jobs"].cursor(),
            )
            with pytest.raises(RemoteQueryError) as info:
                c.append("jobs", [["bob", 1, 0, 5], [value, 200, 5, 15]])
            assert info.value.remote_type == "CodecError"
        assert (
            pair.primary.tables["jobs"].cursor(),
            pair.replica.tables["jobs"].cursor(),
        ) == before
    # The primary's heap reopens through recovery, holding what it served.
    assert _stored(str(tmp_path / "primary" / "jobs.heap")) == [
        ["alice", 100, 0, 10]
    ]
