"""Ship-side crash matrix (extends the PR 5 storage crash matrix).

Three cuts along the shipping path — a torn connection mid-ship, a
replica killed mid-replay, and duplicate batch delivery — each must
converge back to the primary's fingerprint chain with no acknowledged
row lost or doubled.
"""

from __future__ import annotations

import os

import pytest

from repro.exec.errors import ReplicationError
from repro.serve.client import QueryClient
from repro.replicate.applier import ReplicatedTable
from repro.replicate.wire import ship_frame, ShipBatch

from tests.replicate.conftest import jobs_spec, make_node, replicated_pair


def _ship_frame_for(table: ReplicatedTable, rows, version, sid):
    """Build the ship frame the primary would send for one batch."""
    heap = table.heap
    records = []
    for values, start, end in rows:
        from repro.relation.tuples import TemporalTuple

        records.append(heap.codec.encode(TemporalTuple(tuple(values), start, end)))
    return ship_frame(
        0,
        ShipBatch(
            table=table.name,
            version=version,
            row_count=len(heap) + len(rows),
            base_count=len(heap),
            fingerprint=_fold_over(heap.fingerprint, heap.codec, records),
            sid=sid,
            records=records,
        ),
    )


def _fold_over(fingerprint, codec, records):
    from repro.relation.relation import fingerprint_rows

    return fingerprint_rows(map(codec.decode, records), fingerprint)


def test_torn_link_mid_ship_resyncs_and_converges(tmp_path):
    with replicated_pair(tmp_path) as pair:
        with QueryClient(pair.primary_runner.host, pair.primary_runner.port) as c:
            c.append("jobs", [["alice", 100, 0, 10]])
            # Cut the shipping connection under the primary's feet —
            # the torn-frame case: the next ship hits a dead socket.
            link = pair.primary.shipper.links[0]
            with link.lock:
                assert link.alive
                link.sock.close()
            # The append must still be acknowledged: the shipper
            # redials and the reconnect sync carries the batch.
            version, count = c.append("jobs", [["bob", 200, 5, 15]])
            assert (version, count) == (2, 2)
        assert (
            pair.replica.tables["jobs"].cursor()
            == pair.primary.tables["jobs"].cursor()
        )


def test_replica_killed_mid_replay_recovers_committed_prefix(tmp_path):
    node = make_node(str(tmp_path / "r"), role="replica")
    try:
        table = node.tables["jobs"]
        frame1 = _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
        node.applier.apply_ship(frame1)
        committed_fp = table.heap.fingerprint
        # Second batch: journaled but the "process dies" before COMMIT
        # — emulated by appending without commit, then abandoning.
        from repro.relation.tuples import TemporalTuple

        table.heap.append(TemporalTuple(("bob", 200), 5, 15))
        table.heap.abandon()
    finally:
        node._repl_executor.shutdown(wait=False)
    # Recovery discards the uncommitted tail: the replica restarts at
    # the committed prefix, still on the primary's chain.
    reborn = ReplicatedTable(**vars(jobs_spec(str(tmp_path / "r"))))
    reborn.open("commit")
    try:
        assert len(reborn.heap) == 1
        assert reborn.heap.fingerprint == committed_fp
        assert reborn.cursor()["applied_version"] == 1
    finally:
        reborn.close()


def test_duplicate_delivery_is_idempotent(tmp_path):
    node = make_node(str(tmp_path / "r"), role="replica")
    try:
        table = node.tables["jobs"]
        frame = _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
        first = node.applier.apply_ship(frame)
        assert first["duplicate"] is False
        fingerprint = table.heap.fingerprint
        # The same batch delivered again (shipper retry after a torn
        # ack): acknowledged as a duplicate, nothing mutated.
        second = node.applier.apply_ship(frame)
        assert second["duplicate"] is True
        assert len(table.heap) == 1
        assert table.heap.fingerprint == fingerprint
        assert node.applier.duplicates_ignored == 1
    finally:
        for t in node.tables.values():
            t.close()
        node._repl_executor.shutdown(wait=False)


def test_gap_delivery_demands_resync(tmp_path):
    node = make_node(str(tmp_path / "r"), role="replica")
    try:
        table = node.tables["jobs"]
        node.applier.apply_ship(
            _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
        )
        # Version 3 arrives with version 2 lost in the cut: the replica
        # must refuse (typed) rather than apply out of order.
        stale = _ship_frame_for(table, [(["dave", 400], 1, 9)], 3, "c:3")
        with pytest.raises(ReplicationError, match="resync required"):
            node.applier.apply_ship(stale)
        assert len(table.heap) == 1
    finally:
        for t in node.tables.values():
            t.close()
        node._repl_executor.shutdown(wait=False)


def test_divergent_batch_refused_before_mutation(tmp_path):
    node = make_node(str(tmp_path / "r"), role="replica")
    try:
        table = node.tables["jobs"]
        node.applier.apply_ship(
            _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
        )
        fingerprint = table.heap.fingerprint
        bad = _ship_frame_for(table, [(["bob", 200], 5, 15)], 2, "c:2")
        bad["fingerprint"] = 0xBAD  # a fork in the chain
        with pytest.raises(ReplicationError, match="diverges"):
            node.applier.apply_ship(bad)
        # The refusal left no trace: same rows, same fingerprint.
        assert len(table.heap) == 1
        assert table.heap.fingerprint == fingerprint
    finally:
        for t in node.tables.values():
            t.close()
        node._repl_executor.shutdown(wait=False)


def test_scrub_reports_chain_head_and_epoch(tmp_path):
    """The scrub CLI surfaces the journal's chained-fingerprint head,
    epoch, and retained ledger for a replicated heap."""
    from repro.storage.recovery import scrub

    node = make_node(str(tmp_path / "p"), role="primary")
    try:
        served = node.tables["jobs"].served
        node._apply_append(served, [(["alice", 100], 0, 10)], "c:1")
        path = node.tables["jobs"].path
        fingerprint = node.tables["jobs"].heap.fingerprint
    finally:
        for t in node.tables.values():
            t.close()
        node._repl_executor.shutdown(wait=False)
    report = scrub(path)
    text = "\n".join(report.lines())
    assert f"{fingerprint:#x}" in text
    assert report.journal_fingerprint == fingerprint
    assert report.journal_statements == 1
