"""Regression tests for the replication review findings.

Each test pins one repaired failure mode: the append/redial lock-order
deadlock, a failed sync permanently wedging a replica's cursor, a slow
catch-up starving heartbeats into a spurious failover, and
unauthenticated ``rep.*`` admin ops.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec.errors import ReplicationError
from repro.relation.relation import fingerprint_rows
from repro.relation.tuples import TemporalTuple
from repro.serve.client import QueryClient
from repro.serve.server import ServerRunner
from repro.replicate.wire import hello_frame, sync_frame

from tests.replicate.conftest import make_node, replicated_pair
from tests.replicate.test_crash_matrix import _ship_frame_for


def _close_tables(node):
    for table in node.tables.values():
        table.close()
    node._repl_executor.shutdown(wait=False)


def _sync_chunk(table, rows, *, base_count, version, row_count,
                fingerprint, final, statements=()):
    heap = table.heap
    records = [
        heap.codec.encode(TemporalTuple(tuple(values), start, end))
        for values, start, end in rows
    ]
    return sync_frame(
        0,
        table.name,
        base_count=base_count,
        version=version,
        row_count=row_count,
        fingerprint=fingerprint,
        records=records,
        statements=statements,
        final=final,
    )


class TestFailedSyncRollsBack:
    def test_diverged_sync_restores_committed_cursor_and_resyncs(self, tmp_path):
        node = make_node(str(tmp_path / "r"), role="replica")
        try:
            table = node.tables["jobs"]
            node.applier.apply_ship(
                _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
            )
            committed = table.cursor()

            # A sync streams one uncommitted chunk, then its final
            # chunk acknowledges a fingerprint the replica can't reach.
            chunk = _sync_chunk(
                table, [(["bob", 200], 5, 15)],
                base_count=1, version=2, row_count=2,
                fingerprint=0, final=False,
            )
            node.applier.apply_sync(chunk)
            assert len(table.heap) == 2  # uncommitted run-ahead
            bad_final = _sync_chunk(
                table, [], base_count=2, version=2, row_count=2,
                fingerprint=0xBAD, final=True,
            )
            with pytest.raises(ReplicationError, match="diverged"):
                node.applier.apply_sync(bad_final)

            # The failure rolled the heap back to the committed prefix
            # — the cursor a reconnecting shipper sees must pass its
            # prefix check, not report the abandoned rows.
            table = node.tables["jobs"]
            assert table.cursor() == committed
            assert node.applier.rollbacks == 1

            # And a correct sync now succeeds from that cursor.
            good_fp = fingerprint_rows(
                [TemporalTuple(("bob", 200), 5, 15)], committed["fingerprint"]
            )
            good = _sync_chunk(
                table, [(["bob", 200], 5, 15)],
                base_count=1, version=2, row_count=2,
                fingerprint=good_fp, final=True,
            )
            reply = node.applier.apply_sync(good)
            assert reply["applied_count"] == 2
            assert node.tables["jobs"].cursor()["applied_version"] == 2
        finally:
            _close_tables(node)

    def test_hello_after_abandoned_sync_reports_committed_prefix(self, tmp_path):
        node = make_node(str(tmp_path / "r"), role="replica")
        try:
            table = node.tables["jobs"]
            node.applier.apply_ship(
                _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
            )
            committed = table.cursor()
            # The primary dies mid-sync: one chunk landed, no final.
            node.applier.apply_sync(
                _sync_chunk(
                    table, [(["bob", 200], 5, 15)],
                    base_count=1, version=2, row_count=2,
                    fingerprint=0, final=False,
                )
            )
            assert len(table.heap) == 2
            # The next primary's hello must see the committed prefix.
            reply = node.applier.apply_hello(
                hello_frame(
                    0,
                    {"jobs": {"record_bytes": table.heap.codec.record_bytes}},
                )
            )
            assert reply["tables"]["jobs"] == committed
            assert node.applier.rollbacks == 1
        finally:
            _close_tables(node)

    def test_ship_after_abandoned_sync_rolls_back_then_applies(self, tmp_path):
        node = make_node(str(tmp_path / "r"), role="replica")
        try:
            table = node.tables["jobs"]
            node.applier.apply_ship(
                _ship_frame_for(table, [(["alice", 100], 0, 10)], 1, "c:1")
            )
            node.applier.apply_sync(
                _sync_chunk(
                    table, [(["zomb", 999], 1, 2)],
                    base_count=1, version=2, row_count=2,
                    fingerprint=0, final=False,
                )
            )
            # A fresh incremental batch arrives instead of the sync's
            # final chunk: the leftover uncommitted row is discarded
            # and the batch applies on the committed prefix.
            table = node.tables["jobs"]
            frame = _ship_frame_for(
                node.tables["jobs"], [(["bob", 200], 5, 15)], 2, "c:2"
            )
            # Build the frame against the *committed* prefix, as the
            # primary would (its own heap never saw the zombie row).
            committed_fp = fingerprint_rows([TemporalTuple(("alice", 100), 0, 10)])
            frame["base_count"] = 1
            frame["row_count"] = 2
            frame["fingerprint"] = fingerprint_rows(
                [TemporalTuple(("bob", 200), 5, 15)], committed_fp
            )
            reply = node.applier.apply_ship(frame)
            assert reply["duplicate"] is False
            assert reply["applied_count"] == 2
            assert node.applier.rollbacks == 1
        finally:
            _close_tables(node)


class TestShipRedialLockOrder:
    def test_concurrent_appends_and_link_cuts_do_not_deadlock(self, tmp_path):
        """The review's ABBA scenario: appends holding table.lock ship
        under link.lock while the redial path brings a cut link back
        up.  With the old link.lock -> table.lock reconnect order this
        wedged the primary; now reconnects read a pre-built snapshot
        and the appenders must always finish."""
        with replicated_pair(tmp_path, heartbeat_ms=20.0) as pair:
            stop = threading.Event()
            errors = []

            def appender(idx: int) -> None:
                try:
                    with QueryClient(
                        pair.primary_runner.host, pair.primary_runner.port
                    ) as client:
                        for i in range(10):
                            client.append(
                                "jobs",
                                [[f"a{idx}_{i}"[:8], idx * 100 + i, i, i + 5]],
                            )
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(f"appender {idx}: {error}")

            def cutter() -> None:
                link = pair.primary.shipper.links[0]
                while not stop.is_set():
                    with link.lock:
                        if link.sock is not None:
                            link.sock.close()
                    time.sleep(0.01)

            appenders = [
                threading.Thread(target=appender, args=(i,), name=f"app-{i}")
                for i in range(3)
            ]
            cut_thread = threading.Thread(target=cutter, name="cutter")
            for thread in appenders:
                thread.start()
            cut_thread.start()
            try:
                for thread in appenders:
                    thread.join(timeout=60.0)
                wedged = [t.name for t in appenders if t.is_alive()]
                assert not wedged, f"appenders deadlocked: {wedged}"
            finally:
                stop.set()
                cut_thread.join(timeout=10.0)
            assert not errors, errors

            # Once the cutting stops the redial thread reconverges the
            # replica onto the acknowledged history.
            deadline = time.monotonic() + 15.0
            primary_cursor = pair.primary.tables["jobs"].cursor()
            assert primary_cursor["applied_count"] == 30
            while time.monotonic() < deadline:
                if pair.replica.tables["jobs"].cursor() == primary_cursor:
                    break
                time.sleep(0.02)
            assert pair.replica.tables["jobs"].cursor() == primary_cursor


class TestHeartbeatIsolation:
    def test_slow_resync_does_not_starve_live_replica_heartbeats(self, tmp_path):
        """A dead peer being (slowly) redialed must not delay the
        beats that keep a healthy replica's lease fresh — the old
        single-threaded loop resynced inline and starved them."""
        live = make_node(str(tmp_path / "live"), role="replica")
        live_runner = ServerRunner(live).start()
        dead = make_node(str(tmp_path / "dead"), role="replica")
        dead_runner = ServerRunner(dead).start()
        dead_endpoint = f"{dead_runner.host}:{dead_runner.port}"
        dead_runner.stop()
        primary = make_node(
            str(tmp_path / "primary"),
            role="primary",
            peers=[
                f"{live_runner.host}:{live_runner.port}",
                dead_endpoint,
            ],
            heartbeat_ms=25.0,
        )
        primary_runner = ServerRunner(primary).start()
        try:
            shipper = primary.shipper
            assert shipper is not None
            original = shipper._snapshot_tables

            def glacial_snapshot(names=None):
                time.sleep(0.5)
                return original(names)

            shipper._snapshot_tables = glacial_snapshot

            # Sample the live replica's heartbeat gap while the redial
            # thread grinds on the dead peer's half-second snapshots.
            worst = 0.0
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                worst = max(worst, live.heartbeat_age())
                time.sleep(0.02)
            assert worst < 0.35, (
                f"live replica went {worst:.3f}s without a heartbeat while "
                "a dead peer was being resynced"
            )
        finally:
            primary_runner.stop()
            live_runner.stop()


class TestReplicationAuth:
    def test_rep_ops_refused_without_token(self, tmp_path):
        node = make_node(
            str(tmp_path / "r"), role="replica", repl_secret="s3cret"
        )
        try:
            bare = node._rep_dispatch("rep.promote", {"op": "rep.promote"})
            assert bare.get("ok") is False
            assert "auth" in bare["error"]["message"]
            assert node.role == "replica"

            wrong = node._rep_dispatch(
                "rep.promote", {"op": "rep.promote", "auth": "guess"}
            )
            assert wrong.get("ok") is False
            assert node.role == "replica"

            good = node._rep_dispatch(
                "rep.promote", {"op": "rep.promote", "auth": "s3cret"}
            )
            assert good.get("ok") is True
            assert node.role == "primary"
        finally:
            _close_tables(node)

    def test_authenticated_pair_ships_end_to_end(self, tmp_path):
        secret = "pair-token"
        replica = make_node(
            str(tmp_path / "replica"), role="replica", repl_secret=secret
        )
        replica_runner = ServerRunner(replica).start()
        primary = make_node(
            str(tmp_path / "primary"),
            role="primary",
            peers=[f"{replica_runner.host}:{replica_runner.port}"],
            repl_secret=secret,
        )
        primary_runner = ServerRunner(primary).start()
        try:
            with QueryClient(
                primary_runner.host, primary_runner.port
            ) as client:
                version, count = client.append(
                    "jobs", [["alice", 100, 0, 10]]
                )
            assert (version, count) == (1, 1)
            assert (
                replica.tables["jobs"].cursor()
                == primary.tables["jobs"].cursor()
            )
        finally:
            primary_runner.stop()
            replica_runner.stop()

    def test_mismatched_token_never_brings_link_up(self, tmp_path):
        replica = make_node(
            str(tmp_path / "replica"), role="replica", repl_secret="right"
        )
        replica_runner = ServerRunner(replica).start()
        primary = make_node(
            str(tmp_path / "primary"),
            role="primary",
            peers=[f"{replica_runner.host}:{replica_runner.port}"],
            repl_secret="wrong",
        )
        primary_runner = ServerRunner(primary).start()
        try:
            stats = primary.shipper.peer_stats()
            assert stats[0]["alive"] is False
            assert replica.tables["jobs"].cursor()["applied_count"] == 0
        finally:
            primary_runner.stop()
            replica_runner.stop()
