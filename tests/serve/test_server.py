"""End-to-end server tests over real sockets.

Every test here runs a live :class:`QueryServer` on its own event-loop
thread and talks to it with the blocking client library — the same
stack the swarm acceptance tests and the serving benchmark use.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.exec.errors import DeadlineExceeded, ServerOverloaded
from repro.serve import QueryClient, RemoteQueryError
from repro.serve.protocol import recv_frame, send_frame
from repro.tsql2.executor import Database

from tests.serve.conftest import make_relation, serve

COUNT = "SELECT COUNT(name) FROM jobs"
MIXED = "SELECT COUNT(name), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM jobs"


def serial_rows(n, text):
    database = Database()
    database.register(make_relation(n), name="jobs")
    return [tuple(row) for row in database.execute(text).rows]


class TestSessionLifecycle:
    def test_hello_names_the_session_and_tables(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                assert client.session_id >= 1
                assert client.tables == ["jobs"]
                assert client.max_queue_depth > 0

    def test_ping_and_stats_ops(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                assert client.ping() >= 0.0
                stats = client.stats()
                assert stats["admission"]["active_sessions"] == 1
                assert stats["tables"]["jobs"]["rows"] == 64
                assert "cache" in stats and "scheduler" in stats

    def test_sessions_are_independent(self):
        with serve() as runner:
            a = QueryClient(runner.host, runner.port)
            b = QueryClient(runner.host, runner.port)
            try:
                assert a.session_id != b.session_id
                assert a.query(COUNT).rows == b.query(COUNT).rows
            finally:
                a.close()
                b.close()

    def test_polite_close_releases_the_slot(self):
        with serve(max_sessions=1) as runner:
            QueryClient(runner.host, runner.port).close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    QueryClient(runner.host, runner.port).close()
                    break
                except ServerOverloaded:
                    time.sleep(0.01)
            else:
                pytest.fail("session slot never released after close")


class TestQueries:
    def test_query_matches_serial_execution(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                reply = client.query(MIXED)
                assert [tuple(r) for r in reply.rows] == serial_rows(64, MIXED)
                assert reply.pinned_table == "jobs"
                assert reply.pinned_row_count == 64

    def test_column_accessor(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                reply = client.query(COUNT)
                assert reply.column("COUNT(name)") == [
                    row[-1] for row in reply.rows
                ]

    def test_unknown_table_is_a_typed_remote_error(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                with pytest.raises(RemoteQueryError) as info:
                    client.query("SELECT COUNT(x) FROM nope")
                assert info.value.remote_type == "TSQL2SemanticError"
                assert "unknown relation" in str(info.value)
                # The session survives a failed statement.
                assert client.query(COUNT).rows

    def test_syntax_error_is_typed(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                with pytest.raises(RemoteQueryError) as info:
                    client.query("SELEKT COUNT(x) FROM jobs")
                assert info.value.remote_type == "TSQL2SyntaxError"

    def test_server_deadline_crosses_the_wire_typed(self):
        with serve(deadline_ms=0.000001) as runner:
            with QueryClient(runner.host, runner.port) as client:
                with pytest.raises(DeadlineExceeded) as info:
                    client.query(COUNT)
                assert info.value.deadline_ms == pytest.approx(0.000001)


class TestAppends:
    def test_append_bumps_version_and_is_visible(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                before = client.query(COUNT)
                version, row_count = client.append(
                    "jobs", [["new", 123, 0, 50]]
                )
                assert version == before.pinned_version + 1
                assert row_count == before.pinned_row_count + 1
                after = client.query(COUNT)
                assert after.pinned_version == version
                assert after.rows != before.rows

    def test_snapshots_isolate_readers_from_appends(self):
        """Two replies at the same pinned version are identical even
        with appends landing between them."""
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                first = client.query(COUNT)
                client.append("jobs", [["x", 7, 0, 96]])
                second = client.query(COUNT)
                assert second.pinned_version == first.pinned_version + 1
                assert second.rows != first.rows

    def test_invalid_append_is_rejected_whole(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                before = client.query(COUNT)
                with pytest.raises(RemoteQueryError):
                    client.append(
                        "jobs",
                        [["ok", 1, 0, 5], ["bad-interval", 2, 9, 3]],
                    )
                after = client.query(COUNT)
                assert after.pinned_version == before.pinned_version
                assert after.pinned_row_count == before.pinned_row_count

    def test_malformed_append_payload_is_typed(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                with pytest.raises(RemoteQueryError):
                    client.append("jobs", [["only-one-field"]])


class TestProtocolAbuse:
    def test_unknown_op_gets_one_error_then_disconnect(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as client:
                client.send({"op": "frobnicate"})
                reply = client.recv_raw()
                assert reply["ok"] is False
                assert reply["error"]["type"] == "FrameError"

    def test_garbled_body_gets_a_typed_answer(self):
        with serve() as runner:
            sock = socket.create_connection((runner.host, runner.port))
            try:
                recv_frame(sock)  # hello
                body = b"\xff\xfe not json \x00"
                sock.sendall(struct.pack(">I", len(body)) + body)
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["type"] == "FrameError"
            finally:
                sock.close()

    def test_garbled_session_does_not_disturb_others(self):
        with serve() as runner:
            with QueryClient(runner.host, runner.port) as healthy:
                sock = socket.create_connection((runner.host, runner.port))
                recv_frame(sock)
                sock.sendall(struct.pack(">I", 5) + b"ouch!")
                sock.close()
                assert [tuple(r) for r in healthy.query(MIXED).rows] == (
                    serial_rows(64, MIXED)
                )

    def test_kill_mid_query_leaves_the_server_serving(self):
        with serve(debug_statement_delay_ms=50.0) as runner:
            victim = QueryClient(runner.host, runner.port)
            victim.send({"op": "query", "text": COUNT})
            victim.kill()  # RST before the reply exists
            with QueryClient(runner.host, runner.port) as client:
                assert client.query(COUNT).rows
                stats = client.stats()
                assert stats["admission"]["active_sessions"] == 1


class TestAdmissionOverTheWire:
    def test_session_limit_refusal_is_typed_at_connect(self):
        with serve(max_sessions=1) as runner:
            with QueryClient(runner.host, runner.port):
                with pytest.raises(ServerOverloaded) as info:
                    QueryClient(runner.host, runner.port)
                assert info.value.reason == "sessions"
                assert info.value.retry_after_ms > 0

    def test_queue_depth_rejections_ride_the_reply_order(self):
        """Pipelining far past the queue bound yields typed queue
        rejections, in order, with the session intact."""
        with serve(
            workers=1, max_queue_depth=2, debug_statement_delay_ms=100.0,
            reject_load=1000.0,
        ) as runner:
            with QueryClient(runner.host, runner.port) as client:
                sent = 6
                for _ in range(sent):
                    client.send({"op": "query", "text": COUNT})
                replies = [client.recv_raw() for _ in range(sent)]
                rejected = [r for r in replies if not r["ok"]]
                served_ok = [r for r in replies if r["ok"]]
                assert rejected, "pipelining past the bound must reject"
                for reply in rejected:
                    assert reply["error"]["type"] == "ServerOverloaded"
                    assert reply["error"]["reason"] == "queue"
                    assert reply["error"]["retry_after_ms"] > 0
                assert len(served_ok) >= 1
                # After draining, the session still works at full service.
                assert client.query(COUNT).rows

    def test_overload_rejection_is_typed_and_tallied(self):
        """workers=1 with slow statements: pipelined statements are
        served until the load bound, then refused with a typed
        overload rejection, and the stats frame tallies it."""
        with serve(
            workers=1, max_queue_depth=100, debug_statement_delay_ms=150.0,
        ) as runner:
            with QueryClient(runner.host, runner.port) as client:
                sent = 3
                for _ in range(sent):
                    client.send({"op": "query", "text": COUNT})
                replies = [client.recv_raw() for _ in range(sent)]
                overloaded = [
                    r for r in replies
                    if not r["ok"]
                    and r["error"].get("reason") == "overload"
                ]
                # Statement 1 at load 1.0 and 2 at 2.0 are served; 3
                # at 3.0 reaches reject_load.
                assert [r["ok"] for r in replies] == [True, True, False]
                assert len(overloaded) == 1
                assert overloaded[0]["error"]["retry_after_ms"] > 0
                stats = client.stats()
                assert stats["admission"]["statements_rejected_overload"] == 1

    def test_load_drains_back_to_full_service(self):
        with serve(
            workers=1, max_queue_depth=100, debug_statement_delay_ms=50.0,
            reject_load=4.0,
        ) as runner:
            with QueryClient(runner.host, runner.port) as client:
                for _ in range(3):
                    client.send({"op": "query", "text": COUNT})
                for _ in range(3):
                    client.recv_raw()
                # Drained: nothing is outstanding and the next
                # statement is served.
                assert client.stats()["admission"]["outstanding_statements"] == 0
                reply = client.query(COUNT)
                assert [tuple(r) for r in reply.rows] == serial_rows(64, COUNT)


class TestSharedCache:
    def test_repeated_statement_hits_on_a_one_worker_server(self):
        """A lone statement on one worker is judged at load 1.0, and a
        repeated unfiltered statement still reads the shared cache."""
        n = 8192
        with serve(make_relation(n), workers=1) as runner:
            with QueryClient(runner.host, runner.port) as client:
                replies = [client.query(COUNT) for _ in range(4)]
                cache = client.stats()["cache"]
        expected = serial_rows(n, COUNT)
        assert all([tuple(r) for r in reply.rows] == expected for reply in replies)
        # First send: a new signature; second: repeat -> miss + store;
        # third and fourth: pure hits.
        assert cache["misses"] == 1
        assert cache["hits"] == 2
        assert cache["entries"] == 1


class TestFairness:
    def test_newcomer_is_not_starved_by_a_flooder(self):
        delay_ms = 100.0
        with serve(
            workers=1, max_queue_depth=100,
            debug_statement_delay_ms=delay_ms, reject_load=1000.0,
        ) as runner:
            flooder = QueryClient(runner.host, runner.port)
            newcomer = QueryClient(runner.host, runner.port)
            try:
                backlog = 6
                for _ in range(backlog):
                    flooder.send({"op": "query", "text": COUNT})
                time.sleep(0.05)  # let the backlog queue up
                started = time.perf_counter()
                newcomer.query(COUNT)
                elapsed = time.perf_counter() - started
                # Round-robin: the newcomer waits for at most the
                # in-flight statement plus one of its own, never the
                # flooder's whole backlog (6 x delay).
                assert elapsed < (backlog - 1) * delay_ms / 1000.0
                for _ in range(backlog):
                    flooder.recv_raw()
            finally:
                flooder.close()
                newcomer.close()
