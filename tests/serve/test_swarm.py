"""Swarm acceptance tests: concurrent clients vs the serial reference.

The headline correctness claim of the serving layer: N concurrent
sessions mixing reads and appends — with clients dying mid-query and a
server-side shard fault injected — each receive rows *identical* to a
serial, single-threaded execution at their pinned snapshot, for every
paper aggregate (COUNT/SUM/MIN/MAX/AVG).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.exec.errors import ServerOverloaded
from repro.exec.faults import FaultPlan, ShardFault, fault_plan
from repro.serve import QueryClient
from repro.serve.swarm import SwarmStep, run_swarm, verify_swarm

from tests.serve.conftest import make_relation, serve

COUNT = "SELECT COUNT(name) FROM jobs"
SUM = "SELECT SUM(salary) FROM jobs"
MINMAX = "SELECT MIN(salary), MAX(salary) FROM jobs"
AVG = "SELECT AVG(salary) FROM jobs"
MIXED = "SELECT COUNT(name), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM jobs"
FAULTY = "SELECT SUM(salary) FROM jobs USING ALGORITHM parallel_sweep"

QUERIES = [COUNT, SUM, MINMAX, AVG, MIXED]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard faults fire inside resident pool workers",
)


def reader_script(i, rounds=3):
    steps = []
    for j in range(rounds):
        steps.append(SwarmStep("query", text=QUERIES[(i + j) % len(QUERIES)]))
        steps.append(SwarmStep("stall", seconds=0.01 * (i % 3)))
    return steps


def appender_script(i, batches=2):
    steps = []
    for j in range(batches):
        rows = tuple(
            (f"a{i}b{j}r{k}", 100 * i + 10 * j + k, 5 * k, 5 * k + 20 + i)
            for k in range(3)
        )
        steps.append(SwarmStep("append", table="jobs", rows=rows))
        steps.append(SwarmStep("stall", seconds=0.005))
        steps.append(SwarmStep("query", text=MIXED))
    return steps


class TestSwarmAcceptance:
    @needs_fork
    def test_mixed_swarm_with_kills_and_shard_fault_matches_serial(
        self, monkeypatch
    ):
        """N=10 concurrent clients (readers + appenders), 2 mid-query
        client kills, 1 injected server-side shard fault: every
        surviving reply is row-identical to the serial reference."""
        n = 64
        # Make the resident pool reachable at this size, so the injected
        # shard fault fires inside a real pool worker: FAULTY always
        # fans out over 2 shards, while the planner (one core) keeps
        # every other statement on the single sweep.
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 16)
        monkeypatch.setattr(
            "repro.core.parallel.available_workers", lambda cap=8: 2
        )
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 1
        )
        scripts = [
            reader_script(0),
            reader_script(1),
            reader_script(2),
            reader_script(3),
            appender_script(4),
            appender_script(5),
            # Two mid-query kills: statement sent, connection severed
            # before the reply.
            [SwarmStep("query", text=COUNT), SwarmStep("kill", text=MIXED)],
            [SwarmStep("stall", seconds=0.02), SwarmStep("kill", text=SUM)],
            # The shard-fault client: its query runs the pooled parallel
            # sweep, where shard 1's first attempt raises an injected
            # fault; supervision must retry/fall back to exact rows.
            [
                SwarmStep("query", text=FAULTY),
                SwarmStep("query", text=FAULTY),
            ],
            reader_script(9),
        ]
        assert len(scripts) >= 8
        plan = FaultPlan(
            shard_faults=(ShardFault(shard=1, kind="raise", attempts=1),),
            name="swarm-shard-fault",
        )
        # A high load bound: this test pins down *snapshot
        # correctness* (overload is exercised elsewhere).
        with serve(
            make_relation(n), workers=4, max_sessions=32, pool_workers=2,
            reject_load=100.0,
        ) as runner:
            with fault_plan(plan):
                reports = run_swarm(runner.host, runner.port, scripts)
            # The server survives the swarm and still answers.
            with QueryClient(runner.host, runner.port) as client:
                assert client.query(COUNT).rows
                stats = client.stats()
        # FAULTY's shards ran on the pool, where the fault fires.
        assert stats["pool"]["pool_shards"] > 0

        killed = [r for r in reports if r.killed]
        assert len(killed) == 2
        unexpected = [
            (r.client_id, r.errors) for r in reports if r.errors
        ]
        assert not unexpected, f"swarm clients failed: {unexpected}"

        appends = [a for r in reports for a in r.appends]
        assert len(appends) == 4  # 2 appenders x 2 batches
        verified = verify_swarm(lambda: make_relation(n), reports, "jobs")
        # Readers: 4x3 + appenders: 2x2 + faulty: 2 + reader 9: 3.
        assert verified >= 21

    def test_swarm_under_overload_retries_and_stays_exact(self):
        """A one-worker server under eight concurrent readers rejects
        with retry-after at the load bound; clients back off and
        resubmit, and every eventually-served reply is still exact."""
        n = 48
        scripts = [reader_script(i, rounds=2) for i in range(8)]
        with serve(
            make_relation(n), workers=1, max_sessions=16,
            reject_load=2.0, retry_after_ms=20,
        ) as runner:
            reports = run_swarm(runner.host, runner.port, scripts)

        unexpected = [(r.client_id, r.errors) for r in reports if r.errors]
        assert not unexpected, f"swarm clients failed: {unexpected}"
        verified = verify_swarm(lambda: make_relation(n), reports, "jobs")
        assert verified == 16
        # The load bound was reached: someone was told to back off.
        assert sum(r.overload_retries for r in reports) > 0


class TestOverloadExactness:
    def test_k_capacity_k_plus_m_clients_exactly_m_rejections(self):
        """K session slots, K+M connection attempts: exactly M typed
        ``ServerOverloaded`` refusals carrying retry-after, no hangs,
        and full correct service once the K holders drain."""
        k, m = 4, 3
        n = 32
        with serve(make_relation(n), max_sessions=k) as runner:
            holders = [
                QueryClient(runner.host, runner.port) for _ in range(k)
            ]
            rejections = []
            started = time.monotonic()
            for _ in range(m):
                with pytest.raises(ServerOverloaded) as info:
                    QueryClient(runner.host, runner.port)
                rejections.append(info.value)
            assert time.monotonic() - started < 10.0  # refused, not hung
            assert len(rejections) == m
            for rejection in rejections:
                assert rejection.reason == "sessions"
                assert rejection.retry_after_ms > 0

            # The K admitted sessions were never disturbed.
            for holder in holders:
                assert holder.query(COUNT).rows
            for holder in holders:
                holder.close()

            # After drain, a new client gets full service with exact
            # rows.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    client = QueryClient(runner.host, runner.port)
                    break
                except ServerOverloaded:
                    assert time.monotonic() < deadline, "slot never freed"
                    time.sleep(0.02)
            with client:
                reply = client.query(MIXED)
                stats = client.stats()
            assert stats["admission"]["sessions_rejected"] == m
            from repro.tsql2.executor import Database

            database = Database()
            database.register(make_relation(n), name="jobs")
            assert [tuple(r) for r in reply.rows] == [
                tuple(r) for r in database.execute(MIXED).rows
            ]
