"""Serving over the resident execution backend.

The two acceptance claims of the backend at the serving layer:

* **Single-flight coalescing** — N identical concurrent statements
  against the same pinned snapshot cost exactly one evaluation and one
  encoded reply; every client receives identical rows, and the
  scheduler's counters prove the shape (``statements_started == 1``,
  ``coalesced_statements == N - 1``).
* **Crash-isolated execution** — a resident worker killed mid-query is
  respawned by the supervisor and the swarm's replies stay
  row-identical to the serial replay oracle, for all five paper
  aggregates.

Plus the hygiene bookend: a server that started the pool unlinks every
shared-memory segment when it stops.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.exec.faults import FaultPlan, ShardFault, fault_plan
from repro.serve import QueryClient
from repro.serve.swarm import SwarmStep, run_swarm, verify_swarm

from tests.serve.conftest import make_relation, serve

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the resident pool needs the fork start method",
)

COUNT = "SELECT COUNT(name) FROM jobs"
SUM = "SELECT SUM(salary) FROM jobs"
MIXED = (
    "SELECT COUNT(name), SUM(salary), MIN(salary), MAX(salary), "
    "AVG(salary) FROM jobs"
)
QUERIES = [
    COUNT,
    SUM,
    "SELECT MIN(salary) FROM jobs",
    "SELECT MAX(salary) FROM jobs",
    "SELECT AVG(salary) FROM jobs",
]

def shm_names():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-pool-")
        }
    except FileNotFoundError:
        return set()


def fan_out(host, port, texts):
    """Fire one query per thread through its own session, barrier-
    synchronized so the statements overlap; returns replies in thread
    order."""
    barrier = threading.Barrier(len(texts))
    replies = [None] * len(texts)
    errors = []

    def go(index, text):
        try:
            with QueryClient(host, port) as client:
                barrier.wait(timeout=30.0)
                replies[index] = client.query(text)
        except BaseException as error:
            errors.append(error)
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [
        threading.Thread(target=go, args=(index, text))
        for index, text in enumerate(texts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    if errors:
        raise errors[0]
    return replies


class TestCoalescing:
    def test_identical_statements_share_one_flight(self):
        """Six identical concurrent statements: one sweep, one encode,
        six identical replies."""
        n_clients = 6
        with serve(
            make_relation(200),
            workers=n_clients,
            max_sessions=n_clients + 2,
            debug_statement_delay_ms=150,
            reject_load=100.0,
        ) as runner:
            replies = fan_out(
                runner.host, runner.port, [COUNT] * n_clients
            )
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()

        rows = [reply.rows for reply in replies]
        assert all(candidate == rows[0] for candidate in rows)
        assert all(
            reply.pinned_version == replies[0].pinned_version
            for reply in replies
        )
        scheduler = stats["scheduler"]
        assert scheduler["statements_started"] == 1
        assert scheduler["coalesced_statements"] == n_clients - 1

    def test_different_statements_do_not_coalesce(self):
        with serve(
            make_relation(200),
            workers=len(QUERIES),
            max_sessions=len(QUERIES) + 2,
            debug_statement_delay_ms=100,
            reject_load=100.0,
        ) as runner:
            replies = fan_out(runner.host, runner.port, list(QUERIES))
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()
        assert all(reply.rows for reply in replies)
        scheduler = stats["scheduler"]
        assert scheduler["statements_started"] == len(QUERIES)
        assert scheduler["coalesced_statements"] == 0

    def test_append_between_queries_is_never_coalesced_across(self):
        """A statement admitted after an append pins the *new* version,
        so it can never join a pre-append flight (stale reuse)."""
        with serve(
            make_relation(100),
            workers=4,
            debug_statement_delay_ms=50,
            reject_load=100.0,
        ) as runner:
            with QueryClient(runner.host, runner.port) as first:
                before = first.query(COUNT)
                first.append(
                    "jobs", [["zz", 999, 0, 500]]
                )
                after = first.query(COUNT)
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()
        assert after.pinned_version > before.pinned_version
        assert after.rows != before.rows
        assert stats["scheduler"]["coalesced_statements"] == 0


@needs_fork
class TestPoolBackedSwarm:
    def test_swarm_with_resident_worker_kill_matches_serial(
        self, monkeypatch
    ):
        """10 concurrent clients (readers + appenders) with a resident
        worker killed mid-query: the supervisor respawns it (pool forks
        exceed the configured worker count) and every reply is
        row-identical to the serial replay."""
        n = 400
        # Make the resident backend reachable on any machine: the
        # planner's cached_sweep rule fires at this size, shards into
        # multiple time windows regardless of cpu_count, and the pool's
        # publish threshold sits below the relation size.
        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 4
        )
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)

        def reader(i):
            steps = []
            for j in range(3):
                steps.append(
                    SwarmStep("query", text=QUERIES[(i + j) % len(QUERIES)])
                )
                steps.append(SwarmStep("stall", seconds=0.01 * (i % 3)))
            return steps

        def appender(i):
            steps = []
            for j in range(2):
                rows = tuple(
                    (
                        f"a{i}b{j}r{k}",
                        100 * i + 10 * j + k,
                        5 * k,
                        5 * k + 20 + i,
                    )
                    for k in range(3)
                )
                steps.append(SwarmStep("append", table="jobs", rows=rows))
                steps.append(SwarmStep("query", text=MIXED))
            return steps

        scripts = [reader(i) for i in range(8)] + [appender(8), appender(9)]
        plan = FaultPlan(
            name="kill-resident",
            shard_faults=(ShardFault(shard=0, kind="kill", attempts=1),),
        )
        with serve(
            make_relation(n),
            workers=4,
            max_sessions=32,
            pool_workers=2,
            # Coalesced statements must be exact too: they reuse the
            # leader's (verified) rows.
            reject_load=100.0,
        ) as runner:
            with fault_plan(plan):
                reports = run_swarm(runner.host, runner.port, scripts)
            with QueryClient(runner.host, runner.port) as client:
                assert client.query(COUNT).rows
                stats = client.stats()

        unexpected = [(r.client_id, r.errors) for r in reports if r.errors]
        assert not unexpected, f"swarm clients failed: {unexpected}"
        appends = [a for r in reports for a in r.appends]
        assert len(appends) == 4
        verified = verify_swarm(lambda: make_relation(n), reports, "jobs")
        assert verified >= 28  # 8 readers x 3 + 2 appenders x 2
        # The kill fired inside at least one resident worker and the
        # supervisor replaced it: more forks than configured workers.
        pool_stats = stats["pool"]
        assert pool_stats["workers"] == 2
        assert pool_stats["forks"] > 2

    def test_server_stop_unlinks_all_segments(self, monkeypatch):
        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 4
        )
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        before = shm_names()
        with serve(
            make_relation(400), workers=4, pool_workers=1, reject_load=100.0
        ) as runner:
            with QueryClient(runner.host, runner.port) as client:
                # Twice: the planner's repeat detection licenses the
                # cached (pool-backed) sweep on the second sighting.
                client.query(SUM)
                client.query(SUM)
                stats = client.stats()
            assert stats["pool"]["forks"] == 1
            assert stats["pool"]["live_segments"] > 0
        assert shm_names() == before


class TestPoolOff:
    def test_pool_workers_zero_never_forks(self, monkeypatch):
        """The default config (``pool_workers=0``) evaluates in process:
        neither a planned ``parallel_sweep`` nor a ``cached_sweep``
        repeat may start the process-default pool from a scheduler
        thread, and nothing is left in ``/dev/shm`` after stop."""
        from repro.core.aggregates import get_aggregate
        from repro.core.planner import choose_strategy
        from repro.exec import pool as pool_module

        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 2
        )
        relation = make_relation(400)
        statistics = relation.statistics()
        count = get_aggregate("count")
        first = choose_strategy(statistics, aggregate=count)
        repeat = choose_strategy(
            statistics, aggregate=count, repeat_observed=True
        )
        assert (first.strategy, first.shards) == ("parallel_sweep", 2)
        assert (repeat.strategy, repeat.shards) == ("cached_sweep", 2)

        pool_module.shutdown_default_pool()  # known-clean slate
        prefix = f"repro-pool-{os.getpid()}-"
        try:
            with serve(relation, workers=4, reject_load=100.0) as runner:
                with QueryClient(runner.host, runner.port) as client:
                    planned = client.query(COUNT)  # parallel_sweep
                    repeated = client.query(COUNT)  # cached_sweep
                    stats = client.stats()
            assert planned.rows and repeated.rows == planned.rows
            assert stats["cache"]["misses"] == 1  # the repeat ran cached
            assert pool_module.active_pool() is None
            assert stats["pool"]["forks"] == 0
            assert not [n for n in shm_names() if n.startswith(prefix)]
        finally:
            pool_module.shutdown_default_pool()
