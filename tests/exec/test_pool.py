"""The resident shared-memory execution backend, end to end.

Covers the full lifecycle the serving stack leans on: one publication
per ColumnSet, zero-copy worker sweeps that match the in-process
kernels row for row, crash/poison recovery through the resident
supervisor, the counter proofs (fork-once, zero hot-path tuple
materializations), and /dev/shm hygiene: a publication lives exactly
as long as its ColumnSet, workers map segments only while a job runs,
and stop unlinks what is left.
"""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from array import array

import pytest

from repro.cache.evaluator import evaluate_cached
from repro.cache.store import ShardResultCache
from repro.core import partition
from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import window_rows
from repro.core.columns import ColumnSet
from repro.core.partition import shard_bounds
from repro.exec.deadline import Deadline, DeadlineExceeded
from repro.exec.faults import FaultPlan, ShardFault, fault_plan
from repro.exec.pool import (
    ResidentWorkerPool,
    WORKER_DELTA_FIELDS,
    _shareable_values,
    pool_workers_from_env,
)
from repro.exec.supervision import RetryPolicy
from repro.metrics.counters import OperationCounters
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from tests.conftest import random_triples, triples_relation

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the resident pool needs the fork start method",
)

pytestmark = needs_fork

AGGREGATES = ["count", "sum", "min", "max", "avg"]

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def columns_for(seed=11, n=600, *, uid=901, version=1, valued=True):
    """A relation-identified ColumnSet of ``n`` random tuples."""
    triples = random_triples(seed, n, max_instant=400)
    triples.sort(key=lambda t: (t[0], t[1]))
    starts = array("q", (t[0] for t in triples))
    ends = array("q", (t[1] for t in triples))
    values = array("q", (t[2] for t in triples)) if valued else None
    return ColumnSet(starts, ends, values, uid=uid, version=version)


def shm_names():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-pool-")
        }
    except FileNotFoundError:  # non-Linux: rely on the pool's own view
        return set()


def live_segments(pool):
    return pool.stats()["live_segments"]


@pytest.fixture()
def pool():
    with ResidentWorkerPool(2) as resident:
        yield resident


def reference_rows(columns, aggregate_name, windows):
    aggregate = get_aggregate(aggregate_name)
    return [
        window_rows(
            columns.starts, columns.ends, columns.values, aggregate, lo, hi
        )[0]
        for lo, hi in windows
    ]


def windows_of(columns, shards):
    return shard_bounds(columns.starts, columns.ends, shards)


class TestEnvKnobs:
    def test_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_WORKERS", raising=False)
        assert pool_workers_from_env() is None
        monkeypatch.setenv("REPRO_POOL_WORKERS", "3")
        assert pool_workers_from_env() == 3
        monkeypatch.setenv("REPRO_POOL_WORKERS", "0")
        assert pool_workers_from_env() is None


class TestShareableValues:
    def test_int_list_packs(self):
        packed = _shareable_values([1, 2, 3])
        assert isinstance(packed, array) and packed.typecode == "q"

    def test_array_passes_through(self):
        values = array("q", [5, 6])
        assert _shareable_values(values) is values

    def test_none_and_unpackable(self):
        assert _shareable_values(None) is None
        assert _shareable_values(["a", "b"]) is None
        assert _shareable_values([1.5]) is None


class TestSweepEquality:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_matches_inprocess_kernels(self, pool, aggregate):
        columns = columns_for(valued=aggregate != "count")
        windows = windows_of(columns, 4)
        counters = OperationCounters()
        outcome = pool.sweep_columns(
            columns, windows, aggregate, counters=counters
        )
        assert outcome is not None
        shard_results, supervisor = outcome
        expected = reference_rows(columns, aggregate, windows)
        assert [rows for rows, _events in shard_results] == expected
        assert supervisor.report.pooled_shards == len(windows)
        assert supervisor.report.inprocess_shards == 0
        # The hot-path proof travels back as worker counter deltas.
        assert counters.pool_shards == len(windows)
        assert counters.tuple_materializations == 0

    def test_unidentified_snapshot_falls_back(self, pool):
        identified = columns_for()
        anonymous = ColumnSet(
            identified.starts, identified.ends, identified.values
        )
        windows = windows_of(anonymous, 2)
        assert pool.sweep_columns(anonymous, windows, "sum") is None
        assert live_segments(pool) == 0

    def test_unshareable_values_fall_back(self, pool):
        identified = columns_for()
        text = ColumnSet(
            identified.starts,
            identified.ends,
            ["x"] * len(identified),
            uid=902,
            version=1,
        )
        windows = windows_of(text, 2)
        assert pool.sweep_columns(text, windows, "min") is None
        assert live_segments(pool) == 0


class TestPublication:
    def test_publish_is_idempotent(self, pool):
        columns = columns_for(uid=903)
        windows = windows_of(columns, 2)
        counters = OperationCounters()
        for _ in range(3):
            outcome = pool.sweep_columns(
                columns, windows, "sum", counters=counters
            )
            assert outcome is not None
        # One ColumnSet = three segments (starts, ends, values), no
        # matter how many sweeps reuse it.
        assert counters.segments_published == 3
        assert live_segments(pool) == 3

    def test_column_keys_are_distinct_snapshots(self, pool):
        """One relation version's valued and timestamps-only column
        sets are two publications."""
        relation = triples_relation(random_triples(11, 600, max_instant=400))
        valued = relation.columns("salary")
        timestamps = relation.columns(None)
        windows = windows_of(valued, 2)
        assert pool.sweep_columns(valued, windows, "sum") is not None
        assert pool.sweep_columns(timestamps, windows, "count") is not None
        assert live_segments(pool) == 3 + 2

    def test_versions_are_distinct_snapshots(self, pool):
        held = [columns_for(uid=906, version=version) for version in (1, 2)]
        windows = windows_of(held[0], 2)
        for columns in held:
            pool.sweep_columns(columns, windows, "sum")
        assert live_segments(pool) == 6


class TestConcurrentWorkers:
    def test_workers_compute_in_parallel(self, pool):
        """Delay faults on the first job of BOTH workers: a serial
        per-worker drain would stack the sleeps (>= 2x the delay); the
        pipelined send + wait-any drain overlaps them."""
        from time import perf_counter

        columns = columns_for(uid=915)
        windows = windows_of(columns, 4)
        delay = 0.5
        plan = FaultPlan(
            name="delay-both",
            shard_faults=(
                ShardFault(0, "delay", attempts=1, delay_seconds=delay),
                ShardFault(1, "delay", attempts=1, delay_seconds=delay),
            ),
        )
        started = perf_counter()
        with fault_plan(plan):
            outcome = pool.sweep_columns(columns, windows, "sum")
        elapsed = perf_counter() - started
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            columns, "sum", windows
        )
        assert supervisor.report.pooled_shards == len(windows)
        assert elapsed < 2 * delay - 0.1, (
            f"sweeps did not overlap: {elapsed:.2f}s for two {delay}s delays"
        )


class TestRecovery:
    def test_worker_kill_respawns_and_retries(self, pool):
        columns = columns_for(uid=907)
        windows = windows_of(columns, 4)
        counters = OperationCounters()
        plan = FaultPlan(
            name="kill-first",
            shard_faults=(ShardFault(0, "kill", attempts=1),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                columns, windows, "sum", retry=FAST_RETRY, counters=counters
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            columns, "sum", windows
        )
        assert supervisor.report.respawns == 1
        assert supervisor.report.retries >= 1
        assert supervisor.report.degraded
        assert counters.worker_respawns == 1
        # fork accounting: 2 at start + 1 respawn.
        assert counters.pool_forks == 1
        assert pool.stats()["forks"] == 3

    def test_poisoned_result_retries_clean(self, pool):
        columns = columns_for(uid=908)
        windows = windows_of(columns, 4)
        plan = FaultPlan(
            name="poison-2",
            shard_faults=(ShardFault(2, "poison", attempts=1),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                columns, windows, "max", retry=FAST_RETRY
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            columns, "max", windows
        )
        assert supervisor.report.retries >= 1
        assert supervisor.report.failures == []

    def test_exhausted_retries_fall_back_inprocess(self, pool):
        columns = columns_for(uid=909)
        windows = windows_of(columns, 4)
        plan = FaultPlan(
            name="always-raise",
            shard_faults=(ShardFault(1, "raise", attempts=99),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                columns, windows, "avg", retry=FAST_RETRY
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            columns, "avg", windows
        )
        assert supervisor.report.inprocess_shards == 1
        assert len(supervisor.report.failures) == 1
        assert supervisor.report.failures[0].attempts == FAST_RETRY.max_attempts

    def test_deadline_enforced(self, pool):
        columns = columns_for(uid=910)
        windows = windows_of(columns, 4)
        plan = FaultPlan(
            name="slow",
            shard_faults=(
                ShardFault(0, "delay", attempts=99, delay_seconds=0.4),
            ),
        )
        deadline = Deadline.after_ms(60.0)
        with fault_plan(plan):
            with pytest.raises(DeadlineExceeded):
                pool.sweep_columns(
                    columns, windows, "sum",
                    retry=FAST_RETRY, deadline=deadline,
                )


class TestHygiene:
    def test_store_shutdown_unlinks_everything(self):
        """Stopping the pool unlinks every segment it published, even
        those of a ColumnSet that is still alive."""
        before = shm_names()
        with ResidentWorkerPool(1) as pool:
            columns = columns_for(uid=911)
            pool.sweep_columns(columns, windows_of(columns, 2), "sum")
            assert live_segments(pool) == 3
        assert live_segments(pool) == 0
        # Starting the pool may reap a dead owner's segments, so the
        # names may only shrink: none of this pool's survives.
        assert shm_names() <= before

    def test_owner_gc_releases_segments(self):
        with ResidentWorkerPool(1) as pool:
            owner = columns_for(n=200, uid=913)
            pool.sweep_columns(owner, windows_of(owner, 2), "sum")
            assert live_segments(pool) == 3
            del owner
            gc.collect()
            assert live_segments(pool) == 0

    def test_publication_lives_exactly_as_long_as_its_column_set(self):
        before = shm_names()
        with ResidentWorkerPool(1) as pool:
            held = columns_for(uid=916)
            dropped = columns_for(seed=12, uid=917)
            counters = OperationCounters()
            for _ in range(3):
                pool.sweep_columns(
                    dropped, windows_of(dropped, 2), "sum", counters=counters
                )
            # Repeated sweeps while the ColumnSet is held publish once.
            assert counters.segments_published == 3
            pool.sweep_columns(held, windows_of(held, 2), "sum")
            names = shm_names() - before
            assert len(names) == live_segments(pool) == 6
            del dropped
            gc.collect()
            stats = pool.stats()
            assert stats["live_segments"] == 3
            assert stats["segments_reclaimed"] == 3
            assert len(names & shm_names()) == 3
        # stop() unlinks what a live ColumnSet still holds.
        assert held is not None
        assert pool.stats()["segments_reclaimed"] == 6
        assert not names & shm_names()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
    )
    def test_workers_map_no_segment_after_their_jobs(self, pool):
        """Sweep distinct relations and drop each one: no worker keeps
        a mapping of a segment its parent has unlinked."""
        for seed in range(3):
            relation = triples_relation(
                random_triples(seed, partition.PARALLEL_MIN_TUPLES, max_instant=4000)
            )
            columns = relation.columns("salary")
            assert pool.sweep_columns(
                columns, windows_of(columns, 4), "sum"
            ) is not None
            del relation, columns
            gc.collect()
        assert live_segments(pool) == 0
        workers = pool.workers()
        assert len(workers) == 2
        for worker in workers:
            with open(f"/proc/{worker.process.pid}/maps") as maps:
                mapped = [line for line in maps if "repro-pool-" in line]
            assert mapped == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
    )
    def test_respawned_worker_keeps_no_inherited_mapping(self, pool):
        """A worker forked while a publication lives inherits the
        parent's mappings of it; once the ColumnSet is dropped, no
        worker may still map the unlinked segments."""
        columns = columns_for(uid=918)
        plan = FaultPlan(
            name="kill", shard_faults=(ShardFault(0, "kill", attempts=1),)
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                columns, windows_of(columns, 4), "sum", retry=FAST_RETRY
            )
        assert outcome is not None and outcome[1].report.respawns == 1
        del columns, outcome
        gc.collect()
        assert live_segments(pool) == 0
        for worker in pool.workers():
            with open(f"/proc/{worker.process.pid}/maps") as maps:
                assert [line for line in maps if "repro-pool-" in line] == []

    def test_crash_recovery_leaves_no_segments(self):
        """A worker killed mid-query must not leak segments: the parent
        still owns every name and unlinks on shutdown."""
        before = shm_names()
        with ResidentWorkerPool(2) as pool:
            columns = columns_for(uid=914)
            plan = FaultPlan(
                name="kill",
                shard_faults=(ShardFault(0, "kill", attempts=1),),
            )
            with fault_plan(plan):
                pool.sweep_columns(
                    columns, windows_of(columns, 4), "sum", retry=FAST_RETRY
                )
        assert shm_names() <= before  # pool start may reap dead owners'


class TestServedLifetimes:
    def test_append_cycles_keep_publications_bounded(self, monkeypatch):
        """A served relation keeps PIN_MEMO_LIMIT pinned views, so at
        most that many SUM(salary) publications live however many
        versions the appends make."""
        from repro.cache.store import set_default_cache
        from repro.exec.pool import shutdown_default_pool
        from repro.serve import QueryClient
        from repro.serve.snapshots import PIN_MEMO_LIMIT
        from tests.serve.conftest import make_relation, serve

        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 2
        )
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        prefix = f"repro-pool-{os.getpid()}-"
        attributes_read = 1  # salary

        def live_publications():
            gc.collect()
            return len(
                [n for n in shm_names() if n.startswith(prefix) and "-starts-" in n]
            )

        shutdown_default_pool()  # known-clean slate
        set_default_cache(None)
        peak = 0
        try:
            with serve(
                make_relation(400), workers=2, pool_workers=2, reject_load=100.0
            ) as runner:
                with QueryClient(runner.host, runner.port) as client:
                    for cycle in range(3 * PIN_MEMO_LIMIT):
                        # Spans the whole timeline: every shard is dirty.
                        client.append("jobs", [[f"a{cycle}", cycle, 0, 500]])
                        assert client.query("SELECT SUM(salary) FROM jobs").rows
                        live = live_publications()
                        peak = max(peak, live)
                        assert live <= PIN_MEMO_LIMIT * attributes_read
                    stats = client.stats()
            assert live_publications() == 0
        finally:
            shutdown_default_pool()
            set_default_cache(None)
        # More publications were made than the bound lets live at once
        # (three segments each), so old ones were unlinked on the way.
        assert stats["pool"]["segments_published"] > 3 * PIN_MEMO_LIMIT
        assert peak >= 2


PUBLISH_SCRIPT = """
import os, sys
from array import array
from repro.core.columns import ColumnSet
from repro.core.partition import shard_bounds
from repro.exec.pool import ResidentWorkerPool
pool = ResidentWorkerPool(1).start()
columns = ColumnSet(
    array("q", [1, 2, 5, 6]), array("q", [3, 4, 7, 8]), uid=1, version=1
)
windows = shard_bounds(columns.starts, columns.ends, 2)
assert pool.sweep_columns(columns, windows, "count") is not None
prefix = f"repro-pool-{os.getpid()}-"
print(" ".join(n for n in os.listdir("/dev/shm") if n.startswith(prefix)), flush=True)
sys.stdin.readline()
pool.stop()
"""


class TestOrphanReaping:
    """A pool start unlinks the segments of owners that died without
    cleaning up, and leaves a live owner's alone."""

    @staticmethod
    def publisher():
        """A subprocess, leading its own process group, that publishes
        one timestamps-only ColumnSet and waits for a line on stdin
        before stopping its pool."""
        src = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", PUBLISH_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        names = set(process.stdout.readline().split())
        assert len(names) == 2 and names <= shm_names()
        return process, names

    def test_start_reaps_a_killed_owners_segments(self):
        process, names = self.publisher()
        # SIGKILL the owner, its worker and its resource tracker
        # together, as a harness that kills the process group does:
        # nothing is left alive to unlink the names.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        process.stdin.close()
        process.stdout.close()
        assert names <= shm_names()
        with ResidentWorkerPool(1):
            pass
        assert not names & shm_names()

    def test_start_spares_a_live_owners_segments(self):
        process, names = self.publisher()
        try:
            with ResidentWorkerPool(1):
                assert names <= shm_names()
        finally:
            process.communicate("\n", timeout=30)
        assert not names & shm_names()


class TestCachedEvaluatorPoolPath:
    """The cached evaluator's recompute and dirty-refresh sweeps run on
    the resident backend when a pool is already running — it never
    starts one itself."""

    def relation(self, n=900):
        rows = []
        for index, (start, end, value) in enumerate(
            random_triples(23, n, max_instant=500)
        ):
            rows.append(((f"w{index % 40}", value), start, end))
        relation = TemporalRelation(EMPLOYED_SCHEMA, name="employed")
        relation.append_batch(rows)
        return relation

    def test_recompute_rows_match_serial(self, monkeypatch):
        from repro.exec import pool as pool_module

        relation = self.relation()
        serial = evaluate_cached(
            relation, "sum", "salary", shards=4, cache=ShardResultCache()
        )
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        counters = OperationCounters()
        try:
            pool_module.default_pool(2).start()
            pooled = evaluate_cached(
                relation,
                "sum",
                "salary",
                shards=4,
                cache=ShardResultCache(),
                counters=counters,
            )
        finally:
            pool_module.shutdown_default_pool()
        assert [tuple(r) for r in pooled.rows] == [
            tuple(r) for r in serial.rows
        ]
        assert counters.pool_shards == 4
        assert counters.tuple_materializations == 0

    def test_small_inputs_stay_serial(self, monkeypatch):
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 10**6)
        relation = self.relation(n=300)
        counters = OperationCounters()
        evaluate_cached(
            relation, "count", None, shards=4,
            cache=ShardResultCache(), counters=counters,
        )
        assert counters.pool_shards == 0
        assert counters.pool_forks == 0

    def test_no_running_pool_means_no_lazy_fork(self, monkeypatch):
        """ServerConfig's pool_workers=0 contract: with no resident
        pool started, a qualifying sweep in a multi-threaded process
        (a server's executor thread) stays in process — the cache
        evaluator must never create (and fork) the pool itself."""
        from repro.exec import pool as pool_module

        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        pool_module.shutdown_default_pool()  # known-clean slate
        assert pool_module.active_pool() is None
        relation = self.relation()
        counters = OperationCounters()
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            result = evaluate_cached(
                relation, "sum", "salary", shards=4,
                cache=ShardResultCache(), counters=counters,
            )
        finally:
            release.set()
            bystander.join()
        assert result.rows
        assert pool_module.active_pool() is None
        assert counters.pool_shards == 0
        assert counters.pool_forks == 0


#: Sweeps in a fresh single-threaded interpreter: two parallel_sweep
#: calls and one cache recompute over a 600-tuple relation, with the
#: fan-out threshold lowered so it qualifies.
START_RULE_SCRIPT = """
import json, os, threading
from repro.cache.evaluator import evaluate_cached
from repro.cache.store import ShardResultCache
from repro.core import partition
from repro.core.engine import temporal_aggregate
from repro.metrics.counters import OperationCounters
from repro.workload.generator import WorkloadParameters, generate_relation

partition.PARALLEL_MIN_TUPLES = 64
relation = generate_relation(WorkloadParameters(tuples=600, seed=3))
calls = []
for _ in range(2):
    counters = OperationCounters()
    temporal_aggregate(
        relation, "sum", "salary", strategy="parallel_sweep", shards=2,
        counters=counters,
    )
    calls.append([counters.pool_shards, counters.pool_forks])
counters = OperationCounters()
evaluate_cached(
    relation, "count", None, shards=2, cache=ShardResultCache(),
    counters=counters,
)
calls.append([counters.pool_shards, counters.pool_forks])
print(json.dumps(
    {"pid": os.getpid(), "threads": threading.active_count(), "calls": calls}
))
"""


class TestStartRule:
    """Who may start the process-default pool: a single-threaded
    caller may, a multi-threaded process (a server) may not."""

    def test_single_threaded_caller_starts_the_default_pool(self):
        src = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
        )
        env = dict(os.environ, PYTHONPATH=src, REPRO_POOL_WORKERS="2")
        completed = subprocess.run(
            [sys.executable, "-c", START_RULE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["threads"] == 1
        # pool_shards == shards on every call; the 2 workers fork on
        # the first call only.
        assert report["calls"] == [[2, 2], [2, 0], [2, 0]]
        prefix = f"repro-pool-{report['pid']}-"
        assert not [name for name in shm_names() if name.startswith(prefix)]

    def test_multi_threaded_caller_never_forks(self, monkeypatch):
        from repro.core.parallel import ParallelSweepEvaluator
        from repro.exec import pool as pool_module

        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 64)
        pool_module.shutdown_default_pool()  # known-clean slate
        relation = triples_relation(random_triples(23, 900, max_instant=500))
        counters = OperationCounters()
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            ParallelSweepEvaluator(
                "sum", shards=2, counters=counters
            ).evaluate_relation(relation, "salary")
        finally:
            release.set()
            bystander.join()
        assert pool_module.active_pool() is None
        assert counters.pool_shards == 0
        assert counters.pool_forks == 0


class TestDefaultPoolRefcount:
    def test_release_waits_for_last_reference(self):
        from repro.exec import pool as pool_module

        try:
            first = pool_module.acquire_default_pool(1)
            assert first is not None
            first.start()
            second = pool_module.acquire_default_pool(1)
            assert second is first
            pool_module.release_default_pool()
            # One holder remains: the pool must survive.
            assert pool_module.active_pool() is first
            pool_module.release_default_pool()
            assert pool_module.active_pool() is None
            assert not first.usable()
        finally:
            pool_module.shutdown_default_pool()


class TestWorkerDeltaContract:
    def test_delta_fields_are_counter_slots(self):
        counters = OperationCounters()
        for field in WORKER_DELTA_FIELDS:
            assert hasattr(counters, field)
