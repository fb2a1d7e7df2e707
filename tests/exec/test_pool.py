"""The resident shared-memory execution backend, end to end.

Covers the full lifecycle the serving stack leans on: publish-once
version-keyed segments, zero-copy worker sweeps that match the
in-process kernels row for row, crash/poison recovery through the
resident supervisor, the counter proofs (fork-once, zero hot-path
tuple materializations), and /dev/shm hygiene under eviction, owner
garbage collection, and shutdown.
"""

import gc
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from array import array

import pytest

from repro.cache.evaluator import evaluate_cached
from repro.cache.store import ShardResultCache
from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import window_rows
from repro.core.columns import ColumnSet
from repro.core.partition import shard_bounds
from repro.exec.deadline import Deadline, DeadlineExceeded
from repro.exec.faults import FaultPlan, ShardFault, fault_plan
from repro.exec.pool import (
    ResidentWorkerPool,
    SegmentStore,
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


def columns_for(seed=11, n=600):
    triples = random_triples(seed, n, max_instant=400)
    triples.sort(key=lambda t: (t[0], t[1]))
    starts = array("q", (t[0] for t in triples))
    ends = array("q", (t[1] for t in triples))
    values = array("q", (t[2] for t in triples))
    return starts, ends, values


def shm_names():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-pool-")
        }
    except FileNotFoundError:  # non-Linux: rely on the store's own view
        return set()


@pytest.fixture()
def store():
    segment_store = SegmentStore()
    yield segment_store
    segment_store.shutdown()


@pytest.fixture()
def pool(store):
    with ResidentWorkerPool(2, store=store) as resident:
        yield resident


def reference_rows(starts, ends, values, aggregate_name, windows):
    aggregate = get_aggregate(aggregate_name)
    return [
        window_rows(starts, ends, values, aggregate, lo, hi)[0]
        for lo, hi in windows
    ]


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
        starts, ends, values = columns_for()
        swept_values = None if aggregate == "count" else values
        windows = shard_bounds(starts, ends, 4)
        counters = OperationCounters()
        outcome = pool.sweep_columns(
            starts,
            ends,
            swept_values,
            windows,
            aggregate,
            uid=901,
            version=1,
            column_key="" if aggregate == "count" else "salary",
            counters=counters,
        )
        assert outcome is not None
        shard_results, supervisor = outcome
        expected = reference_rows(starts, ends, swept_values, aggregate, windows)
        assert [rows for rows, _events in shard_results] == expected
        assert supervisor.report.pooled_shards == len(windows)
        assert supervisor.report.inprocess_shards == 0
        # The hot-path proof travels back as worker counter deltas.
        assert counters.pool_shards == len(windows)
        assert counters.tuple_materializations == 0

    def test_unidentified_snapshot_falls_back(self, pool):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 2)
        assert (
            pool.sweep_columns(
                starts, ends, values, windows, "sum", uid=None, version=None
            )
            is None
        )

    def test_unshareable_values_fall_back(self, pool):
        starts, ends, _values = columns_for()
        text_values = ["x"] * len(starts)
        windows = shard_bounds(starts, ends, 2)
        assert (
            pool.sweep_columns(
                starts, ends, text_values, windows, "min",
                uid=902, version=1, column_key="name",
            )
            is None
        )


class TestPublication:
    def test_publish_is_idempotent(self, pool, store):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 2)
        counters = OperationCounters()
        for _ in range(3):
            outcome = pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=903, version=1, column_key="salary", counters=counters,
            )
            assert outcome is not None
        # One snapshot = three segments (starts, ends, values), no
        # matter how many sweeps reuse it.
        assert counters.segments_published == 3
        assert store.live_keys() == [(903, 1, "salary")]

    def test_column_keys_are_distinct_snapshots(self, pool, store):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 2)
        pool.sweep_columns(
            starts, ends, values, windows, "sum",
            uid=904, version=1, column_key="salary",
        )
        pool.sweep_columns(
            starts, ends, None, windows, "count",
            uid=904, version=1, column_key="",
        )
        assert set(store.live_keys()) == {(904, 1, "salary"), (904, 1, "")}

    def test_count_then_sum_upgrades_values_in_place(self, pool, store):
        """A value-less (COUNT) publication gains a values segment when
        a valued sweep arrives for the same column key — and both keep
        returning exact rows."""
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 2)
        count_first = pool.sweep_columns(
            starts, ends, None, windows, "count",
            uid=905, version=1, column_key="salary",
        )
        sum_second = pool.sweep_columns(
            starts, ends, values, windows, "sum",
            uid=905, version=1, column_key="salary",
        )
        assert count_first is not None and sum_second is not None
        assert [rows for rows, _ in count_first[0]] == reference_rows(
            starts, ends, None, "count", windows
        )
        assert [rows for rows, _ in sum_second[0]] == reference_rows(
            starts, ends, values, "sum", windows
        )
        assert store.live_keys() == [(905, 1, "salary")]

    def test_versions_are_distinct_snapshots(self, pool, store):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 2)
        for version in (1, 2):
            pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=906, version=version, column_key="salary",
            )
        assert set(store.live_keys()) == {
            (906, 1, "salary"),
            (906, 2, "salary"),
        }


class TestConcurrentWorkers:
    def test_workers_compute_in_parallel(self, pool):
        """Delay faults on the first job of BOTH workers: a serial
        per-worker drain would stack the sleeps (>= 2x the delay); the
        pipelined send + wait-any drain overlaps them."""
        from time import perf_counter

        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 4)
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
            outcome = pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=915, version=1, column_key="salary",
            )
        elapsed = perf_counter() - started
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            starts, ends, values, "sum", windows
        )
        assert supervisor.report.pooled_shards == len(windows)
        assert elapsed < 2 * delay - 0.1, (
            f"sweeps did not overlap: {elapsed:.2f}s for two {delay}s delays"
        )


class TestRecovery:
    def test_worker_kill_respawns_and_retries(self, pool):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 4)
        counters = OperationCounters()
        plan = FaultPlan(
            name="kill-first",
            shard_faults=(ShardFault(0, "kill", attempts=1),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=907, version=1, column_key="salary",
                retry=FAST_RETRY, counters=counters,
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            starts, ends, values, "sum", windows
        )
        assert supervisor.report.respawns == 1
        assert supervisor.report.retries >= 1
        assert supervisor.report.degraded
        assert counters.worker_respawns == 1
        # fork accounting: 2 at start + 1 respawn.
        assert counters.pool_forks == 1
        assert pool.forks_total == 3

    def test_poisoned_result_retries_clean(self, pool):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 4)
        plan = FaultPlan(
            name="poison-2",
            shard_faults=(ShardFault(2, "poison", attempts=1),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                starts, ends, values, windows, "max",
                uid=908, version=1, column_key="salary", retry=FAST_RETRY,
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            starts, ends, values, "max", windows
        )
        assert supervisor.report.retries >= 1
        assert supervisor.report.failures == []

    def test_exhausted_retries_fall_back_inprocess(self, pool):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 4)
        plan = FaultPlan(
            name="always-raise",
            shard_faults=(ShardFault(1, "raise", attempts=99),),
        )
        with fault_plan(plan):
            outcome = pool.sweep_columns(
                starts, ends, values, windows, "avg",
                uid=909, version=1, column_key="salary", retry=FAST_RETRY,
            )
        assert outcome is not None
        shard_results, supervisor = outcome
        assert [rows for rows, _ in shard_results] == reference_rows(
            starts, ends, values, "avg", windows
        )
        assert supervisor.report.inprocess_shards == 1
        assert len(supervisor.report.failures) == 1
        assert supervisor.report.failures[0].attempts == FAST_RETRY.max_attempts

    def test_deadline_enforced(self, pool):
        starts, ends, values = columns_for()
        windows = shard_bounds(starts, ends, 4)
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
                    starts, ends, values, windows, "sum",
                    uid=910, version=1, column_key="salary",
                    retry=FAST_RETRY, deadline=deadline,
                )


class TestHygiene:
    def test_store_shutdown_unlinks_everything(self):
        store = SegmentStore()
        before = shm_names()
        with ResidentWorkerPool(1, store=store) as pool:
            starts, ends, values = columns_for()
            windows = shard_bounds(starts, ends, 2)
            pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=911, version=1, column_key="salary",
            )
            assert store.live_segment_names()
        assert store.live_keys() == []
        assert shm_names() == before

    def test_lru_eviction_bounds_resident_segments(self):
        store = SegmentStore(max_resident=2)
        with ResidentWorkerPool(1, store=store) as pool:
            starts, ends, values = columns_for(n=200)
            windows = shard_bounds(starts, ends, 2)
            for version in range(1, 6):
                pool.sweep_columns(
                    starts, ends, values, windows, "sum",
                    uid=912, version=version, column_key="salary",
                )
            assert len(store.live_keys()) <= 2
            # The newest snapshot always survives its own publish.
            assert (912, 5, "salary") in store.live_keys()
            assert store.reclaimed_total >= 3
        assert store.live_keys() == []

    def test_owner_gc_releases_segments(self):
        store = SegmentStore()
        with ResidentWorkerPool(1, store=store) as pool:
            starts, ends, values = columns_for(n=200)
            windows = shard_bounds(starts, ends, 2)
            owner = ColumnSet(
                starts, ends, values, uid=913, version=1, column_key="salary"
            )
            pool.sweep_columns(
                starts, ends, values, windows, "sum",
                uid=913, version=1, column_key="salary", owner=owner,
            )
            assert store.live_keys() == [(913, 1, "salary")]
            del owner
            gc.collect()
            assert store.live_keys() == []

    def test_unpin_after_republish_keeps_new_snapshot(self):
        """A snapshot doomed while pinned can have its registry slot
        republished before the unpin lands; the unpin must destroy the
        *old* snapshot only, never untrack the new one."""
        before = shm_names()
        store = SegmentStore()
        try:
            starts, ends, values = columns_for(n=100)
            old = store.publish(
                950, 1, starts, ends, values, column_key="salary"
            )
            assert old is not None
            pinned = store.pin(950, 1, "salary")
            assert pinned is old
            # The owner dies while the sweep is in flight...
            store.release_key(950, 1, "salary")
            # ...and the key is republished before the unpin lands.
            new = store.publish(
                950, 1, starts, ends, values, column_key="salary"
            )
            assert new is not None and new is not old
            store.unpin(pinned)
            assert old.segments == []  # the doomed snapshot unlinked
            assert store.live_keys() == [(950, 1, "salary")]
            repinned = store.pin(950, 1, "salary")
            assert repinned is new  # the live snapshot stayed tracked
            store.unpin(repinned)
        finally:
            store.shutdown()
        assert shm_names() == before

    def test_shutdown_reclaims_superseded_pinned_snapshot(self):
        """Even if the last unpin never lands (crash path), shutdown
        still owns — and unlinks — a snapshot whose registry slot was
        republished while it was pinned."""
        before = shm_names()
        store = SegmentStore()
        starts, ends, values = columns_for(n=100)
        old = store.publish(951, 1, starts, ends, values, column_key="salary")
        assert store.pin(951, 1, "salary") is old
        store.release_key(951, 1, "salary")
        new = store.publish(951, 1, starts, ends, values, column_key="salary")
        assert new is not old
        # Both snapshots' segments stay tracked until shutdown.
        assert len(store.live_segment_names()) == 6
        store.shutdown()
        assert shm_names() == before

    def test_crash_recovery_leaves_no_segments(self):
        """A worker killed mid-query must not leak segments: the parent
        still owns every name and unlinks on shutdown."""
        before = shm_names()
        store = SegmentStore()
        with ResidentWorkerPool(2, store=store) as pool:
            starts, ends, values = columns_for()
            windows = shard_bounds(starts, ends, 4)
            plan = FaultPlan(
                name="kill",
                shard_faults=(ShardFault(0, "kill", attempts=1),),
            )
            with fault_plan(plan):
                pool.sweep_columns(
                    starts, ends, values, windows, "sum",
                    uid=914, version=1, column_key="salary", retry=FAST_RETRY,
                )
        assert shm_names() == before


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
