"""Post-paper — the page-to-row columnar pipeline vs the object path.

Both series start from the same heap file pages and end at emitted
rows.  The *asserted* facts at every grid size are deterministic:
identical rows, zero per-row/per-event tuple materializations on the
columnar side, and positive page-batch counts.  Wall-clock assertions
are reserved for the sizes where the ratio is signal, not noise: the
columnar path must beat the object path at ≥16K, and must hit the ≥2x
acceptance bar at the paper's full 64K grid size (best-of-3 on both
sides).  ``python -m repro.bench columnar`` reports the same numbers.
"""

import time
from functools import lru_cache

import pytest

from conftest import SEED, SIZES, run_once
from repro.cache.evaluator import evaluate_cached
from repro.cache.store import ShardResultCache
from repro.core.columnar_sweep import ColumnarSweepEvaluator
from repro.core.parallel import ParallelSweepEvaluator
from repro.core.sweep import SweepEvaluator
from repro.metrics.counters import OperationCounters
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.storage.heapfile import HeapFile
from repro.workload.generator import WorkloadParameters, generate_triples

#: The full-grid size at which the ≥2x speedup criterion applies.
FULL_GRID_TUPLES = 65_536

#: The size from which wall-clock comparisons carry signal at all.
SMOKE_TUPLES = 16_384

ATTRIBUTE = "salary"


@lru_cache(maxsize=8)
def stored(n: int):
    """One heap file + relation per grid size, shared by all cells."""
    params = WorkloadParameters(tuples=n, seed=SEED)
    rows = [
        TemporalTuple((f"e{i % 997}", salary), start, end)
        for i, (start, end, salary) in enumerate(generate_triples(params))
    ]
    relation = TemporalRelation(EMPLOYED_SCHEMA, rows, name=f"bench{n}")
    return HeapFile.from_relation(relation), relation


def object_seconds(heap, aggregate="sum") -> float:
    started = time.perf_counter()
    SweepEvaluator(aggregate).evaluate(heap.scan_triples(ATTRIBUTE))
    return time.perf_counter() - started


def columnar_seconds(heap, aggregate="sum") -> float:
    started = time.perf_counter()
    ColumnarSweepEvaluator(aggregate).evaluate_columns(
        heap.scan_columns(ATTRIBUTE)
    )
    return time.perf_counter() - started


def best_of_3(run, *args) -> float:
    return min(run(*args) for _ in range(3))


@pytest.mark.parametrize("n", SIZES)
def test_timed_object_path(benchmark, n):
    heap, _relation = stored(n)
    run_once(benchmark, object_seconds, heap)
    benchmark.extra_info["series"] = "object sweep from pages"


@pytest.mark.parametrize("n", SIZES)
def test_timed_columnar_path(benchmark, n):
    heap, _relation = stored(n)
    run_once(benchmark, columnar_seconds, heap)
    benchmark.extra_info["series"] = "columnar sweep from pages"


@pytest.mark.parametrize("aggregate", ["count", "sum", "avg", "min", "max"])
def test_shape_columnar_rows_match_object_rows(benchmark, aggregate):
    def check():
        heap, relation = stored(SIZES[-1])
        attribute = None if aggregate == "count" else ATTRIBUTE
        expected = SweepEvaluator(aggregate).evaluate(
            heap.scan_triples(attribute)
        ).rows
        serial = ColumnarSweepEvaluator(aggregate)
        assert serial.evaluate_relation(heap, attribute).rows == expected
        assert serial.counters.tuple_materializations == 0
        assert serial.counters.column_batches >= 1
        parallel = ParallelSweepEvaluator(aggregate, shards=4)
        assert parallel.evaluate_relation(relation, attribute).rows == expected
        assert parallel.counters.tuple_materializations == 0
        counters = OperationCounters()
        cached = evaluate_cached(
            relation, aggregate, attribute,
            cache=ShardResultCache(), counters=counters,
        )
        assert cached.rows == expected
        assert counters.tuple_materializations == 0

    run_once(benchmark, check)


def test_smoke_columnar_beats_object_path(benchmark):
    def check():
        n = SIZES[-1]
        if n < SMOKE_TUPLES:
            pytest.skip(
                f"wall-clock smoke needs >= {SMOKE_TUPLES} tuples "
                f"(grid tops out at {n}); raise REPRO_BENCH_MAX_TUPLES"
            )
        heap, _relation = stored(n)
        object_s = best_of_3(object_seconds, heap)
        columnar_s = best_of_3(columnar_seconds, heap)
        assert columnar_s < object_s, (
            f"columnar {columnar_s:.4f}s not faster than object "
            f"{object_s:.4f}s at n={n}"
        )

    run_once(benchmark, check)


def test_acceptance_2x_at_full_grid(benchmark):
    def check():
        if SIZES[-1] < FULL_GRID_TUPLES:
            pytest.skip(
                f"2x acceptance applies at n>={FULL_GRID_TUPLES}; "
                f"export REPRO_BENCH_MAX_TUPLES={FULL_GRID_TUPLES}"
            )
        heap, _relation = stored(FULL_GRID_TUPLES)
        for aggregate in ("count", "sum"):
            object_s = best_of_3(object_seconds, heap, aggregate)
            columnar_s = best_of_3(columnar_seconds, heap, aggregate)
            speedup = object_s / columnar_s
            assert speedup >= 2.0, (
                f"{aggregate}: columnar {columnar_s:.4f}s vs object "
                f"{object_s:.4f}s = {speedup:.2f}x (< 2x) at n={FULL_GRID_TUPLES}"
            )

    run_once(benchmark, check)
