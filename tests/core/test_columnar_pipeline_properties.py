"""Property tests: the columnar end-to-end pipeline vs the reference.

Row-for-row equality against :class:`~repro.core.reference.
ReferenceEvaluator` for all five stock aggregates, across three data
shapes (random interval soups, heaps spilling over page boundaries,
timelines with empty windows between tuple clusters) and three
execution paths (serial columnar over a heap file, time-sharded
parallel over a relation, and the shard-result cache's miss + pure-hit
pair).  On top of equality, the columnar paths must prove their shape:
``tuple_materializations`` stays 0 and ``column_batches`` is positive —
the pipeline really ran page-to-row on flat columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.evaluator import evaluate_cached
from repro.cache.store import ShardResultCache
from repro.core.aggregates import get_aggregate
from repro.core import partition
from repro.core.columnar_sweep import ColumnarSweepEvaluator
from repro.core.interval import FOREVER
from repro.core.parallel import ParallelSweepEvaluator
from repro.core.reference import ReferenceEvaluator
from repro.metrics.counters import OperationCounters
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.storage.heapfile import HeapFile

AGGREGATES = ("count", "sum", "avg", "min", "max")


def _interval(draw, lo_max=400, span_max=120):
    start = draw(st.integers(min_value=0, max_value=lo_max))
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return start, FOREVER
    return start, start + draw(st.integers(min_value=0, max_value=span_max))


@st.composite
def random_rows(draw):
    """A soup of overlapping intervals (the general case)."""
    count = draw(st.integers(min_value=1, max_value=60))
    rows = []
    for index in range(count):
        start, end = _interval(draw)
        salary = draw(st.integers(min_value=1, max_value=500))
        rows.append(TemporalTuple((f"e{index}", salary), start, end))
    return rows


@st.composite
def page_boundary_rows(draw):
    """Enough rows that the heap file spills onto several pages."""
    per_page = HeapFile(EMPLOYED_SCHEMA).records_per_page
    count = per_page + draw(st.integers(min_value=1, max_value=per_page))
    rows = []
    for index in range(count):
        start, end = _interval(draw, lo_max=900, span_max=60)
        rows.append(TemporalTuple((f"e{index}", 1 + index % 97), start, end))
    return rows


@st.composite
def empty_window_rows(draw):
    """Tuple clusters separated by stretches with nothing valid."""
    rows = []
    base = 0
    for cluster in range(draw(st.integers(min_value=1, max_value=3))):
        base += draw(st.integers(min_value=50, max_value=200))  # the gap
        for index in range(draw(st.integers(min_value=1, max_value=8))):
            start = base + draw(st.integers(min_value=0, max_value=10))
            end = start + draw(st.integers(min_value=0, max_value=15))
            rows.append(
                TemporalTuple((f"c{cluster}e{index}", 1 + index), start, end)
            )
        base += 40
    return rows


SHAPES = [random_rows(), page_boundary_rows(), empty_window_rows()]


def _reference_rows(rows, name):
    triples = [(row.start, row.end, row.values[1]) for row in rows]
    result = ReferenceEvaluator(get_aggregate(name)).evaluate(triples)
    return [(r.start, r.end, r.value) for r in result.rows]


def _rows_of(result):
    return [(r.start, r.end, r.value) for r in result.rows]


@pytest.mark.parametrize("shape", SHAPES, ids=["random", "pages", "gaps"])
@pytest.mark.parametrize("name", AGGREGATES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_serial_columnar_over_heap_matches_reference(name, shape, data):
    rows = data.draw(shape)
    heap = HeapFile.from_relation(TemporalRelation(EMPLOYED_SCHEMA, rows))
    evaluator = ColumnarSweepEvaluator(get_aggregate(name))
    result = evaluator.evaluate_relation(heap, "salary")
    assert _rows_of(result) == _reference_rows(rows, name)
    assert evaluator.counters.tuple_materializations == 0
    assert evaluator.counters.column_batches >= 1


@pytest.mark.parametrize("shape", SHAPES, ids=["random", "pages", "gaps"])
@pytest.mark.parametrize("name", AGGREGATES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_parallel_columnar_matches_reference(name, shape, data):
    rows = data.draw(shape)
    relation = TemporalRelation(EMPLOYED_SCHEMA, rows)
    evaluator = ParallelSweepEvaluator(get_aggregate(name), shards=4)
    result = evaluator.evaluate_relation(relation, "salary")
    assert _rows_of(result) == _reference_rows(rows, name)
    assert evaluator.counters.tuple_materializations == 0


@pytest.mark.parametrize("shape", SHAPES, ids=["random", "pages", "gaps"])
@pytest.mark.parametrize("name", AGGREGATES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cached_columnar_matches_reference_on_miss_and_hit(name, shape, data):
    rows = data.draw(shape)
    relation = TemporalRelation(EMPLOYED_SCHEMA, rows)
    cache = ShardResultCache()
    expected = _reference_rows(rows, name)
    miss_counters = OperationCounters()
    miss = evaluate_cached(
        relation, name, "salary",
        shards=4, cache=cache, counters=miss_counters,
    )
    assert _rows_of(miss) == expected
    assert miss_counters.cache_misses == 1
    assert miss_counters.tuple_materializations == 0
    hit = evaluate_cached(relation, name, "salary", shards=4, cache=cache)
    assert _rows_of(hit) == expected


@pytest.mark.parametrize("name", AGGREGATES)
def test_value_less_feed_matches_object_sweep_behavior(name):
    """``attribute=None`` (the timestamps-only column feed) behaves
    exactly like the object sweep on the same None-valued triples:
    COUNT and MIN/MAX produce rows, SUM/AVG raise their own errors."""
    from repro.core.sweep import SweepEvaluator

    rows = [TemporalTuple(("a", 5), 1, 9), TemporalTuple(("b", 7), 4, 20)]
    heap = HeapFile.from_relation(TemporalRelation(EMPLOYED_SCHEMA, rows))
    triples = [(1, 9, None), (4, 20, None)]
    try:
        expected = _rows_of(SweepEvaluator(get_aggregate(name)).evaluate(triples))
    except Exception:
        expected = None  # the feed is erroneous for this aggregate
    evaluator = ColumnarSweepEvaluator(get_aggregate(name))
    if expected is not None:
        result = evaluator.evaluate_relation(heap, None)
        assert _rows_of(result) == expected
        assert evaluator.counters.tuple_materializations == 0
    else:
        # Both pipelines reject the feed; the exact exception type is
        # kernel-specific (TypeError vs ValueError) and not contractual.
        with pytest.raises((TypeError, ValueError)):
            evaluator.evaluate_relation(heap, None)


@pytest.fixture(scope="module")
def resident_pool():
    """The process-default resident pool, started for this module."""
    from repro.exec import pool as pool_module

    pool = pool_module.default_pool(2)
    if pool is None:
        pytest.skip("the resident pool needs the fork start method")
    pool.start()
    yield pool
    pool_module.shutdown_default_pool()


@pytest.mark.parametrize("shape", SHAPES, ids=["random", "pages", "gaps"])
@pytest.mark.parametrize("name", AGGREGATES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_every_sweep_entry_point_returns_reference_rows(
    resident_pool, name, shape, data
):
    """Columnar, parallel (in process and on the resident pool) and
    cached (miss, pure hit, append delta) answers equal the reference,
    and none of them materializes a row tuple."""
    rows = data.draw(shape)
    split = data.draw(st.integers(min_value=1, max_value=len(rows)))
    relation = TemporalRelation(EMPLOYED_SCHEMA, rows[:split])
    attribute = None if name == "count" else "salary"
    aggregate = get_aggregate(name)
    expected = _reference_rows(rows[:split], name)
    # Below PARALLEL_MIN_TUPLES the shards run in process; with the
    # threshold at zero they run on the started pool.
    pooled = ParallelSweepEvaluator(aggregate, shards=2)
    for label, evaluator, min_tuples in (
        ("columnar", ColumnarSweepEvaluator(aggregate), None),
        ("in-process shards", ParallelSweepEvaluator(aggregate, shards=4), None),
        ("pooled shards", pooled, 0),
    ):
        with pytest.MonkeyPatch.context() as patch:
            if min_tuples is not None:
                patch.setattr(partition, "PARALLEL_MIN_TUPLES", min_tuples)
            result = evaluator.evaluate_relation(relation, attribute)
        assert _rows_of(result) == expected, label
        assert evaluator.counters.tuple_materializations == 0, label
    columns = relation.columns(attribute)
    windows = partition.shard_bounds(columns.starts, columns.ends, 2)
    assert pooled.counters.pool_shards == (
        len(windows) if len(windows) > 1 else 0
    )

    cache = ShardResultCache()
    for label in ("miss", "hit"):
        counters = OperationCounters()
        result = evaluate_cached(
            relation, name, attribute, shards=4, cache=cache, counters=counters
        )
        assert _rows_of(result) == expected, label
        assert counters.tuple_materializations == 0, label
    assert counters.cache_hits == 1

    relation.extend(rows[split:])
    counters = OperationCounters()
    result = evaluate_cached(
        relation, name, attribute, shards=4, cache=cache, counters=counters
    )
    assert _rows_of(result) == _reference_rows(rows, name)
    assert counters.cache_hits == 1 and counters.cache_misses == 0
    assert counters.tuple_materializations == 0
