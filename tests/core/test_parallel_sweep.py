"""Property tests: sharded evaluation is exactly the oracle.

The acceptance bar for the time-partitioned path: for every aggregate
and every shard count, ``parallel_sweep`` (and the ``columnar_sweep``
kernel it runs per shard) returns *row-for-row* the same result as the
brute-force :class:`~repro.core.reference.ReferenceEvaluator` —
including row boundaries, which the seam-stitching step must restore.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition
from repro.core.aggregates import get_aggregate
from repro.core.engine import temporal_aggregate
from repro.core.interval import FOREVER
from repro.core.parallel import ParallelSweepEvaluator, sweep_windows
from repro.core.columnar_sweep import ColumnarSweepEvaluator, window_rows
from repro.core.columns import ColumnSet
from repro.core.reference import ReferenceEvaluator
from repro.exec.deadline import Deadline
from repro.exec.errors import DeadlineExceeded
from repro.metrics.counters import OperationCounters
from tests.conftest import random_triples, triples_relation

AGGREGATES = ["count", "sum", "min", "max", "avg"]
SHARD_COUNTS = [1, 2, 3, 7]

#: Small hand-picked corpora covering the shapes that break naive
#: partitioning: nothing, one tuple, total overlap, and tuples that
#: straddle every plausible shard boundary.
EDGE_CORPORA = {
    "empty": [],
    "single": [(5, 9, 3)],
    "all_overlapping": [(0, 100, 1), (0, 100, 2), (0, 100, 5)],
    "boundary_straddling": [
        (0, FOREVER, 4),
        (10, 90, 2),
        (45, 55, 7),
        (50, 50, 1),
    ],
    "abutting": [(0, 49, 1), (50, 99, 2), (100, 149, 3)],
}

triples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=-20, max_value=50),
    ).map(lambda t: (t[0], t[0] + t[1], t[2])),
    max_size=40,
)


def reference_rows(aggregate, triples):
    return ReferenceEvaluator(aggregate).evaluate(list(triples)).rows


class TestEdgeCorpora:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("corpus", sorted(EDGE_CORPORA))
    def test_matches_reference(self, aggregate, shards, corpus):
        triples = EDGE_CORPORA[corpus]
        expected = reference_rows(aggregate, triples)
        result = ParallelSweepEvaluator(aggregate, shards=shards).evaluate(
            list(triples)
        )
        assert result.rows == expected


class TestRandomCorpora:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, aggregate, shards, seed):
        triples = random_triples(seed=seed, n=150)
        expected = reference_rows(aggregate, triples)
        result = ParallelSweepEvaluator(aggregate, shards=shards).evaluate(
            list(triples)
        )
        assert result.rows == expected

    @settings(max_examples=40, deadline=None)
    @given(triples=triples_strategy, shards=st.sampled_from(SHARD_COUNTS))
    def test_hypothesis_count_and_avg(self, triples, shards):
        for aggregate in ("count", "avg"):
            expected = reference_rows(aggregate, triples)
            result = ParallelSweepEvaluator(
                aggregate, shards=shards
            ).evaluate(list(triples))
            assert result.rows == expected


def pooled_sweep(aggregate, relation, shards):
    """``parallel_sweep`` over ``relation``: its rows and counters."""
    counters = OperationCounters()
    attribute = None if aggregate == "count" else "salary"
    result = ParallelSweepEvaluator(
        aggregate, shards=shards, counters=counters
    ).evaluate_relation(relation, attribute)
    return result, counters


class TestProcessPool:
    """The resident pool path, forced on despite small inputs."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_pool_matches_reference(self, started_pool, monkeypatch, aggregate):
        monkeypatch.setattr(partition, "PARALLEL_MIN_TUPLES", 0)
        triples = random_triples(seed=5, n=400)
        expected = reference_rows(aggregate, triples)
        result, counters = pooled_sweep(aggregate, triples_relation(triples), 4)
        assert result.rows == expected
        assert counters.pool_shards == 4
        assert counters.tuple_materializations == 0

    def test_pool_auto_off_below_threshold(self, started_pool, monkeypatch):
        relation = triples_relation(random_triples(seed=5, n=50))
        _result, below = pooled_sweep("count", relation, 2)
        assert below.pool_shards == 0
        monkeypatch.setattr(partition, "PARALLEL_MIN_TUPLES", len(relation))
        _result, at = pooled_sweep("count", relation, 2)
        assert at.pool_shards == 2

    def test_raw_triples_shard_in_process(self, started_pool, monkeypatch):
        """Triples carry no relation identity to key shared memory on."""
        monkeypatch.setattr(partition, "PARALLEL_MIN_TUPLES", 0)
        triples = random_triples(seed=6, n=200)
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator("sum", shards=2, counters=counters)
        result = evaluator.evaluate(list(triples))
        assert result.rows == reference_rows("sum", triples)
        assert counters.pool_shards == 0
        assert evaluator.last_supervision is None


class TestCustomAggregates:
    def test_unregistered_aggregate_runs_in_process(
        self, started_pool, monkeypatch
    ):
        from repro.core.aggregates import SumAggregate

        class DoubledSum(SumAggregate):
            """Registered name 'sum' but a different type: the pool
            cannot rebuild it by name, so shards run in-process."""

            def finalize(self, state):
                return None if state is None else 2 * state

        monkeypatch.setattr(partition, "PARALLEL_MIN_TUPLES", 0)
        triples = random_triples(seed=9, n=120)
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator(
            DoubledSum(), shards=3, counters=counters
        )
        result = evaluator.evaluate_relation(
            triples_relation(triples), "salary"
        )
        expected = ReferenceEvaluator(DoubledSum()).evaluate(list(triples))
        assert result.rows == expected.rows
        assert counters.pool_shards == 0


class TestSweepWindows:
    """The in-process side of the one fan-out helper."""

    def test_results_arrive_in_window_order(self):
        starts, ends, values = zip(*random_triples(seed=3, n=150))
        windows = partition.shard_bounds(starts, ends, 5)
        aggregate = get_aggregate("sum")
        swept, report = sweep_windows(
            ColumnSet(starts, ends, values), windows, aggregate
        )
        assert swept == [
            window_rows(starts, ends, values, aggregate, lo, hi)
            for lo, hi in windows
        ]
        assert report is None

    def test_deadline_checked_between_shards(self):
        starts, ends, values = zip(*random_triples(seed=3, n=150))
        windows = partition.shard_bounds(starts, ends, 3)
        with pytest.raises(DeadlineExceeded) as info:
            sweep_windows(
                ColumnSet(starts, ends, values), windows,
                get_aggregate("count"), deadline=Deadline(0.0001),
            )
        assert info.value.progress["total_shards"] == len(windows)

    def test_faults_never_fire_in_process(self):
        """Fault plans fire only inside pool workers, so the in-process
        path (and the pool's fallback) computes the exact answer."""
        from repro.exec.faults import FaultPlan, ShardFault, fault_plan

        starts, ends, values = zip(*random_triples(seed=3, n=150))
        windows = partition.shard_bounds(starts, ends, 3)
        aggregate = get_aggregate("min")
        plan = FaultPlan(
            shard_faults=tuple(
                ShardFault(i, "kill", attempts=99) for i in range(len(windows))
            )
        )
        with fault_plan(plan):
            swept, report = sweep_windows(
                ColumnSet(starts, ends, values), windows, aggregate
            )
        assert report is None
        assert swept == [
            window_rows(starts, ends, values, aggregate, lo, hi)
            for lo, hi in windows
        ]


class TestEngineIntegration:
    @pytest.mark.parametrize("strategy", ["parallel_sweep", "columnar_sweep"])
    def test_through_temporal_aggregate(self, small_random_relation, strategy):
        expected = temporal_aggregate(
            small_random_relation, "sum", "salary", strategy="reference"
        )
        result = temporal_aggregate(
            small_random_relation, "sum", "salary", strategy=strategy
        )
        assert result.rows == expected.rows

    def test_shards_parameter_flows_through(self, small_random_relation):
        expected = temporal_aggregate(
            small_random_relation, "count", strategy="reference"
        )
        result = temporal_aggregate(
            small_random_relation, "count", strategy="parallel_sweep", shards=3
        )
        assert result.rows == expected.rows

    def test_counters_aggregate_across_shards(self):
        triples = random_triples(seed=4, n=200)
        single = OperationCounters()
        ColumnarSweepEvaluator("count", counters=single).evaluate(list(triples))
        sharded = OperationCounters()
        ParallelSweepEvaluator("count", shards=4, counters=sharded).evaluate(
            list(triples)
        )
        # Clipping spanning tuples duplicates their events, never loses them.
        assert sharded.tuples == single.tuples
        assert sharded.node_visits >= single.node_visits
        assert sharded.emitted == single.emitted
