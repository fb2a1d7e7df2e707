"""Tests of the columnar event-sweep evaluator."""

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import (
    ColumnarSweepEvaluator,
    columnar_rows,
    validate_columns,
)
from repro.core.interval import FOREVER, ORIGIN, InvalidIntervalError
from repro.core.reference import ReferenceEvaluator
from repro.core.sweep import SweepEvaluator
from repro.metrics.counters import OperationCounters
from repro.metrics.space import SpaceTracker
from tests.conftest import random_triples

AGGREGATE_NAMES = ["count", "sum", "min", "max", "avg"]


class TestAgainstOracle:
    @pytest.mark.parametrize("name", AGGREGATE_NAMES)
    def test_random_triples_match_reference(self, name):
        triples = random_triples(seed=11, n=300)
        expected = ReferenceEvaluator(name).evaluate(list(triples))
        result = ColumnarSweepEvaluator(name).evaluate(list(triples))
        assert result.rows == expected.rows

    @pytest.mark.parametrize("name", AGGREGATE_NAMES + ["variance", "stddev", "any", "every"])
    def test_rows_identical_to_object_sweep(self, name):
        triples = random_triples(seed=23, n=250)
        swept = SweepEvaluator(name).evaluate(list(triples))
        columnar = ColumnarSweepEvaluator(name).evaluate(list(triples))
        assert columnar.rows == swept.rows

    def test_empty_input(self):
        result = ColumnarSweepEvaluator("count").evaluate([])
        assert [tuple(r) for r in result.rows] == [(ORIGIN, FOREVER, 0)]
        result = ColumnarSweepEvaluator("sum").evaluate([])
        assert result.rows[0].value is None

    def test_single_tuple(self):
        result = ColumnarSweepEvaluator("sum").evaluate([(5, 9, 7)])
        assert [tuple(r) for r in result.rows] == [
            (ORIGIN, 4, None),
            (5, 9, 7),
            (10, FOREVER, None),
        ]

    def test_forever_tuples_never_retract(self):
        result = ColumnarSweepEvaluator("count").evaluate(
            [(0, FOREVER, None), (10, FOREVER, None)]
        )
        assert [tuple(r) for r in result.rows] == [
            (0, 9, 1),
            (10, FOREVER, 2),
        ]

    def test_rows_are_constant_intervals(self):
        result = ColumnarSweepEvaluator("count").evaluate([(3, 5, None)])
        assert result.value_at(4) == 1  # .start/.end/.value access works
        result.verify_partition(full_cover=True)


class TestValidation:
    def test_bad_interval_raises(self):
        with pytest.raises(InvalidIntervalError):
            ColumnarSweepEvaluator("count").evaluate([(5, 3, None)])

    def test_negative_start_raises(self):
        with pytest.raises(InvalidIntervalError):
            validate_columns([-1], [4])

    def test_beyond_forever_raises(self):
        with pytest.raises(InvalidIntervalError):
            validate_columns([0], [FOREVER + 1])

    def test_valid_columns_pass(self):
        validate_columns([0, 5], [9, FOREVER])


class TestAccounting:
    def test_counters_match_object_sweep_totals(self):
        triples = random_triples(seed=7, n=200)
        swept = OperationCounters()
        SweepEvaluator("count", counters=swept).evaluate(list(triples))
        columnar = OperationCounters()
        ColumnarSweepEvaluator("count", counters=columnar).evaluate(list(triples))
        assert columnar.total_work == swept.total_work
        assert columnar.tuples == swept.tuples
        assert columnar.emitted == swept.emitted

    def test_space_peak_matches_object_sweep(self):
        triples = random_triples(seed=7, n=200)
        swept = SpaceTracker()
        SweepEvaluator("count", space=swept).evaluate(list(triples))
        columnar = SpaceTracker()
        ColumnarSweepEvaluator("count", space=columnar).evaluate(list(triples))
        assert columnar.peak_nodes == swept.peak_nodes
        assert columnar.live_nodes == 0


class TestWindowedKernel:
    def test_window_rows_partition_the_window(self):
        aggregate = get_aggregate("count")
        starts, ends, _values = columnar_rows(
            [10, 20], [15, 25], [None, None], aggregate, 12, 22
        )
        assert starts[0] == 12
        assert ends[-1] == 22
        for left_end, right_start in zip(ends, starts[1:]):
            assert right_start == left_end + 1

    def test_empty_window_emits_identity_row(self):
        aggregate = get_aggregate("sum")
        starts, ends, values = columnar_rows([], [], [], aggregate, 5, 10)
        assert (list(starts), list(ends), values) == ([5], [10], [None])
