"""The paper's worked example (Figures 1-3, Table 1) as executable tests."""

import pytest

from repro.core import (
    STRATEGIES,
    FOREVER,
    temporal_aggregate,
)
from repro.core.aggregation_tree import AggregationTreeEvaluator
from repro.relation.relation import space_counts
from repro.workload.employed import EMPLOYED_ROWS, TABLE_1_EXPECTED, employed_relation


class TestEmployedRelation:
    def test_rows_match_figure_1(self, employed):
        assert len(employed) == 4
        assert employed[0].values == ("Richard", 40_000)
        assert (employed[0].start, employed[0].end) == (18, FOREVER)

    def test_nathan_gap(self, employed):
        """'Nathan was not employed during [13, 17]'."""
        nathan = [row for row in employed if row.values[0] == "Nathan"]
        assert len(nathan) == 2
        covered = set()
        for row in nathan:
            covered.update(range(row.start, min(row.end, 30) + 1))
        assert not covered & set(range(13, 18))

    def test_unsorted_as_in_the_paper(self, employed):
        assert not employed.is_totally_ordered

    def test_six_unique_timestamps(self, employed):
        """Figure 2: 6 unique timestamps -> 7 constant intervals."""
        assert employed.statistics().unique_timestamps == 6
        columns = employed.columns(None)
        assert space_counts(columns.starts, columns.ends).split_points + 1 == 7


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestTable1AllAlgorithms:
    def test_count_matches_table_1(self, employed, strategy):
        k = 400 if strategy == "kordered_tree" else None
        result = temporal_aggregate(employed, "count", strategy=strategy, k=k)
        assert result.rows == TABLE_1_EXPECTED

    def test_seven_constant_intervals(self, employed, strategy):
        k = 400 if strategy == "kordered_tree" else None
        result = temporal_aggregate(employed, "count", strategy=strategy, k=k)
        assert len(result) == 7
        result.verify_partition(full_cover=True)


class TestFigure3TreeConstruction:
    """Step-by-step tree construction exactly as Figure 3 narrates."""

    def test_initial_tree(self):
        tree = AggregationTreeEvaluator("count")
        tree.build([])
        assert tree.leaf_intervals() in ([], [(0, FOREVER)])
        assert tree.traverse().rows[0].value == 0

    def test_after_first_tuple(self):
        """Figure 3.b: adding [18, forever] splits the root once."""
        tree = AggregationTreeEvaluator("count")
        tree.build([(18, FOREVER, None)])
        assert tree.leaf_intervals() == [(0, 17), (18, FOREVER)]
        assert tree.counters.splits == 1

    def test_after_second_tuple(self):
        """Figure 3.c: adding [8, 20] splits twice more."""
        tree = AggregationTreeEvaluator("count")
        tree.build([(18, FOREVER, None), (8, 20, None)])
        assert tree.leaf_intervals() == [
            (0, 7),
            (8, 17),
            (18, 20),
            (21, FOREVER),
        ]

    def test_final_tree_constant_intervals(self):
        """Figure 3.d: all four tuples -> the seven leaves of Figure 2."""
        tree = AggregationTreeEvaluator("count")
        tree.build([(s, e, None) for _v, s, e in EMPLOYED_ROWS])
        assert tree.leaf_intervals() == [
            (0, 6),
            (7, 7),
            (8, 12),
            (13, 17),
            (18, 20),
            (21, 21),
            (22, FOREVER),
        ]

    def test_narrated_values_at_figure_3c(self):
        """Figure 3.c narration: leaf [8,17] has count 1, leaf [0,7] has 0."""
        tree = AggregationTreeEvaluator("count")
        tree.build([(18, FOREVER, None), (8, 20, None)])
        result = {(r.start, r.end): r.value for r in tree.traverse()}
        assert result[(8, 17)] == 1
        assert result[(0, 7)] == 0
        assert result[(18, 20)] == 2

    def test_covering_tuple_stops_descent(self):
        """Section 5.1: inserting [5, 50] into the final tree updates the
        completely covered node [8, 17] without descending to leaves."""
        tree = AggregationTreeEvaluator("count")
        tree.build([(s, e, None) for _v, s, e in EMPLOYED_ROWS])
        updates_before = tree.counters.aggregate_updates
        tree.insert(5, 50, None)
        # The paper narrates updating the covered internal node [8, 17]
        # "without searching the tree past this node to its leaves":
        # the insert touches 6 maximal covered nodes, not the 7+ leaves
        # below them.
        assert tree.counters.aggregate_updates - updates_before == 6
        covered = tree.root.left.right  # the [8, 17] node
        assert (covered.start, covered.end) == (8, 17)
        assert covered.state == 2  # Karen + the new tuple, held high up
        assert covered.left.state == 1  # leaf [8, 12] untouched (Nathan)
        result = {(r.start, r.end): r.value for r in tree.traverse()}
        assert result[(8, 12)] == 3  # Karen + Nathan1 + the new tuple


class TestTable1Presentation:
    def test_drop_empty_matches_tsql2_presentation(self, employed):
        result = temporal_aggregate(employed, "count").drop_value(0)
        assert len(result) == 6
        assert result[0].start == 7

    def test_salary_aggregates_consistent(self, employed):
        """MAX salary over time: Karen's 45K dominates while employed."""
        result = temporal_aggregate(employed, "max", "salary")
        assert result.value_at(10) == 45_000  # Karen [8,20] dominates Nathan
        assert result.value_at(19) == 45_000
        assert result.value_at(25) == 40_000
        assert result.value_at(0) is None

    def test_avg_salary_value(self, employed):
        result = temporal_aggregate(employed, "avg", "salary")
        assert result.value_at(19) == pytest.approx((40_000 + 45_000 + 37_000) / 3)
