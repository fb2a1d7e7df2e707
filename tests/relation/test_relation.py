"""Tests for the in-memory TemporalRelation."""

import pytest

from repro.core.interval import FOREVER, Interval, InvalidIntervalError
from repro.relation.relation import TemporalRelation, space_counts
from repro.relation.schema import EMPLOYED_SCHEMA, Schema, SchemaError


class TestConstruction:
    def test_insert_validates_schema(self, employed):
        with pytest.raises(SchemaError):
            employed.insert(("OnlyName",), 0, 10)
        with pytest.raises(SchemaError):
            employed.insert((42, "backwards"), 0, 10)

    def test_insert_validates_bounds(self, employed):
        with pytest.raises(InvalidIntervalError):
            employed.insert(("X", 1), 10, 5)
        with pytest.raises(InvalidIntervalError):
            employed.insert(("X", 1), -1, 5)
        with pytest.raises(InvalidIntervalError):
            employed.insert(("X", 1), 0, FOREVER + 1)

    def test_from_rows(self):
        relation = TemporalRelation.from_rows(
            EMPLOYED_SCHEMA, [(("A", 1), 0, 5), (("B", 2), 3, 9)]
        )
        assert len(relation) == 2

    def test_container_protocol(self, employed):
        assert len(employed) == 4
        assert employed[1].values[0] == "Karen"
        assert len(list(iter(employed))) == 4

    def test_rows_returns_copy(self, employed):
        rows = employed.rows()
        rows.clear()
        assert len(employed) == 4


class TestScans:
    def test_scan_counts(self, employed):
        assert employed.scan_count == 0
        list(employed.scan())
        list(employed.scan())
        assert employed.scan_count == 2

    def test_scan_triples_without_attribute(self, employed):
        triples = list(employed.scan_triples())
        assert triples[0] == (18, FOREVER, None)
        assert employed.scan_count == 1

    def test_scan_triples_with_attribute(self, employed):
        triples = list(employed.scan_triples("salary"))
        assert triples[1] == (8, 20, 45_000)

    def test_value_extractor(self, employed):
        extract = employed.value_extractor("name")
        assert extract(employed[0]) == "Richard"
        assert employed.value_extractor(None)(employed[0]) is None


class TestOrdering:
    def test_employed_is_unsorted(self, employed):
        assert not employed.is_totally_ordered

    def test_sorted_by_time(self, employed):
        ordered = employed.sorted_by_time()
        assert ordered.is_totally_ordered
        assert len(ordered) == len(employed)
        assert not employed.is_totally_ordered  # original untouched

    def test_reordered_applies_permutation(self, employed):
        reversed_relation = employed.reordered([3, 2, 1, 0])
        assert reversed_relation[0].values == employed[3].values

    def test_reordered_rejects_non_permutation(self, employed):
        with pytest.raises(ValueError, match="permutation"):
            employed.reordered([0, 0, 1, 2])

    def test_empty_relation_is_sorted(self):
        assert TemporalRelation(EMPLOYED_SCHEMA).is_totally_ordered


class TestStatistics:
    def test_lifespan(self, employed):
        assert employed.lifespan == Interval(7, FOREVER)
        assert TemporalRelation(EMPLOYED_SCHEMA).lifespan is None

    def test_unique_timestamps_exclude_forever(self, employed):
        assert employed.statistics().unique_timestamps == 6  # Figure 2

    def test_split_points_begin_seven_intervals(self, employed):
        # Figure 2: B split points begin B + 1 constant intervals.
        columns = employed.columns(None)
        counts = space_counts(columns.starts, columns.ends)
        assert counts.split_points + 1 == 7

    def test_statistics_fields(self, employed):
        stats = employed.statistics()
        assert stats.tuple_count == 4
        assert stats.unique_timestamps == 6
        assert not stats.is_totally_ordered
        assert stats.k == 3
        assert 0 < stats.k_ordered_percentage <= 1

    def test_statistics_on_sorted(self, employed):
        stats = employed.sorted_by_time().statistics()
        assert stats.is_totally_ordered
        assert stats.k == 0
        assert stats.k_ordered_percentage == 0.0

    def test_long_lived_fraction(self, employed):
        stats = employed.statistics()
        # Richard's and Karen's tuples span >= 20% of the lifespan.
        assert 0.0 <= stats.long_lived_fraction <= 1.0

    def test_empty_statistics(self):
        stats = TemporalRelation(EMPLOYED_SCHEMA).statistics()
        assert stats.tuple_count == 0
        assert stats.long_lived_fraction == 0.0
        assert stats.lifespan is None


class TestPresentation:
    def test_pretty(self, employed):
        text = employed.pretty()
        assert "Richard" in text
        assert "forever" in text

    def test_pretty_truncates(self, small_random_relation):
        text = small_random_relation.pretty(limit=5)
        assert "more" in text

    def test_repr(self, employed):
        assert "Employed" in repr(employed)
        assert "4 tuples" in repr(employed)
