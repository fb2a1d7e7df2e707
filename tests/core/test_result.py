"""Tests for constant-interval results and their invariants."""

from array import array

import pytest

from repro.core.interval import FOREVER, Interval
from repro.core.result import (
    ConstantInterval,
    ResultIntegrityError,
    TemporalAggregateResult,
)


def full_result(*rows):
    return TemporalAggregateResult(
        [ConstantInterval(*row) for row in rows], check=False
    )


@pytest.fixture
def table1_like():
    return full_result(
        (0, 6, 0),
        (7, 7, 1),
        (8, 12, 2),
        (13, 17, 1),
        (18, 20, 3),
        (21, 21, 2),
        (22, FOREVER, 1),
    )


class TestConstantInterval:
    def test_interval_property(self):
        row = ConstantInterval(3, 9, 42)
        assert row.interval == Interval(3, 9)

    def test_str(self):
        assert str(ConstantInterval(22, FOREVER, 1)) == "[22, forever] -> 1"

    def test_is_a_tuple(self):
        start, end, value = ConstantInterval(1, 2, 3)
        assert (start, end, value) == (1, 2, 3)


class TestContainerProtocol:
    def test_len_iter_getitem(self, table1_like):
        assert len(table1_like) == 7
        assert table1_like[2] == ConstantInterval(8, 12, 2)
        assert [row.value for row in table1_like] == [0, 1, 2, 1, 3, 2, 1]

    def test_equality(self, table1_like):
        other = TemporalAggregateResult(list(table1_like.rows), check=False)
        assert table1_like == other
        assert not (table1_like == "something else")

    def test_values_and_intervals(self, table1_like):
        assert table1_like.values()[:3] == [0, 1, 2]
        assert table1_like.intervals()[0] == Interval(0, 6)


class TestValueAt:
    def test_hits_each_row(self, table1_like):
        assert table1_like.value_at(0) == 0
        assert table1_like.value_at(7) == 1
        assert table1_like.value_at(12) == 2
        assert table1_like.value_at(17) == 1
        assert table1_like.value_at(19) == 3
        assert table1_like.value_at(21) == 2
        assert table1_like.value_at(10**9) == 1

    def test_missing_instant_raises(self):
        sparse = full_result((5, 9, 1))
        with pytest.raises(KeyError):
            sparse.value_at(4)
        with pytest.raises(KeyError):
            sparse.value_at(10)

    def test_lookups_share_one_start_column(self, table1_like):
        # The columns are built once; each lookup bisects them.
        columns = table1_like.columns()
        for instant in range(30):
            table1_like.value_at(instant)
        assert table1_like.columns() is columns
        assert list(columns[0]) == [0, 7, 8, 13, 18, 21, 22]


class TestColumnLayout:
    def test_column_backed_result_matches_its_rows(self, table1_like):
        starts, ends, values = table1_like.columns()
        backed = TemporalAggregateResult.from_columns(
            array("q", starts), array("q", ends), list(values)
        )
        assert len(backed) == 7
        assert backed.value_at(19) == 3
        assert backed == table1_like
        assert backed.rows == table1_like.rows
        assert all(type(row) is ConstantInterval for row in backed)


class TestCoalesceValues:
    def test_merges_adjacent_equal_values(self):
        result = full_result((0, 4, 1), (5, 9, 1), (10, 12, 2))
        merged = result.coalesce_values()
        assert [tuple(r) for r in merged] == [(0, 9, 1), (10, 12, 2)]

    def test_does_not_merge_across_gaps(self):
        result = full_result((0, 4, 1), (8, 9, 1))
        assert len(result.coalesce_values()) == 2

    def test_idempotent(self, table1_like):
        once = table1_like.coalesce_values()
        assert once.coalesce_values() == once

    def test_preserves_distinct_values(self, table1_like):
        # Table 1 has no adjacent equal values, so nothing merges.
        assert table1_like.coalesce_values() == table1_like


class TestDropAndRestrict:
    def test_drop_value_zero(self, table1_like):
        dropped = table1_like.drop_value(0)
        assert len(dropped) == 6
        assert all(row.value != 0 for row in dropped)

    def test_drop_value_none(self):
        result = full_result((0, 4, None), (5, 9, 10))
        assert len(result.drop_value(None)) == 1

    def test_drop_multiple_values(self, table1_like):
        # values are [0, 1, 2, 1, 3, 2, 1]; dropping 0s and 1s keeps 3 rows
        assert len(table1_like.drop_value(0, 1)) == 3

    def test_restrict_clips_rows(self, table1_like):
        window = table1_like.restrict(Interval(10, 19))
        assert [tuple(r) for r in window] == [
            (10, 12, 2),
            (13, 17, 1),
            (18, 19, 3),
        ]

    def test_restrict_to_empty_window(self, table1_like):
        nothing = table1_like.restrict(Interval(10**9, 10**9)).rows
        assert nothing == [ConstantInterval(10**9, 10**9, 1)]


class TestVerifyPartition:
    def test_full_cover_passes(self, table1_like):
        table1_like.verify_partition(full_cover=True)

    def test_gap_detected(self):
        result = full_result((0, 5, 1), (7, FOREVER, 2))
        with pytest.raises(ResultIntegrityError, match="gap"):
            result.verify_partition(full_cover=True)

    def test_overlap_detected(self):
        with pytest.raises(ResultIntegrityError, match="overlaps"):
            TemporalAggregateResult(
                [ConstantInterval(0, 5, 1), ConstantInterval(5, FOREVER, 2)]
            )

    def test_must_start_at_origin(self):
        result = full_result((3, FOREVER, 1))
        with pytest.raises(ResultIntegrityError, match="origin"):
            result.verify_partition(full_cover=True)

    def test_must_reach_forever(self):
        result = full_result((0, 10, 1))
        with pytest.raises(ResultIntegrityError, match="FOREVER"):
            result.verify_partition(full_cover=True)

    def test_empty_cannot_cover(self):
        with pytest.raises(ResultIntegrityError):
            full_result().verify_partition(full_cover=True)

    def test_construction_checks_ordering_only(self):
        # Non-contiguous is fine at construction (filtered results)...
        TemporalAggregateResult([ConstantInterval(0, 5, 1), ConstantInterval(9, 10, 2)])
        # ...but disorder is not.
        with pytest.raises(ResultIntegrityError):
            TemporalAggregateResult(
                [ConstantInterval(9, 10, 2), ConstantInterval(0, 5, 1)]
            )


class TestPresentation:
    def test_pretty_contains_rows(self, table1_like):
        text = table1_like.pretty()
        assert "[22, forever]" in text
        assert "3" in text

    def test_pretty_truncates(self, table1_like):
        text = table1_like.pretty(limit=2)
        assert "more rows" in text

    def test_markdown_shape(self, table1_like):
        lines = table1_like.to_markdown().splitlines()
        assert lines[0] == "| start | end | value |"
        assert len(lines) == 2 + len(table1_like)

    def test_from_pairs(self):
        result = TemporalAggregateResult.from_pairs(
            [(Interval(0, 4), 1), (Interval(5, 9), 2)]
        )
        assert [tuple(r) for r in result] == [(0, 4, 1), (5, 9, 2)]
