"""Tests of the time-domain partitioning primitives."""

from array import array

import pytest

from repro.core.columns import ColumnSet
from repro.core.interval import FOREVER, ORIGIN
from repro.core.partition import (
    available_workers,
    clip_columns,
    is_real_boundary,
    seam_merges,
    shard_bounds,
    stitch_columns,
)


class TestShardBounds:
    def test_single_shard_is_whole_timeline(self):
        assert shard_bounds([3], [9], 1) == [(ORIGIN, FOREVER)]

    def test_empty_input_is_whole_timeline(self):
        assert shard_bounds([], [], 4) == [(ORIGIN, FOREVER)]

    def test_windows_partition_the_timeline(self):
        starts = [10, 200, 450, 900]
        ends = [120, 300, 800, 1000]
        bounds = shard_bounds(starts, ends, 4)
        assert bounds[0][0] == ORIGIN
        assert bounds[-1][1] == FOREVER
        for (_, left_hi), (right_lo, _) in zip(bounds, bounds[1:]):
            assert right_lo == left_hi + 1

    def test_degenerate_span_collapses_shards(self):
        # All tuples at one instant: no usable interior cuts.
        bounds = shard_bounds([5, 5, 5], [5, 5, 5], 4)
        assert bounds[0][0] == ORIGIN
        assert bounds[-1][1] == FOREVER

    def test_forever_tuples_do_not_break_cut_placement(self):
        bounds = shard_bounds([0, 50], [FOREVER, 100], 2)
        assert len(bounds) == 2


class TestClipping:
    def test_spanning_tuple_lands_in_both_windows(self):
        starts, ends, values = array("q", [0]), array("q", [100]), ["a"]
        left = clip_columns(starts, ends, values, 0, 49)
        right = clip_columns(starts, ends, values, 50, 100)
        assert left == (array("q", [0]), array("q", [49]), ["a"])
        assert right == (array("q", [50]), array("q", [100]), ["a"])
        assert clip_columns(starts, ends, None, 50, 100) == (
            array("q", [50]),
            array("q", [100]),
            None,
        )

    def test_disjoint_tuple_is_dropped(self):
        assert clip_columns([0], [10], [None], 20, 30) == (
            array("q"),
            array("q"),
            [],
        )

    def test_clip_preserves_per_instant_multiset(self):
        starts, ends, values = [0, 5, 15], [10, 20, 30], [1, 2, 3]
        windows = shard_bounds(starts, ends, 3)
        assert len(windows) == 3
        for instant in range(0, 31):
            original = sorted(
                v for s, e, v in zip(starts, ends, values) if s <= instant <= e
            )
            lo, hi = next(w for w in windows if w[0] <= instant <= w[1])
            clipped = zip(*clip_columns(starts, ends, values, lo, hi))
            clipped_values = sorted(v for s, e, v in clipped if s <= instant <= e)
            assert clipped_values == original, instant


class TestStitching:
    START_SET = {0, 10}
    END_SET = {9, 30}

    def parts(self, rows_per_window):
        return [
            ColumnSet(
                array("q", [row[0] for row in rows]),
                array("q", [row[1] for row in rows]),
                [row[2] for row in rows],
            )
            for rows in rows_per_window
        ]

    def merges(self, rows_per_window):
        """:func:`seam_merges` over the windows' rows in column layout."""
        return seam_merges(
            self.parts(rows_per_window),
            sorted(self.START_SET),
            sorted(self.END_SET),
        )

    def stitched(self, rows_per_window):
        """The rows :func:`stitch_columns` heals the windows into."""
        parts = self.parts(rows_per_window)
        merges = self.merges(rows_per_window)
        return list(zip(*stitch_columns(parts, merges)))

    def test_real_boundary_detection(self):
        assert is_real_boundary(10, self.START_SET, self.END_SET)
        assert is_real_boundary(10, set(), {9})  # ends at cut-1
        assert not is_real_boundary(15, self.START_SET, self.END_SET)

    def test_artificial_seam_with_equal_values_merges(self):
        parts = [[(0, 14, 2)], [(15, 30, 2)]]
        assert self.stitched(parts) == [(0, 30, 2)]
        assert self.merges(parts) == [False, True]

    def test_real_seam_stays_split_even_when_values_agree(self):
        parts = [[(0, 9, 2)], [(10, 30, 2)]]
        assert self.stitched(parts) == [(0, 9, 2), (10, 30, 2)]
        assert self.merges(parts) == [False, False]

    def test_artificial_seam_with_unequal_values_stays_split(self):
        parts = [[(0, 14, 2)], [(15, 30, 3)]]
        assert self.stitched(parts) == [(0, 14, 2), (15, 30, 3)]
        assert self.merges(parts) == [False, False]

    def test_empty_parts_are_skipped(self):
        parts = [[(0, 14, 1)], [], [(15, 30, 1)]]
        assert self.stitched(parts) == [(0, 30, 1)]
        assert self.merges(parts) == [False, False, True]


class TestWorkers:
    def test_at_least_one(self):
        assert available_workers() >= 1

    def test_cap_respected(self):
        assert available_workers(cap=2) <= 2
