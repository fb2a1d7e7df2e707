"""Results of temporal aggregation: sequences of constant intervals.

A temporal aggregate grouped by instant returns, for every instant of
the timeline, one aggregate value.  Because the value only changes at
tuple start/end boundaries, the answer compresses losslessly into
*constant intervals* (paper Section 2): maximal spans over which the
overlapping tuple set — and hence the value — is fixed.

Every evaluation algorithm in :mod:`repro.core` produces a
:class:`TemporalAggregateResult`: a time-ordered, gap-free,
non-overlapping sequence of :class:`ConstantInterval` rows that
partitions ``[ORIGIN, FOREVER]``.  The class enforces and re-checks
that invariant (:meth:`TemporalAggregateResult.verify_partition`), and
is what the test suite compares across algorithms and against the
brute-force oracle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import repeat
from typing import Any, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.interval import (
    FOREVER,
    ORIGIN,
    Interval,
    format_instant,
)

__all__ = ["ConstantInterval", "TemporalAggregateResult", "ResultIntegrityError"]


class ResultIntegrityError(AssertionError):
    """Raised when a result does not partition the timeline correctly."""


class ConstantInterval(NamedTuple):
    """One result row: a closed interval and the aggregate value over it."""

    start: int
    end: int
    value: Any

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)

    def __str__(self) -> str:
        return (
            f"[{format_instant(self.start)}, {format_instant(self.end)}] "
            f"-> {self.value}"
        )


#: A result's column layout: starts, ends, values.
Columns = Tuple["array[int]", "array[int]", List[Any]]


class TemporalAggregateResult:
    """A time-ordered partition of the timeline into constant intervals.

    Rows are stored in increasing time order, adjacent (row ``i`` ends
    exactly one instant before row ``i+1`` starts) and jointly cover
    ``[ORIGIN, FOREVER]`` unless the result was :meth:`restrict`-ed or
    filtered.

    A result holds its answer either as rows (what the object
    evaluators emit) or as three columns (:meth:`from_columns`, what
    the sweep evaluators and the shard-result cache hand out):
    ``array('q')`` starts and ends plus a plain value list.  Each
    layout is built from the other at most once, and only when a
    caller reads it — an answer shaped column-wise never builds a
    :class:`ConstantInterval`.  Iterating a column-backed result
    streams its rows without storing them; :attr:`rows` stores them.
    """

    def __init__(
        self, rows: Iterable[ConstantInterval], *, check: bool = True
    ) -> None:
        self._rows: Optional[List[ConstantInterval]] = list(rows)
        self._columns: Optional[Columns] = None
        if check:
            self.verify_partition(full_cover=False)

    @classmethod
    def from_columns(
        cls, starts: "array[int]", ends: "array[int]", values: List[Any]
    ) -> "TemporalAggregateResult":
        """Adopt three parallel columns (not copied, not checked)."""
        result = cls.__new__(cls)
        result._rows = None
        result._columns = (starts, ends, values)
        return result

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Interval, Any]]
    ) -> "TemporalAggregateResult":
        """Build from ``(Interval, value)`` pairs."""
        return cls(
            ConstantInterval(interval.start, interval.end, value)
            for interval, value in pairs
        )

    @property
    def rows(self) -> List[ConstantInterval]:
        """The constant intervals, built from the columns on first read."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(
                map(tuple.__new__, repeat(ConstantInterval), zip(*self.columns()))
            )
        return rows

    def columns(self) -> Columns:
        """``(starts, ends, values)``: the stored columns, or columns
        built once from the rows.  Callers must not mutate them."""
        columns = self._columns
        if columns is None:
            rows = self.rows
            columns = self._columns = (
                array("q", [row[0] for row in rows]),
                array("q", [row[1] for row in rows]),
                [row[2] for row in rows],
            )
        return columns

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self.columns()[0])

    def __iter__(self) -> Iterator[ConstantInterval]:
        rows = self._rows
        if rows is not None:
            return iter(rows)
        return map(tuple.__new__, repeat(ConstantInterval), zip(*self.columns()))

    def __getitem__(self, index: int) -> ConstantInterval:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalAggregateResult):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"TemporalAggregateResult({len(self)} constant intervals)"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def value_at(self, instant: int) -> Any:
        """The aggregate value at one instant (binary search over the
        start column).

        Raises ``KeyError`` when the instant falls outside every row
        (possible after :meth:`restrict` or :meth:`drop_value`).
        """
        starts, ends, values = self.columns()
        index = bisect_right(starts, instant) - 1
        if index >= 0 and instant <= ends[index]:
            return values[index]
        raise KeyError(f"no constant interval covers instant {instant}")

    def values(self) -> List[Any]:
        return list(self.columns()[2])

    def intervals(self) -> List[Interval]:
        return [row.interval for row in self.rows]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def coalesce_values(self) -> "TemporalAggregateResult":
        """Merge adjacent rows carrying equal values.

        Constant intervals mark where the *tuple group* changes; two
        neighbouring groups can still happen to produce the same value
        (e.g. one tuple leaves as another enters).  TSQL2 coalesces
        such rows in presentation (Section 5.1); this implements that
        post-pass.
        """
        merged: List[ConstantInterval] = []
        for row in self:
            if (
                merged
                and merged[-1].value == row.value
                and merged[-1].end + 1 == row.start
            ):
                merged[-1] = ConstantInterval(merged[-1].start, row.end, row.value)
            else:
                merged.append(row)
        return TemporalAggregateResult(merged, check=False)

    def drop_value(self, *values: Any) -> "TemporalAggregateResult":
        """Remove rows whose value is any of ``values``.

        ``drop_value(None)`` removes empty groups for value aggregates;
        ``drop_value(0)`` removes empty groups for COUNT, matching the
        presentation of Table 1.
        """
        kept = [row for row in self if not any(row.value == v for v in values)]
        return TemporalAggregateResult(kept, check=False)

    def restrict(self, window: Interval) -> "TemporalAggregateResult":
        """Clip the result to ``window`` (rows partially overlapping are cut)."""
        clipped: List[ConstantInterval] = []
        for row in self:
            piece = row.interval.intersect(window)
            if piece is not None:
                clipped.append(ConstantInterval(piece.start, piece.end, row.value))
        return TemporalAggregateResult(clipped, check=False)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def verify_partition(self, *, full_cover: bool = True) -> None:
        """Check ordering, disjointness and adjacency of the rows.

        With ``full_cover`` the rows must exactly partition
        ``[ORIGIN, FOREVER]`` — the shape every evaluation algorithm
        must produce before any filtering.
        """
        previous_end = None
        for row in self.rows:
            if row.start > row.end:
                raise ResultIntegrityError(f"inverted row {row}")
            if previous_end is not None and row.start <= previous_end:
                raise ResultIntegrityError(
                    f"row {row} overlaps or precedes the previous row"
                )
            if full_cover and previous_end is not None and row.start != previous_end + 1:
                raise ResultIntegrityError(
                    f"gap before row {row} (previous ended at {previous_end})"
                )
            previous_end = row.end
        if full_cover:
            if not self.rows:
                raise ResultIntegrityError("empty result cannot cover the timeline")
            if self.rows[0].start != ORIGIN:
                raise ResultIntegrityError(
                    f"result starts at {self.rows[0].start}, not the origin"
                )
            if self.rows[-1].end != FOREVER:
                raise ResultIntegrityError("result does not extend to FOREVER")

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def pretty(self, limit: int = 30) -> str:
        lines = [f"{'interval':>24}  value"]
        for row in self.rows[:limit]:
            span = f"[{format_instant(row.start)}, {format_instant(row.end)}]"
            lines.append(f"{span:>24}  {row.value}")
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a Markdown table (used by the bench reports)."""
        lines = ["| start | end | value |", "| --- | --- | --- |"]
        for row in self.rows:
            lines.append(
                f"| {format_instant(row.start)} | {format_instant(row.end)} "
                f"| {row.value} |"
            )
        return "\n".join(lines)
