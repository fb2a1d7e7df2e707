"""The linked-list (naive) temporal aggregation algorithm (Section 4.2).

This is the paper's improvement over Tuma's two-scan method: a single
scan that maintains the constant intervals *and* their partial
aggregate values together, as an ordered linked list of cells.  Each
cell holds one constant interval and the partial state of the tuples
that overlap it.

Processing a tuple ``[s, e]`` walks the list from the head:

* cells entirely before ``s`` are skipped,
* the cell containing ``s`` is split at the start boundary, the cell
  containing ``e`` is split at the end boundary (closed-interval
  arithmetic, see :meth:`Interval.split_at_start` / ``split_at_end``),
* every cell now lying inside ``[s, e]`` absorbs the tuple's value,
* the walk stops at the first cell starting after ``e``.

Each tuple touches O(current cells) of the list, so the total running
time is O(n²) — the flat, size-only-dependent curve of Figures 6–8.
Memory is one cell per constant interval: ``2·u + 1`` cells at most for
``u`` unique timestamps, the smallest state of the three algorithms
when long-lived tuples are absent (Figure 9).

The implementation is a genuine singly-linked list (not a Python list)
so the cost model matches the paper's: splits are O(1) cell insertions
and the walk is pointer chasing.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.core.base import CHECKPOINT_INTERVAL, Evaluator, Triple
from repro.core.interval import FOREVER, ORIGIN
from repro.core.result import ConstantInterval, TemporalAggregateResult

__all__ = ["LinkedListEvaluator"]


class _Cell:
    """One constant interval in the running list."""

    __slots__ = ("start", "end", "state", "next")

    def __init__(
        self, start: int, end: int, state: Any, next_cell: "Optional[_Cell]" = None
    ) -> None:
        self.start = start
        self.end = end
        self.state = state
        self.next = next_cell


class LinkedListEvaluator(Evaluator):
    """Single-scan constant-interval list; O(n²) time, minimal state."""

    name = "linked_list"

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        aggregate = self.aggregate
        counters = self.counters
        space = self.space

        head = _Cell(ORIGIN, FOREVER, aggregate.identity())
        space.allocate()

        guarded = self.deadline is not None
        for consumed, (start, end, value) in enumerate(triples, 1):
            self._check_triple(start, end)
            counters.tuples += 1
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)
            cell: Optional[_Cell] = head
            while cell is not None and cell.start <= end:
                counters.node_visits += 1
                if cell.end < start:
                    cell = cell.next
                    continue
                # The cell overlaps [start, end]; trim the front first.
                if cell.start < start:
                    # Split [a, b] into [a, start-1] + [start, b]; the
                    # tail inherits the cell's state.
                    tail = _Cell(start, cell.end, cell.state, cell.next)
                    cell.end = start - 1
                    cell.next = tail
                    counters.splits += 1
                    space.allocate()
                    cell = tail
                if cell.end > end:
                    # Split [a, b] into [a, end] + [end+1, b].
                    tail = _Cell(end + 1, cell.end, cell.state, cell.next)
                    cell.end = end
                    cell.next = tail
                    counters.splits += 1
                    space.allocate()
                # The cell now lies entirely inside the tuple's interval.
                cell.state = aggregate.absorb(cell.state, value)
                counters.aggregate_updates += 1
                cell = cell.next

        rows: List[ConstantInterval] = []
        cell = head
        while cell is not None:
            rows.append(
                ConstantInterval(cell.start, cell.end, aggregate.finalize(cell.state))
            )
            counters.emitted += 1
            cell = cell.next
        return TemporalAggregateResult(rows, check=False)
