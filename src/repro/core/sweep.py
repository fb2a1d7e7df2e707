"""The endpoint sweep (sort-merge) evaluator.

A retrospective ablation: the algorithm the literature settled on
*after* the paper (and what a sort-based engine would run today).
Collect every tuple's two endpoints as events, sort them, and sweep the
timeline once, maintaining the running aggregate of the currently valid
tuples:

* at a tuple's start event the value is **absorbed**;
* one instant past its end the value is **retracted** — which needs
  either an invertible aggregate (COUNT, SUM, AVG, VARIANCE: the paper
  calls these "computed" aggregates) or, for the "selected" aggregates
  MIN and MAX, a lazy-deletion heap of the live values.

Properties, contrasted with the paper's algorithms in
``benchmarks/test_ablation_sweep.py``:

* O(n log n) regardless of input order — like sorting first and running
  the k-ordered tree with k = 1, but in one conceptual phase;
* no tree, no garbage collection; peak memory is the event list (the
  sort's O(n)) plus the live heap for MIN/MAX;
* inherently batch: nothing streams until the sort finishes, which is
  exactly the property the k-ordered tree's windowed GC avoids.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.base import CHECKPOINT_INTERVAL, Evaluator, Triple
from repro.core.interval import FOREVER, ORIGIN
from repro.core.result import ConstantInterval, TemporalAggregateResult

__all__ = ["SweepEvaluator"]


class _Reversed:
    """Ordering adaptor turning heapq's min-heap into a max-heap for
    any orderable value (numbers, strings, ...)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


class _LazyHeap:
    """Min-heap with deferred deletions, for the MIN/MAX sweep."""

    __slots__ = ("_heap", "_dead", "_largest")

    def __init__(self, largest_first: bool = False) -> None:
        self._heap: List[tuple] = []
        self._dead: dict = {}
        self._largest = largest_first

    def push(self, value: Any) -> None:
        key = _Reversed(value) if self._largest else value
        heapq.heappush(self._heap, (key, value))

    def discard(self, value: Any) -> None:
        self._dead[value] = self._dead.get(value, 0) + 1

    def top(self) -> Any:
        """Current extreme live value, or None when empty."""
        heap = self._heap
        while heap:
            _key, value = heap[0]
            remaining = self._dead.get(value, 0)
            if remaining:
                heapq.heappop(heap)
                if remaining == 1:
                    del self._dead[value]
                else:
                    self._dead[value] = remaining - 1
            else:
                return value
        return None


class SweepEvaluator(Evaluator):
    """Sort all endpoints, sweep once with a running aggregate."""

    name = "sweep"

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        aggregate = self.aggregate
        counters = self.counters

        # Build the event list: (time, kind, value) where kind orders
        # retractions (one past the end) before absorptions at the same
        # instant so states settle before the interval is cut.
        guarded = self.deadline is not None
        events: List[Tuple[int, int, Any]] = []
        consumed = 0
        for consumed, (start, end, value) in enumerate(triples, 1):
            self._check_triple(start, end)
            counters.tuples += 1
            events.append((start, 1, value))
            if end < FOREVER:
                events.append((end + 1, 0, value))
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)
        events.sort(key=lambda event: (event[0], event[1]))
        # Each event is a freshly built per-event tuple object — the
        # cost the columnar pipeline exists to avoid (its counterpart
        # keeps this counter at zero).
        counters.tuple_materializations += len(events)
        self.space.allocate(len(events))

        use_heap = not aggregate.invertible
        heap: Optional[_LazyHeap] = None
        if use_heap:
            heap = _LazyHeap(largest_first=(aggregate.name == "max"))

        rows: List[ConstantInterval] = []
        state = aggregate.identity()
        live = 0
        cursor = ORIGIN
        index = 0
        total = len(events)
        while index < total:
            time = events[index][0]
            if time > cursor:
                rows.append(
                    ConstantInterval(
                        cursor, time - 1, self._current_value(state, live, heap)
                    )
                )
                counters.emitted += 1
                cursor = time
                if guarded and len(rows) % CHECKPOINT_INTERVAL == 0:
                    self._checkpoint(consumed)
            # Apply every event at this instant.
            while index < total and events[index][0] == time:
                _time, kind, value = events[index]
                counters.node_visits += 1
                if kind == 1:
                    live += 1
                    if use_heap:
                        heap.push(value)
                    else:
                        state = aggregate.absorb(state, value)
                    counters.aggregate_updates += 1
                else:
                    live -= 1
                    if use_heap:
                        heap.discard(value)
                    elif live == 0:
                        state = aggregate.identity()
                    else:
                        state = aggregate.retract(state, value)
                    counters.aggregate_updates += 1
                index += 1
        rows.append(
            ConstantInterval(
                cursor, FOREVER, self._current_value(state, live, heap)
            )
        )
        counters.emitted += 1
        self.space.free(self.space.live_nodes)
        return TemporalAggregateResult(rows, check=False)

    def _current_value(self, state: Any, live: int, heap: Optional[_LazyHeap]):
        if heap is not None:
            return heap.top()
        if live == 0:
            return self.aggregate.finalize(self.aggregate.identity())
        return self.aggregate.finalize(state)
