"""The endpoint sweep over flat columns — no per-event objects.

Same algorithm as :class:`~repro.core.sweep.SweepEvaluator`, different
data layout, end to end.  The input arrives as a
:class:`~repro.core.columns.ColumnSet` (two ``array('q')`` timestamp
columns plus an optional value column — see
:meth:`~repro.storage.heapfile.HeapFile.scan_columns` and
:meth:`~repro.relation.relation.TemporalRelation.columns`), the two
endpoint columns are sorted independently (plain ints sort at C speed;
value-carrying aggregates sort *indices* keyed by the time column, so
values are never compared), and a per-aggregate **specialized kernel**
merges the two sorted streams with a pair of cursors:

* COUNT — one running integer, no value column at all;
* SUM / AVG — a running total (plus live count), inlined arithmetic
  instead of absorb/retract calls;
* MIN / MAX — a lazy-deletion heap of bare keys, inlined (MAX runs
  over negated numbers; other values heap in 1-tuples);
* anything else — the generic absorb/retract walk (or the heap walk
  for non-invertible aggregates), bound methods hoisted out of the
  loop.

:func:`make_kernel` builds the matching closure once per evaluation, so
the inner loops carry **no per-event dispatch** — no ``isinstance``, no
method lookup, no aggregate-protocol indirection.  Kernels emit the
answer as columns too: ``array('q')`` starts and ends plus a value
list, which the evaluator adopts through
:meth:`~repro.core.result.TemporalAggregateResult.from_columns`.
Between the page bytes and the caller the pipeline materializes zero
per-row or per-event tuple objects, which
:attr:`~repro.metrics.counters.OperationCounters.tuple_materializations`
makes checkable.  Each aggregate has exactly one kernel, so a resident
pool worker (:mod:`repro.exec.pool`) sweeping a shard runs the same
code as the calling process.

The walk functions are module-level and windowed (``lo``/``hi``) so
:mod:`repro.core.parallel` can run them per time shard; rows outside
the window are never produced.  Semantics match the object sweep
exactly: all events at one instant are applied together before the
next row is cut, invertible aggregates reset to the identity when the
live count hits zero, and non-invertible aggregates fall back to the
lazy-deletion heap.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from operator import itemgetter, le, neg
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.aggregates import (
    Aggregate,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.core.base import Evaluator, Triple
from repro.core.columns import ColumnSet
from repro.core.interval import FOREVER, ORIGIN
from repro.core.partition import clip_columns
from repro.core.result import Columns, TemporalAggregateResult
from repro.core.sweep import _Reversed

__all__ = [
    "ColumnarSweepEvaluator",
    "Kernel",
    "columnar_rows",
    "make_kernel",
    "validate_columns",
    "window_rows",
]

#: Sentinel beyond every legal event time (events are <= FOREVER).
_AFTER_FOREVER = FOREVER + 2

#: A specialized sweep kernel: whole columns in, answer columns out.
Kernel = Callable[
    [Sequence[int], Sequence[int], Optional[Sequence[Any]], int, int],
    Columns,
]


def validate_columns(starts: Sequence[int], ends: Sequence[int]) -> None:
    """Bulk interval validation over whole columns.

    The happy path is three C-speed column checks; only on failure does
    the per-tuple loop rerun to raise the usual per-interval error.
    """
    if min(starts) >= 0 and max(ends) <= FOREVER and all(map(le, starts, ends)):
        return
    for start, end in zip(starts, ends):
        Evaluator._check_triple(start, end)


def _answer_columns() -> Tuple[
    Columns,
    Callable[[int], None],
    Callable[[int], None],
    Callable[[Any], None],
]:
    """Empty answer columns plus their bound ``append`` methods, which
    the walks hoist so their loops carry no attribute lookups."""
    starts: "array[int]" = array("q")
    ends: "array[int]" = array("q")
    values: List[Any] = []
    return (starts, ends, values), starts.append, ends.append, values.append


def _walk_count(
    ss: List[int], bb: List[int], lo: int, hi: int, count: int
) -> Columns:
    """COUNT kernel walk: two sorted int columns, one running integer."""
    out, append_start, append_end, append_value = _answer_columns()
    i = j = 0
    ni = len(ss)
    nj = len(bb)
    cursor = lo
    while True:  # ta: hot
        t = ss[i] if i < ni else _AFTER_FOREVER
        tb = bb[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append_start(cursor)
            append_end(t - 1)
            append_value(count)
            cursor = t
        while i < ni and ss[i] == t:
            count += 1
            i += 1
        while j < nj and bb[j] == t:
            count -= 1
            j += 1
    append_start(cursor)
    append_end(hi)
    append_value(count)
    return out


def _walk_sum(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    lo: int,
    hi: int,
) -> Columns:
    """SUM kernel walk: a running total, arithmetic inlined.

    Emits ``None`` over empty stretches (SQL's NULL over an empty
    group) and resets the total to 0 when the live count hits zero, so
    float drift never leaks across an empty gap — exactly the object
    sweep's identity-reset convention.
    """
    out, append_start, append_end, append_value = _answer_columns()
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    live = 0
    total = 0
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append_start(cursor)
            append_end(t - 1)
            append_value(total if live else None)
            cursor = t
        while i < ni and s_times[i] == t:
            total += s_values[i]
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            if live:
                total -= b_values[j]
            else:
                total = 0
            j += 1
    append_start(cursor)
    append_end(hi)
    append_value(total if live else None)
    return out


def _walk_avg(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    lo: int,
    hi: int,
) -> Columns:
    """AVG kernel walk: running (total, live) pair, division at emit."""
    out, append_start, append_end, append_value = _answer_columns()
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    live = 0
    total = 0
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append_start(cursor)
            append_end(t - 1)
            append_value(total / live if live else None)
            cursor = t
        while i < ni and s_times[i] == t:
            total += s_values[i]
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            if live:
                total -= b_values[j]
            else:
                total = 0
            j += 1
    append_start(cursor)
    append_end(hi)
    append_value(total / live if live else None)
    return out


def _walk_invertible(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    aggregate: Aggregate,
    lo: int,
    hi: int,
    state: Any,
    live: int,
) -> Columns:
    """Generic absorb/retract walk for invertible value aggregates.

    The fallback for aggregates without a specialized kernel; the
    bound methods are hoisted to locals so the loop still carries no
    attribute lookups.
    """
    absorb = aggregate.absorb
    retract = aggregate.retract
    finalize = aggregate.finalize
    identity = aggregate.identity
    empty_value = finalize(identity())
    out, append_start, append_end, append_value = _answer_columns()
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append_start(cursor)
            append_end(t - 1)
            append_value(empty_value if live == 0 else finalize(state))
            cursor = t
        while i < ni and s_times[i] == t:
            state = absorb(state, s_values[i])
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            state = identity() if live == 0 else retract(state, b_values[j])
            j += 1
    append_start(cursor)
    append_end(hi)
    append_value(empty_value if live == 0 else finalize(state))
    return out


def _walk_extremal(
    s_times: List[int],
    s_keys: List[Any],
    b_times: List[int],
    b_keys: List[Any],
    lo: int,
    hi: int,
) -> Columns:
    """MIN walk: the smallest live key per row (None while none live).

    The keys sit bare in a ``heapq`` list; a retraction only counts its
    key as dead, and dead keys leave the heap when they reach the top
    (lazy deletion).  MAX runs this walk over order-reversed keys.
    """
    heap: List[Any] = []
    dead: Dict[Any, int] = {}
    dead_get = dead.get
    push = heappush
    pop = heappop
    out, append_start, append_end, append_value = _answer_columns()
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            while heap:  # ta: hot
                top = heap[0]
                remaining = dead_get(top, 0)
                if not remaining:
                    break
                pop(heap)
                if remaining == 1:
                    del dead[top]
                else:
                    dead[top] = remaining - 1
            append_start(cursor)
            append_end(t - 1)
            append_value(heap[0] if heap else None)
            cursor = t
        while i < ni and s_times[i] == t:
            push(heap, s_keys[i])
            i += 1
        while j < nj and b_times[j] == t:
            key = b_keys[j]
            dead[key] = dead_get(key, 0) + 1
            j += 1
    while heap and dead_get(heap[0], 0):
        top = pop(heap)
        dead[top] -= 1
    append_start(cursor)
    append_end(hi)
    append_value(heap[0] if heap else None)
    return out


def _boxed(value: Any) -> Tuple[Any]:
    return (value,)


def _boxed_reversed(value: Any) -> Tuple[_Reversed]:
    return (_Reversed(value),)


def _unbox_reversed(key: Tuple[_Reversed]) -> Any:
    return key[0].value


def _heap_keys(
    values: Sequence[Any], largest: bool
) -> Optional[Tuple[Callable[[Any], Any], Callable[[Any], Any]]]:
    """``(to_key, from_key)`` for :func:`_walk_extremal`'s min-heap, or
    None when the values are their own keys (MIN over numbers).

    MAX over numbers negates.  Other values go in 1-tuples, as the
    object sweep's heap entries do: tuples test equal elements with
    ``==`` before ``<``, so equal values that do not order (``None``)
    still heap, and MAX reverses the order inside the tuple.
    """
    if set(map(type, values)) <= {int, float}:
        return (neg, neg) if largest else None
    if largest:
        return _boxed_reversed, _unbox_reversed
    return _boxed, itemgetter(0)


def _sorted_events(
    starts: Sequence[int], ends: Sequence[int], values: Sequence[Any]
) -> Tuple[List[int], List[Any], List[int], List[Any]]:
    """Time-sorted start and retraction event columns.

    Sorting goes through index lists keyed by the time column so tuple
    values are never compared (they may not be mutually orderable).
    """
    s_order = sorted(range(len(starts)), key=starts.__getitem__)
    s_times = [starts[i] for i in s_order]
    s_values = [values[i] for i in s_order]
    finite = [i for i in range(len(ends)) if ends[i] < FOREVER]
    finite.sort(key=ends.__getitem__)
    b_times = [ends[i] + 1 for i in finite]
    b_values = [values[i] for i in finite]
    return s_times, s_values, b_times, b_values


def make_kernel(aggregate: Aggregate) -> Kernel:
    """Build the specialized sweep closure for one aggregate.

    The factory is where per-aggregate decisions happen *once*, so the
    returned closure's loops run free of dispatch: COUNT/SUM/AVG get
    inlined-arithmetic walks, MIN/MAX the hoisted lazy-heap walk, and
    everything else the generic (still hoisted) absorb/retract or heap
    walk.  Specialization keys on the exact stock type — a custom
    subclass registered under a stock name keeps the generic kernel
    and therefore its own ``absorb``/``retract`` semantics.
    """
    kind = type(aggregate)
    if kind is CountAggregate:

        def count_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> Columns:
            ss = sorted(starts)
            bb = sorted([e + 1 for e in ends if e < FOREVER])
            return _walk_count(ss, bb, lo, hi, 0)

        return count_kernel

    if kind is SumAggregate or kind is AvgAggregate:
        walk = _walk_sum if kind is SumAggregate else _walk_avg

        def running_total_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> Columns:
            assert values is not None  # needs_value aggregates get a column
            s_times, s_values, b_times, b_values = _sorted_events(
                starts, ends, values
            )
            return walk(s_times, s_values, b_times, b_values, lo, hi)

        return running_total_kernel

    if kind is MinAggregate or kind is MaxAggregate or not aggregate.invertible:
        largest = aggregate.name == "max"

        def extremal_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> Columns:
            assert values is not None
            s_times, s_values, b_times, b_values = _sorted_events(
                starts, ends, values
            )
            keys = _heap_keys(s_values, largest)
            if keys is None:
                return _walk_extremal(
                    s_times, s_values, b_times, b_values, lo, hi
                )
            to_key, from_key = keys
            out_starts, out_ends, found = _walk_extremal(
                s_times,
                list(map(to_key, s_values)),
                b_times,
                list(map(to_key, b_values)),
                lo,
                hi,
            )
            return (
                out_starts,
                out_ends,
                [None if key is None else from_key(key) for key in found],
            )

        return extremal_kernel

    def generic_kernel(
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        lo: int,
        hi: int,
    ) -> Columns:
        assert values is not None
        s_times, s_values, b_times, b_values = _sorted_events(
            starts, ends, values
        )
        return _walk_invertible(
            s_times, s_values, b_times, b_values, aggregate,
            lo, hi, aggregate.identity(), 0,
        )

    return generic_kernel


def identity_columns(aggregate: Aggregate, lo: int, hi: int) -> Columns:
    """The one-row answer over an empty window: the aggregate's
    finalized identity across ``[lo, hi]``."""
    return (
        array("q", (lo,)),
        array("q", (hi,)),
        [aggregate.finalize(aggregate.identity())],
    )


def columnar_rows(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    aggregate: Aggregate,
    lo: int = ORIGIN,
    hi: int = FOREVER,
) -> Columns:
    """The answer over ``[lo, hi]`` as ``(starts, ends, values)`` columns.

    The shard-level workhorse.  Events before the window fold into the
    running state before the first row is cut; events past it are never
    reached — though shards clip first (see
    :mod:`repro.core.partition`) so workers don't walk shared prefixes.
    ``values=None`` is accepted for value-less aggregates (COUNT).
    """
    if not len(starts):
        return identity_columns(aggregate, lo, hi)
    if values is None and type(aggregate) is not CountAggregate:
        # Every kernel but COUNT's subscripts the value column.  A
        # value-less feed under a value aggregate is a caller bug —
        # fill explicitly so the aggregate raises its own error rather
        # than the kernel dying on a None subscript; value-less custom
        # aggregates ignore the filled value entirely.
        values = [None] * len(starts)
    return make_kernel(aggregate)(starts, ends, values, lo, hi)


def event_count(starts: Sequence[int], ends: Sequence[int]) -> int:
    """Events a sweep over these columns processes (starts + finite ends)."""
    return len(starts) + sum(1 for e in ends if e < FOREVER)


def window_rows(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    aggregate: Aggregate,
    lo: int,
    hi: int,
) -> Tuple[Columns, int]:
    """One time window's answer columns from whole-relation columns.

    The per-shard unit of work shared by the parallel sweep and the
    shard-result cache: clip the columns (staying in column layout —
    :func:`repro.core.partition.clip_columns` builds no row tuples),
    run the specialized kernel over the clipped slice, and fall back to
    a single identity row for an empty window.  Returns
    ``((starts, ends, values), events_processed)``.
    """
    clipped_starts, clipped_ends, clipped_values = clip_columns(
        starts, ends, values, lo, hi
    )
    if not len(clipped_starts):
        return identity_columns(aggregate, lo, hi), 0
    answer = columnar_rows(
        clipped_starts, clipped_ends, clipped_values, aggregate, lo, hi
    )
    return answer, event_count(clipped_starts, clipped_ends)


class ColumnarSweepEvaluator(Evaluator):
    """Endpoint sweep over flat columns; same output as ``sweep``.

    Over a relation (or heap file) offering the flat-column protocol
    (``columns(attribute)``), :meth:`evaluate_relation` routes through
    :meth:`evaluate_columns` — the zero-tuple end-to-end path.  Raw
    triple streams still evaluate through :meth:`evaluate`, which
    decomposes them into columns first (and accounts the per-row
    tuples it consumed under ``tuple_materializations``).
    """

    name = "columnar_sweep"

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        data = triples if isinstance(triples, list) else list(triples)
        if not data:
            return self._empty_result()
        # The input arrived as per-row tuple objects; the columnar
        # protocol path (evaluate_columns) never builds these.
        self.counters.tuple_materializations += len(data)
        starts, ends, values = zip(*data)
        return self._evaluate_columns(starts, ends, values, batches=0)

    def evaluate_columns(self, columns: ColumnSet) -> TemporalAggregateResult:
        """Evaluate one flat-column snapshot — the zero-tuple hot path."""
        if not len(columns):
            return self._empty_result()
        return self._evaluate_columns(
            columns.starts, columns.ends, columns.values,
            batches=columns.batches,
        )

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        columns_method = getattr(relation, "columns", None)
        if callable(columns_method):
            return self.evaluate_columns(columns_method(attribute))
        return self.evaluate(relation.scan_triples(attribute))

    def _empty_result(self) -> TemporalAggregateResult:
        self.counters.emitted += 1
        return TemporalAggregateResult.from_columns(
            *identity_columns(self.aggregate, ORIGIN, FOREVER)
        )

    def _evaluate_columns(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        *,
        batches: int,
    ) -> TemporalAggregateResult:
        if self.deadline is not None:
            # The sweep is monolithic; check once before the heavy work
            # (shard-level granularity comes from the parallel plan).
            self.deadline.check(tuples_consumed=0)
        counters = self.counters
        validate_columns(starts, ends)
        answer = columnar_rows(starts, ends, values, self.aggregate)
        # Bulk accounting mirroring the object sweep's totals: one visit
        # and one state update per event, one allocation per event.
        events = event_count(starts, ends)
        counters.tuples += len(starts)
        counters.node_visits += events
        counters.aggregate_updates += events
        counters.emitted += len(answer[0])
        counters.column_batches += batches
        self.space.allocate(events)
        self.space.free(events)
        return TemporalAggregateResult.from_columns(*answer)
