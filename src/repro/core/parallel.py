"""Time-domain sharding: the ``parallel_sweep`` strategy.

:class:`ParallelSweepEvaluator` splits ``[ORIGIN, FOREVER]`` into
windows, clips tuples into the windows they overlap
(:mod:`repro.core.partition`), runs the columnar sweep kernel
(:mod:`repro.core.columnar_sweep`) per window, and stitches the
per-window answer columns back together.  Exact for *every*
decomposable aggregate (clipping preserves the per-instant valid
multiset), including AVG and the non-invertible MIN/MAX.

:func:`sweep_windows` runs the windows, for this evaluator and for the
shard-result cache alike: on the resident worker pool
(:mod:`repro.exec.pool`) when the pool applies, otherwise in process.
Both run the same window kernel, so results are identical either way.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import partition
from repro.core.aggregates import AGGREGATES, Aggregate
from repro.core.base import Evaluator, Triple
from repro.core.columnar_sweep import (
    ColumnarSweepEvaluator,
    validate_columns,
    window_rows,
)
from repro.core.columns import ColumnSet
from repro.core.partition import (
    available_workers,
    seam_merges,
    shard_bounds,
    stitch_columns,
)
from repro.core.result import Columns, TemporalAggregateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.deadline import Deadline
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker
from repro.exec.supervision import RetryPolicy, SupervisionReport
from repro.exec.validation import validate_shards

__all__ = [
    "ParallelSweepEvaluator",
    "registered_instance",
    "sweep_windows",
]


#: Memo of registry-name -> constructed type, filled on first touch
#: under a lock: registered_instance runs on every engine call, and
#: without the memo each call constructs a throwaway aggregate; with a
#: plain dict two threads' first touches would both construct and race
#: the insert (harmless for dicts, but the double-checked discipline
#: keeps the invariant obvious and the construction single).
_REGISTERED_TYPE_MEMO: Dict[str, type] = {}
_REGISTERED_TYPE_LOCK = threading.Lock()


def registered_instance(aggregate: Aggregate) -> bool:
    """Can this aggregate be rebuilt elsewhere from its name alone?

    True for the stock registry aggregates; False for custom instances
    (even ones registered under a stock name but of a different type).
    Both the resident pool and the shard-result cache require it: the
    pool to reconstruct the aggregate in a worker, the cache because
    entries are keyed by aggregate *name*.
    """
    factory = AGGREGATES.get(aggregate.name)
    if factory is None:
        return False
    registered_type = _REGISTERED_TYPE_MEMO.get(aggregate.name)
    if registered_type is None:
        with _REGISTERED_TYPE_LOCK:
            registered_type = _REGISTERED_TYPE_MEMO.get(aggregate.name)
            if registered_type is None:
                registered_type = type(factory())
                _REGISTERED_TYPE_MEMO[aggregate.name] = registered_type
    return registered_type is type(aggregate)


def sweep_windows(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    windows: Sequence[Tuple[int, int]],
    aggregate: Aggregate,
    *,
    columns: "Optional[ColumnSet]" = None,
    deadline: "Optional[Deadline]" = None,
    retry: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    counters: "Optional[OperationCounters]" = None,
) -> Tuple[List[Tuple[Columns, int]], Optional[SupervisionReport]]:
    """Sweep every window: ``(columns, events)`` per window, in order.

    The windows run on the resident pool (:mod:`repro.exec.pool`) when
    there is more than one, the input has at least
    :data:`~repro.core.partition.PARALLEL_MIN_TUPLES` tuples, ``columns``
    — the :class:`~repro.core.columns.ColumnSet` the flat columns came
    from — carries the relation uid/version that keys the shared-memory
    publication (anonymous columns could alias a stale one), a worker
    can rebuild the aggregate by name, and a pool is available.  Then
    worker counter deltas merge into ``counters`` and the run's
    :class:`~repro.exec.supervision.SupervisionReport` comes back
    second.  Everything else — raw triples, small inputs, value columns
    that do not map to int64 — sweeps in process with the deadline
    checked at each shard, and the report is None.
    """
    if (
        len(windows) > 1
        and len(starts) >= partition.PARALLEL_MIN_TUPLES
        and columns is not None
        and columns.uid is not None
        and columns.version is not None
        and registered_instance(aggregate)
    ):
        from repro.exec.pool import active_pool, default_pool

        # The running pool; failing that, the process-default pool,
        # started here only while this process runs a single thread.  A
        # multi-threaded process (a server) forks only by starting the
        # pool explicitly, so no statement forks mid-query.
        pool = active_pool()
        if pool is None and threading.active_count() == 1:
            pool = default_pool()
        outcome = None if pool is None else pool.sweep_columns(
            starts,
            ends,
            values,
            windows,
            aggregate.name,
            uid=columns.uid,
            version=columns.version,
            column_key=columns.column_key,
            owner=columns,
            deadline=deadline,
            retry=retry,
            shard_timeout=shard_timeout,
            counters=counters,
        )
        if outcome is not None:
            shard_results, supervisor = outcome
            return shard_results, supervisor.report
    swept: List[Tuple[Columns, int]] = []
    for index, (lo, hi) in enumerate(windows):
        if deadline is not None:
            deadline.check(completed_shards=index, total_shards=len(windows))
        swept.append(window_rows(starts, ends, values, aggregate, lo, hi))
    return swept, None


class ParallelSweepEvaluator(Evaluator):
    """Time-sharded columnar sweep, fanned out over the resident pool.

    ``shards=None`` uses one shard per available core (capped — see
    :func:`repro.core.partition.available_workers`).  The windows run
    through :func:`sweep_windows`: on the resident pool when it applies,
    in process otherwise, with identical rows.

    Pooled shards are supervised: each gets bounded retries with
    jittered backoff (``retry``), an optional per-shard
    ``shard_timeout`` in seconds, a respawn of any worker that dies or
    hangs, and — after exhausting its attempts — an exact in-process
    fallback, so the evaluator returns the same rows no matter how many
    workers die.  ``last_supervision`` holds the most recent pooled
    run's :class:`~repro.exec.supervision.SupervisionReport` (None when
    the shards ran in process).
    """

    name = "parallel_sweep"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        shards: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.shards = validate_shards(shards)
        self.retry = retry
        self.shard_timeout = shard_timeout
        self.last_supervision: Optional[SupervisionReport] = None

    def _make_delegate(self) -> ColumnarSweepEvaluator:
        delegate = ColumnarSweepEvaluator(
            self.aggregate, counters=self.counters, space=self.space
        )
        delegate.deadline = self.deadline
        return delegate

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        data = triples if isinstance(triples, list) else list(triples)
        shards = self.shards if self.shards is not None else available_workers()
        if not data or shards <= 1:
            return self._make_delegate().evaluate(data)
        # The input arrived as per-row tuple objects; the flat-column
        # entry points (evaluate_columns / evaluate_relation) never
        # build these.
        self.counters.tuple_materializations += len(data)
        starts, ends, values = zip(*data)
        return self._evaluate_sharded(
            starts, ends, values, shards=shards, batches=0
        )

    def evaluate_columns(self, columns: "ColumnSet") -> TemporalAggregateResult:
        """Time-sharded evaluation of one flat-column snapshot.

        The zero-tuple hot path: shard workers receive column slices
        (clipped by :func:`repro.core.partition.clip_columns`) and no
        per-row tuples exist anywhere between the input columns and the
        stitched answer columns.
        """
        shards = self.shards if self.shards is not None else available_workers()
        if not len(columns) or shards <= 1:
            return self._make_delegate().evaluate_columns(columns)
        return self._evaluate_sharded(
            columns.starts,
            columns.ends,
            columns.values,
            shards=shards,
            batches=columns.batches,
            columns=columns,
        )

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        columns_method = getattr(relation, "columns", None)
        if callable(columns_method):
            return self.evaluate_columns(columns_method(attribute))
        return self.evaluate(relation.scan_triples(attribute))

    def _evaluate_sharded(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        *,
        shards: int,
        batches: int,
        columns: "Optional[ColumnSet]" = None,
    ) -> TemporalAggregateResult:
        validate_columns(starts, ends)
        windows = shard_bounds(starts, ends, shards)
        if len(windows) == 1:
            return self._make_delegate()._evaluate_columns(
                starts, ends, values, batches=batches
            )

        shard_results, self.last_supervision = sweep_windows(
            starts,
            ends,
            values,
            windows,
            self.aggregate,
            columns=columns,
            deadline=self.deadline,
            retry=self.retry,
            shard_timeout=self.shard_timeout,
            counters=self.counters,
        )
        # Stitch the per-window columns and fold shard events into the
        # counters (worker-private deltas like ``pool_shards`` were
        # merged by the pool).
        parts = [ColumnSet(*answer) for answer, _events in shard_results]
        answer = stitch_columns(parts, seam_merges(parts, starts, ends))
        counters = self.counters
        counters.tuples += len(starts)
        counters.column_batches += batches
        for _answer, events in shard_results:
            counters.node_visits += events
            counters.aggregate_updates += events
        counters.emitted += len(answer[0])
        self.space.absorb_concurrent(
            [events for _answer, events in shard_results]
        )
        return TemporalAggregateResult.from_columns(*answer)
