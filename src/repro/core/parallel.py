"""Partitioned evaluation: time-sharded processes and tuple-set merging.

Two parallel plans live here, one per partitioning axis:

* **Time-domain sharding** (:class:`ParallelSweepEvaluator`, strategy
  ``"parallel_sweep"``) — split ``[ORIGIN, FOREVER]`` into windows,
  clip tuples into the windows they overlap
  (:mod:`repro.core.partition`), run the columnar sweep kernel
  (:mod:`repro.core.columnar_sweep`) per window on a
  ``ProcessPoolExecutor``, and stitch the per-window answer columns
  back together.  Exact for *every* decomposable aggregate (clipping
  preserves the per-instant valid multiset), including AVG and the
  non-invertible MIN/MAX.  Falls back to the same in-process shard
  functions for small inputs, a single shard, unregistered custom
  aggregates, or platforms without ``fork``, so results are identical
  either way.

* **Tuple-set partitioning** (:func:`partitioned_aggregate`) — the
  historical plan after Bitton et al.'s *Parallel Algorithms for the
  Execution of Relational Database Operations* (in the paper's
  bibliography): split the tuples round-robin, evaluate each chunk
  independently, merge the finalized values with
  :func:`merge_results`.  Merging needs the finalized value domain to
  itself be mergeable, which holds for COUNT, SUM, MIN and MAX but not
  AVG (a finalized mean loses its weight) — exactly the limitation the
  time-domain plan removes.

The process pool is created per evaluation with the ``fork`` start
method *after* the parent publishes the input columns in module
globals, so workers inherit the data copy-on-write and nothing but the
tiny window descriptors and the flat answer columns crosses the pipe.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.aggregates import AGGREGATES, Aggregate, get_aggregate
from repro.core.base import Evaluator, Triple, coerce_aggregate
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
from repro.core.result import Columns, ConstantInterval, TemporalAggregateResult
from repro.exec.errors import InvalidInput

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker
from repro.exec.faults import current_fault_plan
from repro.exec.supervision import RetryPolicy, ShardSupervisor, SupervisionReport
from repro.exec.validation import validate_shards

__all__ = [
    "MERGEABLE_AGGREGATES",
    "ParallelSweepEvaluator",
    "merge_results",
    "partitioned_aggregate",
    "registered_instance",
]

#: Below this many tuples the fork + pickle overhead of a process pool
#: dwarfs the sweep itself; shards run in-process instead.  This is
#: the *default*: the live threshold is the ``REPRO_POOL_MIN_TUPLES``
#: env knob, read per evaluation through
#: :func:`repro.exec.pool.pool_min_tuples`.
POOL_MIN_TUPLES = 32_768

#: Aggregates whose finalized values merge like states.
MERGEABLE_AGGREGATES = {"count", "sum", "min", "max"}

_VALUE_MERGERS: dict = {
    "count": lambda a, b: a + b,
    "sum": lambda a, b: b if a is None else (a if b is None else a + b),
    "min": lambda a, b: b if a is None else (a if b is None else min(a, b)),
    "max": lambda a, b: b if a is None else (a if b is None else max(a, b)),
}


def _value_merger(aggregate_name: str) -> Callable[[Any, Any], Any]:
    try:
        return _VALUE_MERGERS[aggregate_name]
    except KeyError as exc:
        raise InvalidInput(
            f"no finalized-value merger registered under key "
            f"{aggregate_name!r}: the aggregate does not merge on "
            f"finalized values (mergeable: {sorted(MERGEABLE_AGGREGATES)}); "
            "for AVG merge SUM and COUNT partitions and divide"
        ) from exc


def merge_results(
    left: TemporalAggregateResult,
    right: TemporalAggregateResult,
    aggregate: "Aggregate | str",
) -> TemporalAggregateResult:
    """Combine results computed over disjoint tuple subsets.

    Both inputs must partition the same timeline (which every core
    evaluator guarantees).  Output rows are cut at the union of both
    boundary sets and merged per aligned piece; adjacent rows are *not*
    value-coalesced (callers can apply
    :meth:`TemporalAggregateResult.coalesce_values`).
    """
    aggregate = coerce_aggregate(aggregate)
    merge = _value_merger(aggregate.name)
    left.verify_partition(full_cover=True)
    right.verify_partition(full_cover=True)

    rows: List[ConstantInterval] = []
    i = j = 0
    cursor = left.rows[0].start  # == ORIGIN for full covers
    while i < len(left.rows) and j < len(right.rows):
        a = left.rows[i]
        b = right.rows[j]
        end = min(a.end, b.end)
        rows.append(ConstantInterval(cursor, end, merge(a.value, b.value)))
        cursor = end + 1
        if a.end == end:
            i += 1
        if b.end == end:
            j += 1
    return TemporalAggregateResult(rows, check=False)


# ---------------------------------------------------------------------------
# Time-domain sharding
# ---------------------------------------------------------------------------

#: Input columns published by the parent just before forking so pool
#: workers inherit them copy-on-write; holds the aggregate *name* when
#: crossing processes (the instance for in-process shards).
_SHARD_STATE: dict = {}

#: Serializes sharded evaluations across threads: the shard state is a
#: module global (so fork can inherit it copy-on-write), which means
#: two concurrent ParallelSweepEvaluator runs — e.g. two server
#: sessions on worker threads — would publish over each other.  Held
#: for the whole publish/fan-out/clear window.
_SHARD_STATE_LOCK = threading.RLock()


def _resolve_shard_aggregate() -> Aggregate:
    spec = _SHARD_STATE["aggregate"]
    return get_aggregate(spec) if isinstance(spec, str) else spec


def _shard_worker(window: Tuple[int, int]) -> Tuple[Columns, int]:
    """Evaluate one time window against the inherited columns.

    Returns the window's answer columns plus the number of events the
    shard processed (for the parent's counter aggregation).
    """
    lo, hi = window
    state = _SHARD_STATE
    aggregate = _resolve_shard_aggregate()
    return window_rows(
        state["starts"], state["ends"], state["values"], aggregate, lo, hi
    )


def _shard_task(args: Tuple[Tuple[int, int], int, int, bool]) -> Tuple[Columns, int]:
    """Supervised entry point: one shard attempt, in or out of the pool.

    ``args`` is ``(window, shard_index, attempt, in_pool)``.  Injected
    faults (:mod:`repro.exec.faults`) fire only when ``in_pool`` is
    true — pool workers inherit the active plan through ``fork`` — so
    the supervisor's in-process fallback is exempt by construction and
    always computes the exact shard answer.
    """
    window, shard_index, attempt, in_pool = args
    if in_pool:
        plan = current_fault_plan()
        if plan is not None:
            poison = plan.execute_in_worker(shard_index, attempt)
            if poison is not None:
                return poison  # unpicklable: fails on the way back
    return _shard_worker(window)


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
    Both the process-pool fan-out and the shard-result cache require
    it: the pool to reconstruct the aggregate in a worker, the cache
    because entries are keyed by aggregate *name*.
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


class ParallelSweepEvaluator(Evaluator):
    """Time-sharded columnar sweep, fanned out over processes.

    ``shards=None`` uses one shard per available core (capped — see
    :func:`repro.core.partition.available_workers`).  ``use_processes``
    forces (True) or forbids (False) the process pool; the default
    ``None`` uses it only when it can pay for itself: ``shards > 1``,
    at least :data:`POOL_MIN_TUPLES` tuples, a ``fork`` start method,
    and an aggregate reconstructible by registry name in the workers.
    Shard evaluation itself is identical in or out of the pool.

    Pooled shards run under a :class:`~repro.exec.supervision.
    ShardSupervisor`: each shard gets bounded retries with jittered
    backoff (``retry``), an optional per-shard ``shard_timeout`` in
    seconds, and — after exhausting its attempts or losing the pool —
    an exact in-process fallback, so the evaluator returns the same
    rows no matter how many workers die.  ``last_supervision`` holds
    the most recent run's :class:`~repro.exec.supervision.
    SupervisionReport`.
    """

    name = "parallel_sweep"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        shards: Optional[int] = None,
        use_processes: Optional[bool] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        max_pool_rebuilds: int = 2,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.shards = validate_shards(shards)
        self.use_processes = use_processes
        self.retry = retry
        self.shard_timeout = shard_timeout
        self.max_pool_rebuilds = max_pool_rebuilds
        self.last_supervision: Optional[SupervisionReport] = None

    def _pool_usable(self, tuple_count: int, windows: int) -> bool:
        from repro.exec.pool import pool_min_tuples

        if windows <= 1 or not registered_instance(self.aggregate):
            return False
        if self.use_processes is not None:
            return self.use_processes
        return (
            tuple_count >= pool_min_tuples()
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _make_delegate(self) -> ColumnarSweepEvaluator:
        delegate = ColumnarSweepEvaluator(
            self.aggregate, counters=self.counters, space=self.space
        )
        delegate.deadline = self.deadline
        return delegate

    def _delegate_columnar(self, data: List[Triple]) -> TemporalAggregateResult:
        return self._make_delegate().evaluate(data)

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        data = triples if isinstance(triples, list) else list(triples)
        shards = self.shards if self.shards is not None else available_workers()
        if not data or shards <= 1:
            return self._delegate_columnar(data)
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

    def _resident_sharded(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        windows: Sequence[Tuple[int, int]],
        columns: "Optional[ColumnSet]",
    ) -> Optional[List[Tuple[Columns, int]]]:
        """Try the resident shared-memory backend for this fan-out.

        Engages only for an *identified* snapshot (a ColumnSet stamped
        with its relation uid/version — anonymous columns could alias a
        stale publication) whose columns map to int64 segments.
        Returns per-window ``(columns, events)`` results with worker
        counter deltas already merged, or None to use the legacy
        fork-per-evaluation path.
        """
        if columns is None or columns.uid is None or columns.version is None:
            return None
        from repro.exec.pool import default_pool

        pool = default_pool()
        if pool is None:
            return None
        outcome = pool.sweep_columns(
            starts,
            ends,
            values,
            windows,
            self.aggregate.name,
            uid=columns.uid,
            version=columns.version,
            column_key=columns.column_key,
            owner=columns,
            deadline=self.deadline,
            retry=self.retry,
            shard_timeout=self.shard_timeout,
            counters=self.counters,
        )
        if outcome is None:
            return None
        shard_results, supervisor = outcome
        self.last_supervision = supervisor.report
        return shard_results

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
            delegate = self._make_delegate()
            result = delegate._evaluate_columns(
                starts, ends, values, batches=batches
            )
            return result

        if self._pool_usable(len(starts), len(windows)):
            self.last_supervision = None
            resident = self._resident_sharded(
                starts, ends, values, windows, columns
            )
            if resident is not None:
                return self._fold_shard_results(
                    resident, starts, ends, batches
                )

        # Serialize sharded runs across threads: the shard state is a
        # module global (fork inherits it copy-on-write), so concurrent
        # server sessions must not publish over each other.  The whole
        # publish/fan-out/clear window is deliberately held — that
        # serialization *is* the correctness property — and the with
        # block (rather than bare acquire/release) keeps the critical
        # section visible to the static lock-discipline pass.
        with _SHARD_STATE_LOCK:
            _SHARD_STATE.update(
                starts=starts,
                ends=ends,
                values=values,
                aggregate=(
                    self.aggregate.name
                    if registered_instance(self.aggregate)
                    else self.aggregate
                ),
            )
            self.last_supervision = None
            try:
                if self._pool_usable(len(starts), len(windows)):
                    # Publish the columns, *then* fork: workers inherit
                    # the data (and any active fault plan) copy-on-write.
                    supervisor = ShardSupervisor(
                        _shard_task,
                        windows,
                        mp_context=multiprocessing.get_context("fork"),
                        retry=self.retry,
                        shard_timeout=self.shard_timeout,
                        deadline=self.deadline,
                        max_pool_rebuilds=self.max_pool_rebuilds,
                    )
                    shard_results = supervisor.run()
                    self.last_supervision = supervisor.report
                else:
                    shard_results = []
                    for index, window in enumerate(windows):
                        if self.deadline is not None:
                            self.deadline.check(
                                completed_shards=index,
                                total_shards=len(windows),
                            )
                        shard_results.append(
                            _shard_task((window, index, 1, False))
                        )
            finally:
                _SHARD_STATE.clear()

        return self._fold_shard_results(shard_results, starts, ends, batches)

    def _fold_shard_results(
        self,
        shard_results: List[Tuple[Columns, int]],
        starts: Sequence[int],
        ends: Sequence[int],
        batches: int,
    ) -> TemporalAggregateResult:
        """Stitch per-window columns and fold shard events into counters.

        Shared by the resident and legacy backends, so both produce
        identical rows *and* identical counter shapes (worker-private
        deltas like ``pool_shards`` are merged separately by the
        resident backend before this fold).
        """
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


# ---------------------------------------------------------------------------
# Tuple-set partitioning (the historical value-merge plan)
# ---------------------------------------------------------------------------

def partitioned_aggregate(
    triples: Iterable[Triple],
    aggregate: "Aggregate | str",
    partitions: int = 4,
    strategy: str = "aggregation_tree",
    *,
    k: Optional[int] = None,
    threads: bool = False,
) -> TemporalAggregateResult:
    """Evaluate per round-robin partition, then merge.

    ``threads=True`` runs the per-partition evaluations on a thread
    pool (the parallel plan's shape; CPU-bound pure Python won't scale
    past the GIL, but the plan and merge logic are what's modeled).
    """
    from repro.core.engine import make_evaluator  # deferred: import cycle

    aggregate = coerce_aggregate(aggregate)
    _value_merger(aggregate.name)  # validate up front
    validate_shards(partitions, what="partitions")

    chunks: List[List[Triple]] = [[] for _ in range(partitions)]
    for index, triple in enumerate(triples):
        chunks[index % partitions].append(triple)

    def evaluate(chunk: Sequence[Triple]) -> TemporalAggregateResult:
        evaluator = make_evaluator(strategy, aggregate, k=k)
        return evaluator.evaluate(list(chunk))

    if threads and partitions > 1:
        with ThreadPoolExecutor(max_workers=partitions) as pool:
            partials = list(pool.map(evaluate, chunks))
    else:
        partials = [evaluate(chunk) for chunk in chunks]

    merged = partials[0]
    for partial in partials[1:]:
        merged = merge_results(merged, partial, aggregate)
    return merged
