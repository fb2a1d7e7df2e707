"""Cached evaluation: pure hits, append deltas, and full recomputes.

:func:`evaluate_cached` is the cache's engine boundary.  Given a
relation carrying the result-cache protocol (uid, version, chained
fingerprint — see :class:`~repro.relation.relation.TemporalRelation`),
it serves one ``temporal_aggregate`` call down one of three paths:

* **Pure hit** — the entry's version and fingerprint match the
  relation's: concatenate the cached shard columns into a fresh
  column-backed result.  No scan, no sort, no sweep, no row objects.
* **Append delta** — the entry predates some appends, and the relation
  confirms that its rows extend the entry's by appends alone
  (:meth:`~repro.relation.relation.TemporalRelation.verify_append_chain`):
  mark dirty exactly the time shards whose windows overlap an appended
  tuple's interval, re-sweep *only those* with the columnar kernel,
  and re-decide the seam merges against the current boundary sets.
  Clean shards' cached columns are reused as they are.
* **Miss** — shard the timeline (:func:`repro.core.partition.
  shard_bounds`), sweep every window, stitch, and store.

All three paths emit the same rows the uncached evaluators produce:
the per-window kernel is shared with ``parallel_sweep``
(:func:`repro.core.columnar_sweep.window_rows`, whose answer columns
become the cache parts) and stitching heals exactly the artificial
seams.  Uncacheable inputs — relations without the protocol,
unregistered aggregate instances, empty relations — fall through to
the plain columnar sweep.

Relations are append-only, so appends are the only change between an
entry and a later version; a relation whose rows differ in any other
way fails the append chain and recomputes.  The sweeps go through
:func:`repro.core.parallel.sweep_windows` with the relation's own
:class:`~repro.core.columns.ColumnSet`, so they run on the resident
pool when it applies, and the pool's shared-memory copy of the columns
lives as long as that ColumnSet.

``REPRO_CHECK_INVARIANTS=1`` adds a sampled-shard audit on every pure
hit: one cached window is re-swept from the live relation and compared
row for row (:func:`repro.analysis.invariants.verify_cached_shards`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.analysis import invariants as _invariants
from repro.core.base import Evaluator, Triple, coerce_aggregate
from repro.core.columnar_sweep import ColumnarSweepEvaluator, validate_columns
from repro.core.columns import ColumnSet
from repro.core.parallel import registered_instance, sweep_windows
from repro.core.partition import available_workers, seam_merges, shard_bounds
from repro.core.result import TemporalAggregateResult
from repro.exec.validation import validate_shards
from repro.cache.store import (
    CachedEntry,
    CacheKey,
    ShardResultCache,
    cacheable_relation,
    default_cache,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.exec.deadline import Deadline
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = ["CachedSweepEvaluator", "evaluate_cached"]


def evaluate_cached(
    relation: Any,
    aggregate: "Aggregate | str",
    attribute: Optional[str] = None,
    *,
    shards: Optional[int] = None,
    cache: Optional[ShardResultCache] = None,
    counters: "Optional[OperationCounters]" = None,
    space: "Optional[SpaceTracker]" = None,
    deadline: "Optional[Deadline]" = None,
) -> TemporalAggregateResult:
    """Evaluate over ``relation`` through the shard-result cache.

    This is an engine boundary: the shard count validates through
    :func:`repro.exec.validation.validate_shards` and the miss path
    bulk-validates the scanned columns before sweeping, exactly as the
    parallel sweep does.
    """
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

    aggregate = coerce_aggregate(aggregate)
    shards = validate_shards(shards)
    counters = counters if counters is not None else OperationCounters()
    space = space if space is not None else SpaceTracker(aggregate)
    if (
        not cacheable_relation(relation)
        or not registered_instance(aggregate)
        or len(relation) == 0
    ):
        delegate = ColumnarSweepEvaluator(aggregate, counters=counters, space=space)
        delegate.deadline = deadline
        return delegate.evaluate_relation(relation, attribute)

    cache = cache if cache is not None else default_cache()
    shard_count = shards if shards is not None else available_workers()
    key = CacheKey(relation.uid, aggregate.name, attribute, shard_count)
    entry = cache.lookup(key)

    if (
        entry is not None
        and entry.version == relation.version
        and entry.fingerprint == relation.fingerprint
    ):
        return _serve_hit(
            relation, aggregate, attribute, entry, cache, counters, deadline
        )

    if (
        entry is not None
        and entry.row_count <= len(relation)
        and relation.verify_append_chain(entry.row_count, entry.fingerprint)
    ):
        return _refresh_append(
            relation, aggregate, attribute, entry, cache, key, counters,
            space, deadline,
        )

    return _recompute(
        relation, aggregate, attribute, cache, key, shard_count, counters,
        space, deadline,
    )


def _serve_hit(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    entry: CachedEntry,
    cache: ShardResultCache,
    counters: "OperationCounters",
    deadline: "Optional[Deadline]" = None,
) -> TemporalAggregateResult:
    # Even a pure hit honors the caller's deadline: a statement that
    # arrived already past its budget must fail typed, not serve rows
    # the session will never read.
    rows = len(entry)
    if deadline is not None:
        deadline.check(cached_rows=rows)
    counters.cache_hits += 1
    cache.tally(cache_hits=1)
    counters.emitted += rows
    if _invariants.invariants_enabled():
        _invariants.verify_cached_shards(
            relation, attribute, aggregate, entry.windows, entry.parts
        )
    return TemporalAggregateResult.from_columns(*entry.columns())


def _scan_columns(
    relation: Any, attribute: Optional[str], counters: "OperationCounters"
) -> ColumnSet:
    """One counted scan as validated flat columns.

    Relations offering the flat-column protocol (``columns()``) feed
    the cache straight from their version-keyed
    :class:`~repro.core.columns.ColumnSet`, whose uid lets the sweeps
    run on the resident pool; no per-row tuples are built between
    storage and the shard kernels.  Protocol-less relations fall back
    to decomposing a triple scan into anonymous columns (and account
    the per-row tuples that scan materialized).
    """
    columns_method = getattr(relation, "columns", None)
    if callable(columns_method):
        columns = columns_method(attribute)
        counters.column_batches += columns.batches
    else:
        starts, ends, values = zip(*relation.scan_triples(attribute))
        counters.tuple_materializations += len(starts)
        columns = ColumnSet(starts, ends, values)
    validate_columns(columns.starts, columns.ends)
    return columns


def _sweep_parts(
    columns: ColumnSet,
    windows: List[Tuple[int, int]],
    aggregate: "Aggregate",
    counters: "OperationCounters",
    deadline: "Optional[Deadline]",
) -> Tuple[List[ColumnSet], List[int]]:
    """Sweep ``windows`` (through :func:`repro.core.parallel.
    sweep_windows`, so on the resident pool when it applies) into cache
    parts, plus the events each window processed.

    A part is its window's answer columns copied by slicing: the
    kernels' appended columns over-allocate, and the cache charges the
    allocated bytes, so it stores exactly-sized copies.
    """
    swept, _report = sweep_windows(
        columns, windows, aggregate, deadline=deadline, counters=counters
    )
    parts = [
        ColumnSet(part_starts[:], part_ends[:], part_values[:])
        for (part_starts, part_ends, part_values), _events in swept
    ]
    return parts, [events for _answer, events in swept]


def _finish(
    entry: CachedEntry,
    cache: ShardResultCache,
    key: CacheKey,
    counters: "OperationCounters",
) -> TemporalAggregateResult:
    """Answer from a freshly built entry, then publish it."""
    counters.emitted += len(entry)
    result = TemporalAggregateResult.from_columns(*entry.columns())
    cache.store(key, entry)
    return result


def _refresh_append(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    entry: CachedEntry,
    cache: ShardResultCache,
    key: CacheKey,
    counters: "OperationCounters",
    space: "SpaceTracker",
    deadline: "Optional[Deadline]",
) -> TemporalAggregateResult:
    """Fold appended tuples in by re-sweeping only the dirty shards.

    The refresh is copy-on-write: a published entry is never mutated
    (a concurrent session that validated the old version against the
    old entry may still be copying its rows), so the dirty shards are
    re-swept into a *fresh* entry that replaces the stale one in the
    store.  Readers holding the old object keep a consistent row set
    for the version they pinned.
    """
    # Uncharge the stale entry up front; the refreshed entry re-admits
    # (and re-applies the byte budget) through the normal store path.
    cache.discard(key)
    columns = _scan_columns(relation, attribute, counters)
    # The appended rows are the columns' tail past the entry's rows.
    appended_starts = columns.starts[entry.row_count :]
    appended_ends = columns.ends[entry.row_count :]
    windows = entry.windows
    dirty = [
        index
        for index, (lo, hi) in enumerate(windows)
        if any(
            start <= hi and end >= lo
            for start, end in zip(appended_starts, appended_ends)
        )
    ]
    parts = list(entry.parts)
    swept, events_by_shard = _sweep_parts(
        columns, [windows[index] for index in dirty], aggregate, counters,
        deadline,
    )
    for index, part in zip(dirty, swept):
        parts[index] = part
    counters.tuples += len(appended_starts)
    counters.node_visits += sum(events_by_shard)
    counters.aggregate_updates += sum(events_by_shard)
    counters.cache_hits += 1
    counters.cache_dirty_shards += len(dirty)
    cache.tally(cache_hits=1, cache_dirty_shards=len(dirty))
    space.absorb_concurrent(events_by_shard)

    refreshed = CachedEntry(
        version=relation.version,
        fingerprint=relation.fingerprint,
        row_count=len(relation),
        windows=windows,
        parts=parts,
        merges=seam_merges(parts, columns.starts, columns.ends),
    )
    return _finish(refreshed, cache, key, counters)


def _recompute(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    cache: ShardResultCache,
    key: CacheKey,
    shard_count: int,
    counters: "OperationCounters",
    space: "SpaceTracker",
    deadline: "Optional[Deadline]",
) -> TemporalAggregateResult:
    """Full miss: sweep every window, stitch, store."""
    counters.cache_misses += 1
    cache.tally(cache_misses=1)
    cache.discard(key)
    columns = _scan_columns(relation, attribute, counters)
    windows = shard_bounds(columns.starts, columns.ends, shard_count)
    parts, events_by_shard = _sweep_parts(
        columns, windows, aggregate, counters, deadline
    )
    counters.tuples += len(columns)
    counters.node_visits += sum(events_by_shard)
    counters.aggregate_updates += sum(events_by_shard)
    space.absorb_concurrent(events_by_shard)

    entry = CachedEntry(
        version=relation.version,
        fingerprint=relation.fingerprint,
        row_count=len(relation),
        windows=windows,
        parts=parts,
        merges=seam_merges(parts, columns.starts, columns.ends),
    )
    return _finish(entry, cache, key, counters)


class CachedSweepEvaluator(Evaluator):
    """The ``cached_sweep`` strategy: sharded sweep behind the cache.

    Over a relation carrying the cache protocol, evaluation routes
    through :func:`evaluate_cached`; over raw triples (no identity, no
    version — nothing to key a cache on) it behaves exactly like the
    columnar sweep, so the strategy is safe to select anywhere.
    ``cache=None`` uses the process-default cache at call time.
    """

    name = "cached_sweep"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        shards: Optional[int] = None,
        cache: Optional[ShardResultCache] = None,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.shards = validate_shards(shards)
        self.cache = cache

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        delegate = ColumnarSweepEvaluator(
            self.aggregate, counters=self.counters, space=self.space
        )
        delegate.deadline = self.deadline
        return delegate.evaluate(triples)

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        return evaluate_cached(
            relation,
            self.aggregate,
            attribute,
            shards=self.shards,
            cache=self.cache,
            counters=self.counters,
            space=self.space,
            deadline=self.deadline,
        )
