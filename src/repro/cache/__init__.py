"""Mergeable shard-result cache with incremental (delta) maintenance.

The paper's algorithms recompute every constant interval from scratch
on each call.  This package memoizes the time-sharded partial results
the parallel sweep already produces (PR 1's shard/clip/stitch
decomposition) and maintains them incrementally:

* repeated queries over an unchanged relation are served straight from
  the cached shard columns (``cache_hits``),
* appends dirty only the shards whose windows overlap the new tuples'
  intervals; clean shards are never re-swept (``cache_dirty_shards``),
* memory is bounded by a byte budget with LRU eviction
  (``cache_evictions``), and the whole cache is the first allocation
  shed under a tripped memory budget.

Entry points: the ``cached_sweep`` strategy registered with the engine
(:class:`~repro.cache.evaluator.CachedSweepEvaluator`, auto-selected by
the planner for repeatedly queried relations) and
:func:`~repro.cache.evaluator.evaluate_cached` directly.
"""

from repro.cache.evaluator import CachedSweepEvaluator, evaluate_cached
from repro.cache.store import (
    DEFAULT_BUDGET_BYTES,
    ENV_BUDGET,
    CachedEntry,
    CacheKey,
    ShardResultCache,
    cacheable_relation,
    default_cache,
    set_default_cache,
    shed_default_cache,
)

__all__ = [
    "CachedSweepEvaluator",
    "evaluate_cached",
    "CacheKey",
    "CachedEntry",
    "ShardResultCache",
    "cacheable_relation",
    "default_cache",
    "set_default_cache",
    "shed_default_cache",
    "DEFAULT_BUDGET_BYTES",
    "ENV_BUDGET",
]
