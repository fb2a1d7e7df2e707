"""Mutation tests for the cached-shard invariant check (satellite of
``REPRO_CHECK_INVARIANTS``): a corrupted cached shard must be *caught*
by the sampled re-sweep, and a healthy cache must pass it silently."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import InvariantViolation, verify_cached_shards
from repro.cache.evaluator import evaluate_cached
from repro.cache.store import CacheKey, ShardResultCache

SHARDS = 4


def warm_cache(relation):
    """Evaluate once and hand back (cache, entry, sampled window index)."""
    cache = ShardResultCache()
    evaluate_cached(relation, "count", shards=SHARDS, cache=cache)
    entry = cache.lookup(CacheKey(relation.uid, "count", None, SHARDS))
    sampled = relation.version % len(entry.windows)
    return cache, entry, sampled


class TestMutationIsCaught:
    def test_corrupted_sampled_shard_raises_on_hit(
        self, small_random_relation, invariant_checks
    ):
        cache, entry, sampled = warm_cache(small_random_relation)
        entry.parts[sampled].values[0] += 1
        with pytest.raises(InvariantViolation, match="diverged"):
            evaluate_cached(
                small_random_relation, "count", shards=SHARDS, cache=cache
            )

    def test_dropped_row_raises_on_hit(
        self, small_random_relation, invariant_checks
    ):
        cache, entry, sampled = warm_cache(small_random_relation)
        part = entry.parts[sampled]
        del part.starts[0], part.ends[0], part.values[0]
        with pytest.raises(InvariantViolation, match="rows"):
            evaluate_cached(
                small_random_relation, "count", shards=SHARDS, cache=cache
            )

    def test_corruption_is_silent_with_checks_off(
        self, small_random_relation, no_invariant_checks
    ):
        # Documents what the flag buys: without it a corrupted cache
        # serves the corrupt rows without complaint.
        cache, entry, sampled = warm_cache(small_random_relation)
        entry.parts[sampled].values[0] += 1
        result = evaluate_cached(
            small_random_relation, "count", shards=SHARDS, cache=cache
        )
        assert cache.counters.cache_hits == 1
        assert result.rows != evaluate_cached(
            small_random_relation, "count", shards=SHARDS
        ).rows


class TestHealthyCachePasses:
    def test_clean_hit_passes_under_checks(
        self, small_random_relation, invariant_checks
    ):
        cache, _entry, _sampled = warm_cache(small_random_relation)
        result = evaluate_cached(
            small_random_relation, "count", shards=SHARDS, cache=cache
        )
        assert cache.counters.cache_hits == 1
        assert result.rows

    def test_sampled_window_rotates_with_the_version(
        self, small_random_relation
    ):
        # The sampled index is version-keyed so repeated hits over a
        # mutating relation audit different shards over time.
        cache, entry, sampled = warm_cache(small_random_relation)
        assert sampled == small_random_relation.version % len(entry.windows)

    def test_direct_call_tolerates_empty_windows(self, small_random_relation):
        verify_cached_shards(small_random_relation, None, None, [], [])
