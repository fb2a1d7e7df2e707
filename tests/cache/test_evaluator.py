"""Correctness of the cached evaluation paths: hit, append delta, miss.

The acceptance bar mirrors the parallel sweep's: every path returns
row-for-row what the brute-force reference computes over the live
relation — a cache that is fast but stale would pass no test here.
"""

from __future__ import annotations

import pytest

from repro.cache.evaluator import CachedSweepEvaluator, evaluate_cached
from repro.cache.store import CacheKey, ShardResultCache, default_cache
from repro.core.aggregates import CountAggregate
from repro.core.engine import STRATEGIES, temporal_aggregate
from repro.core.planner import CACHE_MIN_TUPLES
from repro.core.reference import ReferenceEvaluator
from repro.metrics.counters import OperationCounters
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.workload.generator import WorkloadParameters, generate_relation

AGGREGATES = [
    ("count", None),
    ("sum", "salary"),
    ("min", "salary"),
    ("max", "salary"),
    ("avg", "salary"),
]

SHARDS = 4


def reference_rows(relation, aggregate, attribute):
    return ReferenceEvaluator(aggregate).evaluate(
        list(relation.scan_triples(attribute))
    ).rows


class TestWarmHitEquality:
    @pytest.mark.parametrize("aggregate,attribute", AGGREGATES)
    def test_cold_and_warm_rows_match_reference(
        self, small_random_relation, aggregate, attribute
    ):
        cache = ShardResultCache()
        cold = evaluate_cached(
            small_random_relation, aggregate, attribute,
            shards=SHARDS, cache=cache,
        )
        warm = evaluate_cached(
            small_random_relation, aggregate, attribute,
            shards=SHARDS, cache=cache,
        )
        expected = reference_rows(small_random_relation, aggregate, attribute)
        assert cold.rows == expected
        assert warm.rows == expected
        assert cache.counters.cache_misses == 1
        assert cache.counters.cache_hits == 1

    def test_pure_hit_never_rescans_the_relation(
        self, small_random_relation, no_invariant_checks
    ):
        # (The invariant audit intentionally rescans one shard on a
        # hit; this test pins the behaviour with the audit off.)
        cache = ShardResultCache()
        evaluate_cached(small_random_relation, "count", shards=SHARDS, cache=cache)
        scans = small_random_relation.scan_count
        result = evaluate_cached(
            small_random_relation, "count", shards=SHARDS, cache=cache
        )
        assert small_random_relation.scan_count == scans
        assert result.rows  # and still produced the full answer

    def test_hit_returns_an_independent_row_list(self, small_random_relation):
        cache = ShardResultCache()
        first = evaluate_cached(
            small_random_relation, "count", shards=SHARDS, cache=cache
        )
        first.rows.clear()  # a caller mauling its result
        second = evaluate_cached(
            small_random_relation, "count", shards=SHARDS, cache=cache
        )
        assert second.rows == reference_rows(small_random_relation, "count", None)


class TestAppendDelta:
    def test_append_recomputes_only_dirty_shards(self, small_random_relation):
        cache = ShardResultCache()
        evaluate_cached(small_random_relation, "count", shards=SHARDS, cache=cache)
        key = CacheKey(small_random_relation.uid, "count", None, SHARDS)
        windows = cache.lookup(key).windows
        # Append one short tuple confined to the first window.
        lo, hi = windows[0]
        small_random_relation.insert(("Nick", 1), hi - 1, hi)
        counters = OperationCounters()
        result = evaluate_cached(
            small_random_relation, "count",
            shards=SHARDS, cache=cache, counters=counters,
        )
        assert result.rows == reference_rows(small_random_relation, "count", None)
        assert counters.cache_dirty_shards == 1
        assert counters.cache_hits == 1
        assert counters.cache_misses == 0

    def test_wide_append_dirties_every_overlapping_shard(
        self, small_random_relation
    ):
        cache = ShardResultCache()
        evaluate_cached(small_random_relation, "count", shards=SHARDS, cache=cache)
        key = CacheKey(small_random_relation.uid, "count", None, SHARDS)
        shard_count = len(cache.lookup(key).windows)
        span = small_random_relation.lifespan
        small_random_relation.insert(("Karen", 2), span.start, span.end)
        counters = OperationCounters()
        result = evaluate_cached(
            small_random_relation, "count",
            shards=SHARDS, cache=cache, counters=counters,
        )
        assert result.rows == reference_rows(small_random_relation, "count", None)
        assert counters.cache_dirty_shards == shard_count

    @pytest.mark.parametrize("aggregate,attribute", AGGREGATES)
    def test_delta_rows_match_reference_for_every_aggregate(
        self, small_random_relation, aggregate, attribute
    ):
        cache = ShardResultCache()
        evaluate_cached(
            small_random_relation, aggregate, attribute,
            shards=SHARDS, cache=cache,
        )
        small_random_relation.insert(("Mike", 77_000), 100, 5_000)
        small_random_relation.insert(("Ilsoo", 30_000), 900_000, 990_000)
        result = evaluate_cached(
            small_random_relation, aggregate, attribute,
            shards=SHARDS, cache=cache,
        )
        expected = reference_rows(small_random_relation, aggregate, attribute)
        assert result.rows == expected

    def test_reorder_invalidates_to_a_full_miss(self, small_random_relation):
        # Relations are append-only: reordering makes a new relation,
        # which never reuses the original's entry.
        cache = ShardResultCache()
        evaluate_cached(small_random_relation, "count", shards=SHARDS, cache=cache)
        ordered = small_random_relation.sorted_by_time()
        result = evaluate_cached(ordered, "count", shards=SHARDS, cache=cache)
        assert result.rows == reference_rows(ordered, "count", None)
        assert cache.counters.cache_misses == 2
        assert cache.counters.cache_dirty_shards == 0


class TestUncacheableFallbacks:
    def test_raw_triples_evaluate_like_the_columnar_sweep(self):
        triples = [(0, 9, 1), (5, 14, 2), (20, 29, 3)]
        evaluator = CachedSweepEvaluator("count", cache=ShardResultCache())
        result = evaluator.evaluate(list(triples))
        assert result.rows == ReferenceEvaluator("count").evaluate(triples).rows

    def test_custom_aggregate_instances_bypass_the_cache(
        self, small_random_relation
    ):
        class ShadowCount(CountAggregate):
            """Same registry name, different type — must not be cached."""

        cache = ShardResultCache()
        result = evaluate_cached(
            small_random_relation, ShadowCount(), shards=SHARDS, cache=cache
        )
        assert result.rows == reference_rows(small_random_relation, "count", None)
        assert len(cache) == 0
        assert cache.counters.cache_misses == 0

    def test_empty_relation_bypasses_the_cache(self):
        cache = ShardResultCache()
        empty = TemporalRelation(EMPLOYED_SCHEMA)
        result = evaluate_cached(empty, "count", shards=SHARDS, cache=cache)
        assert len(result.rows) == 1
        assert result.rows[0].value == 0
        assert len(cache) == 0


class TestEngineIntegration:
    def test_strategy_is_registered(self):
        assert STRATEGIES["cached_sweep"] is CachedSweepEvaluator

    def test_explicit_strategy_matches_reference(self, small_random_relation):
        via_cache = temporal_aggregate(
            small_random_relation, "sum", "salary", strategy="cached_sweep"
        )
        expected = reference_rows(small_random_relation, "sum", "salary")
        assert via_cache.rows == expected

    def test_planner_auto_selects_on_repeat(self):
        relation = generate_relation(
            WorkloadParameters(tuples=CACHE_MIN_TUPLES, seed=5)
        )
        _first, cold = temporal_aggregate(relation, "count", explain=True)
        _second, warm = temporal_aggregate(relation, "count", explain=True)
        assert cold.strategy != "cached_sweep"
        assert warm.strategy == "cached_sweep"
        assert "repeated" in warm.reason

    def test_planner_ignores_repeats_below_the_size_floor(
        self, small_random_relation
    ):
        temporal_aggregate(small_random_relation, "count")
        _result, decision = temporal_aggregate(
            small_random_relation, "count", explain=True
        )
        assert decision.strategy != "cached_sweep"

    def test_engine_routes_to_the_default_cache(self, small_random_relation):
        temporal_aggregate(small_random_relation, "count", strategy="cached_sweep")
        temporal_aggregate(small_random_relation, "count", strategy="cached_sweep")
        assert default_cache().counters.cache_hits == 1
