"""Unit tests for the cache store: LRU, byte budget, repeat detection."""

from __future__ import annotations

import sys
from array import array

import pytest

from repro.cache.store import (
    DEFAULT_BUDGET_BYTES,
    ENV_BUDGET,
    RECENT_QUERY_LIMIT,
    CachedEntry,
    CacheKey,
    ShardResultCache,
    cacheable_relation,
    default_cache,
    set_default_cache,
)
from repro.core.columns import ColumnSet
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.storage.heapfile import HeapFile


def make_key(uid: int = 1, aggregate: str = "count") -> CacheKey:
    return CacheKey(uid, aggregate, None, 4)


def make_part(rows: int) -> ColumnSet:
    return ColumnSet(array("q", [0] * rows), array("q", [0] * rows), [0] * rows)


def make_entry(rows: int = 10, shards: int = 2) -> CachedEntry:
    """An entry of ``shards`` unmerged parts holding ``rows`` rows."""
    per_shard = rows // shards
    return CachedEntry(
        version=1,
        fingerprint=42,
        row_count=rows,
        windows=[(i, i) for i in range(shards)],
        parts=[make_part(per_shard) for _ in range(shards)],
        merges=[False] * shards,
    )


class TestCacheableRelation:
    def test_temporal_relation_is_cacheable(self):
        assert cacheable_relation(TemporalRelation(EMPLOYED_SCHEMA))

    def test_heapfile_and_raw_inputs_are_not(self):
        assert not cacheable_relation(HeapFile(EMPLOYED_SCHEMA))
        assert not cacheable_relation([(0, 5, 1)])
        assert not cacheable_relation(None)


class TestEntryLifecycle:
    def test_store_lookup_roundtrip(self):
        cache = ShardResultCache()
        key, entry = make_key(), make_entry()
        assert cache.store(key, entry)
        assert cache.lookup(key) is entry
        assert key in cache
        assert len(cache) == 1

    def test_columns_concatenate_the_parts_across_merged_seams(self):
        entry = CachedEntry(
            version=1,
            fingerprint=42,
            row_count=3,
            windows=[(0, 14), (15, 40), (41, 50)],
            parts=[
                ColumnSet(array("q", [0]), array("q", [14]), [2]),
                ColumnSet(array("q", [15, 31]), array("q", [30, 40]), [2, 3]),
                ColumnSet(array("q", [41]), array("q", [50]), [4]),
            ],
            merges=[False, True, False],
        )
        starts, ends, values = entry.columns()
        assert (list(starts), list(ends), values) == ([0, 31, 41], [30, 40, 50], [2, 3, 4])
        assert len(entry) == 3
        # Every hit gets fresh columns; the parts stay as they were.
        assert entry.columns()[0] is not starts
        assert list(entry.parts[0].ends) == [14]

    def test_lookup_miss_returns_none(self):
        cache = ShardResultCache()
        assert cache.lookup(make_key()) is None

    def test_store_charges_the_column_buffers(self):
        cache = ShardResultCache()
        entry = make_entry(rows=10)
        cache.store(make_key(), entry)
        part = make_part(5)
        per_part = (
            sys.getsizeof(part.starts)
            + sys.getsizeof(part.ends)
            + sys.getsizeof(part.values)
        )
        assert entry.charged_bytes == 2 * per_part
        assert cache.live_bytes == entry.charged_bytes

    def test_replacing_an_entry_frees_the_old_charge(self):
        cache = ShardResultCache()
        key = make_key()
        cache.store(key, make_entry(rows=100))
        small = make_entry(rows=10)
        cache.store(key, small)
        assert len(cache) == 1
        assert cache.live_bytes == small.charged_bytes

    def test_discard_is_idempotent(self):
        cache = ShardResultCache()
        key = make_key()
        cache.store(key, make_entry())
        cache.discard(key)
        cache.discard(key)
        assert len(cache) == 0
        assert cache.live_bytes == 0


class TestBudgetAndEviction:
    def budget_for(self, entries: int, rows: int) -> int:
        """A budget that fits exactly ``entries`` entries of ``rows`` rows."""
        return entries * make_entry(rows=rows).charged_bytes

    def test_lru_eviction_past_the_budget(self):
        cache = ShardResultCache(self.budget_for(2, 10))
        keys = [make_key(uid) for uid in (1, 2, 3)]
        for key in keys:
            cache.store(key, make_entry(rows=10))
        assert keys[0] not in cache  # oldest evicted
        assert keys[1] in cache and keys[2] in cache
        assert cache.counters.cache_evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = ShardResultCache(self.budget_for(2, 10))
        keys = [make_key(uid) for uid in (1, 2, 3)]
        cache.store(keys[0], make_entry(rows=10))
        cache.store(keys[1], make_entry(rows=10))
        cache.lookup(keys[0])  # protect the older entry
        cache.store(keys[2], make_entry(rows=10))
        assert keys[0] in cache
        assert keys[1] not in cache

    def test_oversized_entry_is_not_admitted(self):
        cache = ShardResultCache(self.budget_for(1, 10) - 1)
        assert not cache.store(make_key(), make_entry(rows=10))
        assert len(cache) == 0
        assert cache.live_bytes == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardResultCache(0)

    def test_env_budget_is_read_at_construction(self, monkeypatch):
        monkeypatch.setenv(ENV_BUDGET, "12345")
        assert ShardResultCache().budget_bytes == 12345
        monkeypatch.delenv(ENV_BUDGET)
        assert ShardResultCache().budget_bytes == DEFAULT_BUDGET_BYTES

    def test_shed_releases_everything(self):
        cache = ShardResultCache()
        for uid in range(3):
            cache.store(make_key(uid), make_entry(rows=10))
        held = cache.live_bytes
        assert cache.shed() == held
        assert len(cache) == 0
        assert cache.live_bytes == 0
        assert cache.counters.cache_evictions == 3

    def test_reset_clears_entries_recency_and_counters(self):
        cache = ShardResultCache()
        cache.store(make_key(), make_entry())
        cache.note_query(1, "count", None)
        cache.reset()
        assert len(cache) == 0
        assert cache.counters.cache_evictions == 0
        assert not cache.note_query(1, "count", None)  # recency forgotten


class TestRepeatDetection:
    def test_first_sighting_is_not_a_repeat(self):
        cache = ShardResultCache()
        assert not cache.note_query(7, "count", None)
        assert cache.note_query(7, "count", None)

    def test_signature_includes_aggregate_and_attribute(self):
        cache = ShardResultCache()
        cache.note_query(7, "count", None)
        assert not cache.note_query(7, "sum", "salary")
        assert not cache.note_query(8, "count", None)

    def test_signature_set_is_bounded(self):
        cache = ShardResultCache()
        cache.note_query(0, "count", None)
        for uid in range(1, RECENT_QUERY_LIMIT + 1):
            cache.note_query(uid, "count", None)
        # uid 0 was the LRU signature and has been displaced.
        assert not cache.note_query(0, "count", None)


class TestDefaultCache:
    def test_default_cache_is_process_wide(self):
        assert default_cache() is default_cache()

    def test_set_default_cache_replaces(self):
        replacement = ShardResultCache()
        set_default_cache(replacement)
        assert default_cache() is replacement
