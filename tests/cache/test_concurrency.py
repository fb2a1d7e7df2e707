"""Concurrency stress tests for the shared cache layer.

Three first-touch / hot-path races the serving layer depends on:

* ``default_cache()`` — many threads racing the lazy construction must
  all observe the *same* cache instance (double-checked locking);
* ``registered_instance`` — concurrent first touches of the
  per-aggregate type memo must agree and stay correct;
* ``ShardResultCache`` — store/lookup/discard/tally from many threads
  under a tight budget must keep the byte accounting consistent.
"""

from __future__ import annotations

import threading
from array import array

import pytest

from repro.cache.store import (
    CachedEntry,
    CacheKey,
    ShardResultCache,
    default_cache,
    set_default_cache,
)
from repro.core.aggregates import AGGREGATES, Aggregate, get_aggregate
from repro.core.columns import ColumnSet
from repro.core.parallel import _REGISTERED_TYPE_MEMO, registered_instance

THREADS = 8


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    set_default_cache(None)
    yield
    set_default_cache(None)


def _fan_out(target, count=THREADS):
    """Run ``target(index)`` on ``count`` threads behind a barrier."""
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def runner(index):
        try:
            barrier.wait(timeout=10.0)
            results[index] = target(index)
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors, errors
    return results


class TestDefaultCacheFirstTouch:
    def test_concurrent_first_touch_yields_one_instance(self):
        caches = _fan_out(lambda _i: default_cache())
        assert all(cache is caches[0] for cache in caches)

    def test_instance_survives_across_later_calls(self):
        first = _fan_out(lambda _i: default_cache())[0]
        assert default_cache() is first


class TestRegisteredInstanceMemo:
    def test_concurrent_first_touch_agrees(self):
        _REGISTERED_TYPE_MEMO.clear()
        aggregate = get_aggregate("sum")
        verdicts = _fan_out(lambda _i: registered_instance(aggregate))
        assert verdicts == [True] * THREADS

    def test_memo_still_rejects_impostors(self):
        """A custom type registered under a stock name must stay False
        even after the memo is warm."""
        _REGISTERED_TYPE_MEMO.clear()

        class FakeSum(Aggregate):
            name = "sum"

            def start(self):  # pragma: no cover - never evaluated
                return None

            def add(self, state, value):  # pragma: no cover
                return state

            def remove(self, state, value):  # pragma: no cover
                return state

            def result(self, state):  # pragma: no cover
                return None

        real = get_aggregate("sum")
        fake = FakeSum()
        results = _fan_out(
            lambda i: registered_instance(real if i % 2 == 0 else fake)
        )
        for i, verdict in enumerate(results):
            assert verdict is (i % 2 == 0)

    def test_unregistered_name_is_false(self):
        class Unknown(Aggregate):
            name = "definitely-not-registered"

            def start(self):  # pragma: no cover
                return None

            def add(self, state, value):  # pragma: no cover
                return state

            def remove(self, state, value):  # pragma: no cover
                return state

            def result(self, state):  # pragma: no cover
                return None

        assert "definitely-not-registered" not in AGGREGATES
        assert registered_instance(Unknown()) is False


def _entry(rows: int = 8) -> CachedEntry:
    return CachedEntry(
        version=1,
        fingerprint=7,
        row_count=rows,
        windows=[(0, 0)],
        parts=[ColumnSet(array("q", [0] * rows), array("q", [0] * rows), [0] * rows)],
        merges=[False],
    )


class TestStoreUnderContention:
    def test_mixed_hammer_keeps_accounting_consistent(self):
        probe = _entry()
        cache = ShardResultCache(4 * probe.charged_bytes)
        rounds = 200

        def hammer(index):
            for step in range(rounds):
                key = CacheKey(relation_uid=(index * rounds + step) % 16,
                               aggregate="count", attribute=None, shards=1)
                cache.store(key, _entry())
                cache.lookup(key)
                if step % 3 == 0:
                    cache.discard(key)
                cache.tally(cache_hits=1)

        _fan_out(hammer)
        with cache.lock:
            live = cache.live_bytes
            entries = len(cache)
        assert live == entries * probe.charged_bytes
        assert 0 <= live <= cache.budget_bytes
        assert cache.counters.cache_hits == THREADS * rounds

    def test_shed_races_with_stores_without_corruption(self):
        cache = ShardResultCache()

        def hammer(index):
            released = 0
            for step in range(100):
                key = CacheKey(relation_uid=index, aggregate="count",
                               attribute=None, shards=1)
                cache.store(key, _entry())
                if index == 0:
                    released += cache.shed()
            return released

        _fan_out(hammer)
        with cache.lock:
            probe = _entry()
            expected = len(cache) * probe.charged_bytes
            assert cache.live_bytes == expected

    def test_concurrent_note_query_never_raises(self):
        cache = ShardResultCache()

        def hammer(index):
            repeats = 0
            for step in range(500):
                if cache.note_query(step % 32, "count", None):
                    repeats += 1
            return repeats

        repeats = _fan_out(hammer)
        # Every signature lands at least twice overall, so late threads
        # must observe repeats; exact counts depend on interleaving.
        assert sum(repeats) > 0
