"""Snapshot isolation unit tests: pins, prefixes, the cache protocol."""

from __future__ import annotations

import threading

import pytest

from repro.cache.store import ShardResultCache, cacheable_relation
from repro.cache.evaluator import evaluate_cached
from repro.serve.snapshots import PIN_MEMO_LIMIT, ServedRelation, SnapshotView
from repro.tsql2.executor import Database

from tests.serve.conftest import make_relation


def served(n: int = 32) -> ServedRelation:
    return ServedRelation(make_relation(n), name="jobs")


class TestPinning:
    def test_pin_names_the_current_version(self):
        relation = served(8)
        view = relation.pin()
        assert view.version == relation.base.version
        assert len(view) == 8
        assert view.uid == relation.base.uid
        assert view.name.endswith(f"@v{view.version}")

    def test_same_version_pins_share_one_view(self):
        relation = served()
        assert relation.pin() is relation.pin()

    def test_appends_do_not_move_an_existing_pin(self):
        relation = served(8)
        view = relation.pin()
        rows_before = view.rows()
        relation.append_batch([(("new", 999), 0, 50)])
        assert len(view) == 8
        assert view.rows() == rows_before
        fresh = relation.pin()
        assert fresh is not view
        assert len(fresh) == 9

    def test_pin_memo_is_bounded(self):
        relation = served(4)
        for i in range(PIN_MEMO_LIMIT * 2):
            relation.pin()
            relation.append_batch([((f"r{i}", i), 0, 10)])
        assert len(relation._pins) <= PIN_MEMO_LIMIT

    def test_append_batch_is_one_version_bump(self):
        relation = served(4)
        v0 = relation.base.version
        version, row_count = relation.append_batch(
            [(("a", 1), 0, 5), (("b", 2), 1, 6), (("c", 3), 2, 7)]
        )
        assert version == v0 + 1
        assert row_count == 7

    def test_empty_batch_is_refused(self):
        relation = served(4)
        with pytest.raises(ValueError):
            relation.append_batch([])

    def test_invalid_row_rejects_whole_batch(self):
        relation = served(4)
        v0 = relation.base.version
        with pytest.raises(Exception):
            relation.append_batch([(("ok", 1), 0, 5), (("bad", 2), 9, 3)])
        assert relation.base.version == v0
        assert len(relation.base) == 4


class TestViewAsRelation:
    def test_executor_runs_against_a_view(self):
        relation = served(16)
        view = relation.pin()
        database = Database()
        database.register(view, name="jobs")
        pinned = database.execute("SELECT COUNT(name) FROM jobs").rows

        serial = Database()
        serial.register(make_relation(16), name="jobs")
        assert pinned == serial.execute("SELECT COUNT(name) FROM jobs").rows

    def test_view_result_is_append_proof(self):
        relation = served(16)
        view = relation.pin()
        database = Database()
        database.register(view, name="jobs")
        before = database.execute("SELECT SUM(salary) FROM jobs").rows
        relation.append_batch([(("late", 12345), 0, 96)])
        after = database.execute("SELECT SUM(salary) FROM jobs").rows
        assert after == before

    def test_scan_triples_is_prefix_limited(self):
        relation = served(8)
        view = relation.pin()
        relation.append_batch([(("x", 1), 0, 5)])
        assert len(list(view.scan_triples("salary"))) == 8


class TestCacheProtocol:
    def test_view_is_cacheable(self):
        assert cacheable_relation(served().pin())

    def test_verify_append_chain_across_versions(self):
        relation = served(8)
        old = relation.pin()
        relation.append_batch([(("a", 7), 1, 9)])
        new = relation.pin()
        # The new pin's fingerprint is reachable from the old one by
        # folding exactly the appended row.
        assert new.verify_append_chain(len(old), old.fingerprint)
        # ...but not from a wrong predecessor.
        assert not new.verify_append_chain(len(old), old.fingerprint ^ 0xFF)
        # And a pin cannot be "behind" the probe.
        assert not old.verify_append_chain(len(new), new.fingerprint)

    def test_cross_version_append_delta_through_the_cache(self):
        """A result cached at version v must append-delta refresh for a
        pin at v+1 — the property that makes the server cache shared."""
        relation = served(32)
        cache = ShardResultCache()
        old = relation.pin()
        evaluate_cached(old, "sum", "salary", shards=2, cache=cache)
        assert cache.counters.cache_misses == 1

        relation.append_batch([(("late", 500), 10, 40)])
        new = relation.pin()
        refreshed = evaluate_cached(new, "sum", "salary", shards=2, cache=cache)
        assert cache.counters.cache_misses == 1  # no recompute
        assert cache.counters.cache_hits == 1
        assert cache.counters.cache_dirty_shards >= 1

        serial = evaluate_cached(new, "sum", "salary", shards=2,
                                 cache=ShardResultCache())
        assert list(refreshed) == list(serial)

    def test_same_version_pure_hit_through_the_cache(self):
        relation = served(32)
        cache = ShardResultCache()
        evaluate_cached(relation.pin(), "count", None, shards=2, cache=cache)
        evaluate_cached(relation.pin(), "count", None, shards=2, cache=cache)
        assert cache.counters.cache_hits == 1
        assert cache.counters.cache_misses == 1


class TestConcurrentMaterialization:
    def test_working_copy_is_built_once(self):
        view = served(32).pin()
        barrier = threading.Barrier(4)
        seen = []

        def touch():
            barrier.wait(timeout=10.0)
            seen.append(view.statistics())

        threads = [threading.Thread(target=touch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(seen) == 4
        assert all(s.tuple_count == 32 for s in seen)
