"""The result-cache protocol on relations: versions, fingerprints,
append chains — and the stale-statistics regression they fix."""

from __future__ import annotations

from repro.core.planner import choose_strategy
from repro.relation.relation import (
    TemporalRelation,
    fingerprint_rows,
    next_relation_uid,
)
from repro.relation.schema import EMPLOYED_SCHEMA

from tests.conftest import tiny_relation

SORTED_ROWS = [
    ("Richard", 40_000, 0, 9),
    ("Karen", 45_000, 5, 14),
    ("Nathan", 50_000, 10, 19),
    ("Andrey", 55_000, 20, 29),
]


class TestVersionCounter:
    def test_fresh_relation_is_version_zero(self):
        assert TemporalRelation(EMPLOYED_SCHEMA).version == 0

    def test_insert_bumps_once(self):
        relation = TemporalRelation(EMPLOYED_SCHEMA)
        relation.insert(("Richard", 40_000), 0, 9)
        assert relation.version == 1

    def test_extend_bumps_once_per_batch(self):
        relation = tiny_relation(SORTED_ROWS)
        donor = tiny_relation(SORTED_ROWS)
        before = relation.version
        relation.extend(donor.scan())
        assert relation.version == before + 1

    def test_empty_extend_is_a_no_op(self):
        relation = tiny_relation(SORTED_ROWS)
        before = relation.version
        relation.extend([])
        assert relation.version == before

    def test_uids_are_process_unique(self):
        a = TemporalRelation(EMPLOYED_SCHEMA)
        b = TemporalRelation(EMPLOYED_SCHEMA)
        assert a.uid != b.uid
        assert next_relation_uid() > b.uid


class TestFingerprint:
    def test_identical_builds_share_a_fingerprint(self):
        assert (
            tiny_relation(SORTED_ROWS).fingerprint
            == tiny_relation(SORTED_ROWS).fingerprint
        )

    def test_fingerprint_is_order_sensitive(self):
        assert (
            tiny_relation(SORTED_ROWS).fingerprint
            != tiny_relation(list(reversed(SORTED_ROWS))).fingerprint
        )

    def test_insert_moves_the_fingerprint(self):
        relation = tiny_relation(SORTED_ROWS)
        before = relation.fingerprint
        relation.insert(("Curtis", 60_000), 30, 39)
        assert relation.fingerprint != before

    def test_fold_matches_incremental_maintenance(self):
        relation = tiny_relation(SORTED_ROWS)
        folded = 0
        for row in relation.scan():
            folded = fingerprint_rows([row], folded)
        assert folded == relation.fingerprint


class TestAppendChain:
    def test_appends_keep_the_chain_verifiable(self):
        relation = tiny_relation(SORTED_ROWS)
        count, fingerprint = len(relation), relation.fingerprint
        relation.insert(("Curtis", 60_000), 30, 39)
        relation.insert(("Suchen", 65_000), 40, 49)
        assert relation.verify_append_chain(count, fingerprint)
        assert relation.append_watermark == 0

    def test_reorder_moves_the_watermark_and_breaks_the_chain(self):
        relation = tiny_relation(list(reversed(SORTED_ROWS)))
        count, fingerprint = len(relation), relation.fingerprint
        relation.sort_in_place()
        assert relation.append_watermark == relation.version
        assert not relation.verify_append_chain(count, fingerprint)

    def test_chain_rejects_a_shrunken_prefix_claim(self):
        relation = tiny_relation(SORTED_ROWS)
        assert not relation.verify_append_chain(
            len(relation) + 1, relation.fingerprint
        )

    def test_wrong_fingerprint_fails_the_chain(self):
        relation = tiny_relation(SORTED_ROWS)
        assert not relation.verify_append_chain(
            len(relation), relation.fingerprint ^ 1
        )


class TestStatisticsInvalidation:
    """The stale-statistics regression: cached statistics were keyed on
    nothing (relation) / tuple count (heap file), so an equal-cardinality
    in-place reorder kept serving pre-reorder order facts to the
    planner.  Keyed on the version counter, every mutation invalidates."""

    def test_unchanged_relation_reuses_the_cached_object(self):
        relation = tiny_relation(SORTED_ROWS)
        assert relation.statistics() is relation.statistics()

    def test_insert_invalidates(self):
        relation = tiny_relation(SORTED_ROWS)
        stale = relation.statistics()
        relation.insert(("Curtis", 60_000), 30, 39)
        fresh = relation.statistics()
        assert fresh is not stale
        assert fresh.tuple_count == stale.tuple_count + 1

    def test_extend_invalidates(self):
        relation = tiny_relation(SORTED_ROWS)
        stale = relation.statistics()
        relation.extend(tiny_relation(SORTED_ROWS).scan())
        assert relation.statistics().tuple_count == 2 * stale.tuple_count

    def test_in_place_reorder_invalidates_at_equal_cardinality(self):
        relation = tiny_relation(list(reversed(SORTED_ROWS)))
        stale = relation.statistics()
        assert not stale.is_totally_ordered
        relation.sort_in_place()
        fresh = relation.statistics()
        assert fresh.tuple_count == stale.tuple_count  # same cardinality...
        assert fresh.is_totally_ordered  # ...different order facts

    def test_mutate_then_replan_regression(self):
        # The end-to-end consequence: the planner must see the
        # post-mutation order facts, not a cached pre-mutation snapshot.
        # Under a budget the sweep's event columns do not fit, its pick
        # depends on the order.
        budget = 32
        relation = tiny_relation(list(reversed(SORTED_ROWS)))
        before = choose_strategy(relation.statistics(), memory_budget_bytes=budget)
        relation.sort_in_place()
        after = choose_strategy(relation.statistics(), memory_budget_bytes=budget)
        assert after.strategy == "kordered_tree"
        assert after.k == 1
        assert (before.strategy, before.k, before.sort_first) != (
            after.strategy,
            after.k,
            after.sort_first,
        )
