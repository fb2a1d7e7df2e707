"""The result-cache protocol on relations: versions, fingerprints,
append chains — and the stale-statistics regression they fix."""

from __future__ import annotations

from repro.core.planner import choose_strategy
from repro.relation.relation import (
    TemporalRelation,
    fingerprint_rows,
    next_relation_uid,
    space_counts,
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

    def test_chain_rejects_a_reordered_prefix(self):
        """The same rows in another order are not an append: a cached
        entry over the reversed rows cannot be extended to the sorted
        ones."""
        reversed_rows = tiny_relation(list(reversed(SORTED_ROWS)))
        relation = tiny_relation(SORTED_ROWS)
        assert not relation.verify_append_chain(
            len(reversed_rows), reversed_rows.fingerprint
        )

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
    nothing (relation) / tuple count (heap file), so a mutation could
    keep serving stale order facts to the planner.  Keyed on the version
    counter, every append invalidates."""

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

    def test_mutate_then_replan_regression(self):
        # The end-to-end consequence: the planner must see the
        # post-append order facts, not a cached pre-append snapshot.
        # Forty disjoint tuples in time order: under a budget of the
        # k-ordered tree's 19 nodes (one tuple open at a time), the
        # sweep's 80 events do not fit, and the ordered relation runs
        # the k-ordered tree with k=1 as it is.  One out-of-order
        # append, disjoint from the rest, breaks the order.
        rows = [(f"n{i}", 1_000, 10 * i, 10 * i + 4) for i in range(40)]
        relation = tiny_relation(rows)
        budget = 19 * 20

        def plan():
            columns = relation.columns(None)
            return choose_strategy(
                relation.statistics(),
                memory_budget_bytes=budget,
                counts=space_counts(columns.starts, columns.ends),
            )

        before = plan()
        assert (before.strategy, before.k, before.sort_first) == (
            "kordered_tree",
            1,
            False,
        )
        relation.insert(("late", 1_000), 5, 8)
        after = plan()
        assert (before.strategy, before.k, before.sort_first) != (
            after.strategy,
            after.k,
            after.sort_first,
        )
