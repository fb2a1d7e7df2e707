"""The memory budget is decided before the run.

The planner charges every plan its exact bound in the units its
``SpaceTracker`` counts and runs only a plan that fits; when none fits
it raises ``BudgetExhausted`` before anything runs.  So a budgeted
call either refuses with the caller's tracker untouched, or answers
the reference rows within the budget.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import temporal_aggregate
from repro.core.interval import FOREVER
from repro.core.planner import node_bound
from repro.core.reference import ReferenceEvaluator
from repro.exec.errors import BudgetExhausted
from repro.metrics.space import SpaceTracker
from repro.relation.relation import TemporalRelation, space_counts
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.workload.permute import k_disorder
from tests.conftest import random_triples, triples_relation

AGGREGATES = ["count", "sum", "min", "max", "avg"]

#: Plans the planner can pick under a budget, with the k it runs them at.
BUDGET_PLANS = [
    ("linked_list", None),
    ("columnar_sweep", None),
    ("aggregation_tree", None),
    ("kordered_tree", 1),
]

#: (start, length) pairs over a narrow timeline, so starts repeat and
#: endpoints meet; a None length runs to FOREVER, 0 is a point.
tuples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        st.integers(min_value=-5, max_value=50),
    ),
    max_size=60,
)


def build_relation(rows, order, seed):
    triples = [
        (start, FOREVER if length is None else start + length, salary)
        for start, length, salary in rows
    ]
    if order != "as drawn":
        triples.sort()
    if order == "k-disordered":
        # Disjoint swaps three places apart: a 3-ordered relation.
        rng = random.Random(seed)
        for index in range(0, len(triples) - 3, 6):
            if rng.random() < 0.5:
                triples[index], triples[index + 3] = (
                    triples[index + 3],
                    triples[index],
                )
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="budgeted")
    for index, (start, end, salary) in enumerate(triples):
        relation.insert((f"e{index}", salary), start, end)
    return relation


def counts_of(relation):
    columns = relation.columns(None)
    return space_counts(columns.starts, columns.ends)


def untouched(tracker):
    return (tracker.live_nodes, tracker.peak_nodes, tracker.allocated_total) == (
        0,
        0,
        0,
    )


class TestBudgetHolds:
    @given(
        rows=tuples_strategy,
        order=st.sampled_from(["as drawn", "sorted", "k-disordered"]),
        aggregate=st.sampled_from(AGGREGATES),
        position=st.integers(min_value=-1, max_value=101),
        seed=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_refused_or_answered_within_budget(
        self, rows, order, aggregate, position, seed
    ):
        relation = build_relation(rows, order, seed)
        attribute = None if aggregate == "count" else "salary"
        node_bytes = SpaceTracker(
            ReferenceEvaluator(aggregate).aggregate
        ).node_bytes
        counts = counts_of(relation)
        bounds = [
            node_bound(strategy, counts, k) * node_bytes
            for strategy, k in BUDGET_PLANS
        ]
        # From just below the smallest bound to just above the largest.
        low, high = min(bounds) - 1, max(bounds) + 1
        budget = max(1, low + (high - low) * position // 100)
        reference = ReferenceEvaluator(aggregate).evaluate(
            list(relation.scan_triples(attribute))
        )
        for _call in range(2):  # the repeat sees the cache's repeat set
            tracker = SpaceTracker(ReferenceEvaluator(aggregate).aggregate)
            try:
                result = temporal_aggregate(
                    relation,
                    aggregate,
                    attribute,
                    memory_budget_bytes=budget,
                    space=tracker,
                )
            except BudgetExhausted as refusal:
                assert untouched(tracker)
                assert refusal.needed_bytes > budget
                continue
            assert result.rows == reference.rows
            assert tracker.peak_bytes <= budget


def unsorted_relation():
    return triples_relation(random_triples(31, 400, max_instant=300))


class TestExactBounds:
    """Each bounded named plan peaks at its bound (the k-ordered tree
    at most), so a budget of exactly the bound admits and holds it."""

    @pytest.mark.parametrize(
        "strategy",
        [
            "aggregation_tree",
            "balanced_tree",
            "linked_list",
            "two_pass",
            "columnar_sweep",
            "sweep",
        ],
    )
    @pytest.mark.parametrize("aggregate", ["count", "avg"])
    def test_peak_equals_the_bound(self, strategy, aggregate):
        relation = unsorted_relation()
        attribute = None if aggregate == "count" else "salary"
        tracker = SpaceTracker(ReferenceEvaluator(aggregate).aggregate)
        budget = node_bound(strategy, counts_of(relation)) * tracker.node_bytes
        temporal_aggregate(
            relation,
            aggregate,
            attribute,
            strategy=strategy,
            memory_budget_bytes=budget,
            space=tracker,
            use_cache=False,
        )
        assert tracker.peak_bytes == budget

    @pytest.mark.parametrize("k", [1, 4])
    def test_kordered_tree_stays_within_its_bound(self, k):
        triples = sorted(random_triples(32, 400, max_instant=300))
        permutation = k_disorder(len(triples), k, 0.5, seed=k)
        relation = triples_relation([triples[index] for index in permutation])
        tracker = SpaceTracker()
        budget = (
            node_bound("kordered_tree", counts_of(relation), k) * tracker.node_bytes
        )
        result = temporal_aggregate(
            relation,
            "count",
            strategy="kordered_tree",
            k=k,
            memory_budget_bytes=budget,
            space=tracker,
        )
        assert 0 < tracker.peak_bytes <= budget
        assert result.rows == ReferenceEvaluator("count").evaluate(triples).rows


class TestBelowTheTree:
    """A budget the aggregation tree overruns: the planner picks a plan
    that fits before the run, and its answer is exact."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_answer_is_exact_within_budget(self, aggregate):
        relation = triples_relation(random_triples(11, 2_000, max_instant=2_000))
        attribute = None if aggregate == "count" else "salary"
        tracker = SpaceTracker(ReferenceEvaluator(aggregate).aggregate)
        budget = 20_000
        tree = node_bound("aggregation_tree", counts_of(relation)) * tracker.node_bytes
        assert tree > budget
        result, decision = temporal_aggregate(
            relation,
            aggregate,
            attribute,
            memory_budget_bytes=budget,
            space=tracker,
            use_cache=False,
            explain=True,
        )
        assert decision.strategy != "aggregation_tree"
        assert 0 < tracker.peak_bytes <= budget
        expected = ReferenceEvaluator(aggregate).evaluate(
            list(relation.scan_triples(attribute))
        )
        assert result.rows == expected.rows


class TestNamedPlans:
    def test_tree_below_its_bound_is_refused_before_running(self):
        relation = unsorted_relation()
        tracker = SpaceTracker(ReferenceEvaluator("sum").aggregate)
        bound = node_bound("aggregation_tree", counts_of(relation)) * tracker.node_bytes
        with pytest.raises(BudgetExhausted) as info:
            temporal_aggregate(
                relation,
                "sum",
                "salary",
                strategy="aggregation_tree",
                memory_budget_bytes=bound - 1,
                space=tracker,
            )
        assert info.value.needed_bytes == bound
        assert info.value.budget_bytes == bound - 1
        assert untouched(tracker)

    @pytest.mark.parametrize("budget", [1, 10**12])
    def test_paged_tree_is_refused_under_any_budget(self, budget):
        tracker = SpaceTracker()
        with pytest.raises(BudgetExhausted, match="no memory bound") as info:
            temporal_aggregate(
                unsorted_relation(),
                "count",
                strategy="paged_tree",
                memory_budget_bytes=budget,
                space=tracker,
            )
        assert info.value.needed_bytes is None
        assert untouched(tracker)

    def test_paged_tree_runs_without_a_budget(self):
        relation = unsorted_relation()
        result = temporal_aggregate(relation, "count", strategy="paged_tree")
        expected = ReferenceEvaluator("count").evaluate(
            list(relation.scan_triples())
        )
        assert result.rows == expected.rows
