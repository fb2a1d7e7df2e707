"""Tests of the planner's rules: the sweep when its events fit, the
Section 6.3 rules under a memory budget, every plan charged its exact
bound, and a refusal when no bound fits."""

import pytest

from repro.core.aggregates import AvgAggregate, CountAggregate
from repro.core.planner import choose_strategy, named_plan, node_bound
from repro.exec.errors import BudgetExhausted
from repro.relation.relation import RelationStatistics, SpaceCounts
from repro.core.interval import Interval


def stats(
    n=1000,
    unique=1800,
    long_lived=0,
    ordered=False,
    k=500,
    percentage=0.5,
):
    if ordered:
        k, percentage = 0, 0.0
    return RelationStatistics(
        tuple_count=n,
        unique_timestamps=unique,
        long_lived_count=long_lived,
        lifespan=Interval(0, 10_000),
        is_totally_ordered=ordered,
        k=k,
        k_ordered_percentage=percentage,
    )


def counts(split_points=1800, max_open=5, events=2000):
    return SpaceCounts(
        split_points=split_points, max_open=max_open, events=events
    )


#: COUNT's node: 16 structural bytes plus 4 of state.
NODE = 20


class TestBounds:
    def test_tree_bound_is_two_nodes_per_split_point(self):
        assert node_bound("aggregation_tree", counts(split_points=10)) == 21
        assert node_bound("balanced_tree", counts(split_points=10)) == 21

    def test_list_bound_is_one_cell_per_split_point(self):
        assert node_bound("linked_list", counts(split_points=10)) == 11
        assert node_bound("two_pass", counts(split_points=10)) == 11

    def test_sweep_bound_is_its_events(self):
        assert node_bound("columnar_sweep", counts(events=7)) == 7
        assert node_bound("sweep", counts(events=7)) == 7

    def test_ktree_bound_grows_with_open_tuples_and_k(self):
        lean = node_bound("kordered_tree", counts(max_open=5), k=1)
        assert lean == 2 * 5 + 8 + 9
        assert node_bound("kordered_tree", counts(max_open=500), k=1) > lean
        assert node_bound("kordered_tree", counts(max_open=5), k=3) > lean
        # Never above the plain tree's bound: it is the same tree.
        assert node_bound("kordered_tree", counts(split_points=4), k=9) == 9

    @pytest.mark.parametrize(
        "strategy", ["paged_tree", "parallel_sweep", "cached_sweep", "reference"]
    )
    def test_unbounded_plans(self, strategy):
        assert node_bound(strategy, counts()) is None

    def test_bound_bytes_scale_with_aggregate_state(self):
        count = choose_strategy(stats(), aggregate=CountAggregate(), counts=counts())
        avg = choose_strategy(stats(), aggregate=AvgAggregate(), counts=counts())
        assert avg.estimated_bytes > count.estimated_bytes  # 8 state bytes vs 4


#: Below the 40,000 bytes of events a 1,000-tuple relation's sweep
#: needs, so the memory-constrained rules apply.
TIGHT_BUDGET = 10_000


class TestDecisions:
    def test_sorted_relation_gets_ktree_k1(self):
        decision = choose_strategy(
            stats(ordered=True), memory_budget_bytes=TIGHT_BUDGET, counts=counts()
        )
        assert decision.strategy == "kordered_tree"
        assert decision.k == 1
        assert not decision.sort_first
        assert decision.estimated_bytes == (2 * 5 + 8 + 9) * NODE

    def test_nearly_sorted_uses_measured_k(self):
        decision = choose_strategy(
            stats(k=12, percentage=0.1),
            memory_budget_bytes=TIGHT_BUDGET,
            counts=counts(),
        )
        assert decision.strategy == "kordered_tree"
        assert decision.k == 12

    def test_unordered_without_a_budget_gets_columnar_sweep(self):
        decision = choose_strategy(stats())
        assert decision.strategy == "columnar_sweep"
        assert not decision.sort_first

    def test_unordered_with_cheap_memory_gets_tree(self):
        # 300 split points: the tree (601 nodes, 12,020 B) fits a budget
        # the sweep's 2,000 events (40,000 B) do not.
        decision = choose_strategy(
            stats(unique=300),
            memory_budget_bytes=15_000,
            counts=counts(split_points=300),
        )
        assert decision.strategy == "aggregation_tree"
        assert not decision.sort_first

    @pytest.mark.parametrize(
        "statistics", [stats(ordered=True), stats(k=12, percentage=0.1)]
    )
    def test_ordered_input_gets_columnar_sweep_when_it_fits(self, statistics):
        decision = choose_strategy(statistics)
        assert decision.strategy == "columnar_sweep"
        assert decision.k is None

    def test_unordered_with_budget_gets_sort_plus_ktree(self):
        # Only sort + k-ordered tree fits: 27 nodes, 540 B.
        decision = choose_strategy(
            stats(), memory_budget_bytes=1_000, counts=counts()
        )
        assert decision.strategy == "kordered_tree"
        assert decision.sort_first
        assert decision.k == 1

    def test_few_constant_intervals_gets_linked_list(self):
        """The student-records / coarse-granularity case of Section 6.3."""
        decision = choose_strategy(stats(n=100_000, unique=12))
        assert decision.strategy == "linked_list"

    def test_declared_retroactive_bound_skips_measurement(self):
        """A caller declares the bound by naming the k-ordered tree."""
        decision = named_plan("kordered_tree", k=7)
        assert decision.strategy == "kordered_tree"
        assert decision.k == 7
        assert not decision.sort_first

    def test_budget_within_tree_size_keeps_tree(self):
        # The budget is exactly the tree's bound over 300 split points.
        budget = (2 * 300 + 1) * NODE
        decision = choose_strategy(
            stats(unique=300),
            memory_budget_bytes=budget,
            counts=counts(split_points=300),
        )
        assert decision.strategy == "aggregation_tree"
        assert decision.estimated_bytes == budget

    def test_describe_mentions_plan_shape(self):
        decision = choose_strategy(
            stats(), memory_budget_bytes=1_000, counts=counts()
        )
        text = decision.describe()
        assert "sort + " in text
        assert "k=1" in text

    def test_estimated_bytes_populated(self):
        """Given the counts, a plan is charged its bound in bytes."""
        for decision in (
            choose_strategy(stats(), counts=counts()),
            choose_strategy(stats(ordered=True), counts=counts()),
            choose_strategy(stats(n=100_000, unique=12), counts=counts()),
        ):
            bound = node_bound(decision.strategy, counts(), decision.k)
            assert decision.estimated_bytes == bound * NODE > 0


class TestRefusal:
    """No plan that fits: refused before anything runs."""

    def test_no_plan_fits(self):
        with pytest.raises(BudgetExhausted) as info:
            choose_strategy(stats(), memory_budget_bytes=100, counts=counts())
        # The smallest bound is sort + k-ordered tree's 27 nodes.
        assert info.value.needed_bytes == 27 * NODE
        assert info.value.budget_bytes == 100

    def test_repeat_under_a_budget_skips_the_cache(self):
        decision = choose_strategy(
            stats(n=10_000, unique=18_000),
            memory_budget_bytes=10**9,
            counts=counts(events=20_000),
            repeat_observed=True,
        )
        assert decision.strategy == "columnar_sweep"

    def test_named_plan_over_its_bound(self):
        with pytest.raises(BudgetExhausted) as info:
            named_plan(
                "aggregation_tree", memory_budget_bytes=100, counts=counts()
            )
        assert info.value.needed_bytes == 3601 * NODE

    @pytest.mark.parametrize("strategy", ["paged_tree", "parallel_sweep"])
    def test_named_plan_without_a_bound(self, strategy):
        with pytest.raises(BudgetExhausted, match="no memory bound") as info:
            named_plan(strategy, memory_budget_bytes=10**9, counts=counts())
        assert info.value.needed_bytes is None

    def test_budget_needs_counts(self):
        with pytest.raises(ValueError, match="space counts"):
            choose_strategy(stats(), memory_budget_bytes=10**9)


class TestParallelRule:
    """From ``PARALLEL_MIN_TUPLES`` on more than one core, sharding pays
    for every plan but COUNT over sorted or nearly sorted input."""

    def big_stats(self, **overrides):
        # k is half of n: nowhere near "nearly sorted".
        return stats(**{"n": 100_000, "unique": 150_000, "k": 50_000, **overrides})

    def test_multicore_gets_parallel_sweep(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "parallel_sweep"
        assert decision.shards == 4
        assert "shards=4" in decision.describe()

    def test_single_core_gets_columnar_sweep(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 1
        )
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "columnar_sweep"
        assert decision.shards is None

    def test_non_invertible_falls_through_to_tree(self, monkeypatch):
        from repro.core.aggregates import MaxAggregate

        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        # A budget that fits the tree over 20,000 split points but not
        # the sweep's 200,000 events.
        budget = (2 * 20_000 + 1) * 20 + 1  # MAX's node is 20 B too
        decision = choose_strategy(
            self.big_stats(unique=20_000),
            aggregate=MaxAggregate(),
            memory_budget_bytes=budget,
            counts=counts(split_points=20_000, events=200_000),
        )
        assert decision.strategy == "aggregation_tree"

    @pytest.mark.parametrize("aggregate", ["sum", "max"])
    def test_value_aggregate_over_ordered_input_gets_parallel_sweep(
        self, monkeypatch, aggregate
    ):
        from repro.core.aggregates import get_aggregate

        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(
            self.big_stats(ordered=True), aggregate=get_aggregate(aggregate)
        )
        assert decision.strategy == "parallel_sweep"

    def test_small_input_falls_through_to_tree(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(
            stats(unique=300),
            aggregate=CountAggregate(),
            memory_budget_bytes=15_000,
            counts=counts(split_points=300),
        )
        assert decision.strategy == "aggregation_tree"

    def test_small_input_stays_on_the_single_sweep(self, monkeypatch):
        from repro.core.aggregates import MinAggregate

        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(stats(), aggregate=MinAggregate())
        assert decision.strategy == "columnar_sweep"

    def test_tight_budget_falls_through_to_sort_plan(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(
            self.big_stats(),
            aggregate=CountAggregate(),
            memory_budget_bytes=1_000,
            counts=counts(split_points=150_000, events=200_000),
        )
        assert decision.strategy == "kordered_tree"
        assert decision.sort_first

    def test_sorted_input_never_takes_parallel_path(self, monkeypatch):
        """COUNT over sorted input keeps the single sweep (MIN/MAX, SUM
        and AVG shard at any order)."""
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(
            self.big_stats(ordered=True), aggregate=CountAggregate()
        )
        assert decision.strategy == "columnar_sweep"
        assert decision.shards is None

    def test_nearly_sorted_count_stays_on_the_single_sweep(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda: 4
        )
        decision = choose_strategy(
            self.big_stats(k=12, percentage=0.1), aggregate=CountAggregate()
        )
        assert decision.strategy == "columnar_sweep"


class TestDecisionsMatchMeasurement:
    """The planner's choice should actually win on its own regime."""

    @pytest.mark.parametrize(
        "make_input,expected",
        [
            (lambda rel: rel, "columnar_sweep"),
            (lambda rel: rel.sorted_by_time(), "columnar_sweep"),
        ],
    )
    def test_choice_is_no_worse_than_alternatives(
        self, small_random_relation, make_input, expected
    ):
        from repro.bench.measure import measure_strategy

        relation = make_input(small_random_relation)
        decision = choose_strategy(relation.statistics())
        assert decision.strategy == expected

        triples = list(relation.scan_triples())
        chosen = measure_strategy(
            decision.strategy, triples, k=decision.k
        )
        naive = measure_strategy("linked_list", triples)
        assert chosen.work <= naive.work
