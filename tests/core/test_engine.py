"""Tests of the strategy registry, dispatch and top-level API."""

import pytest

from repro.core.engine import (
    STRATEGIES,
    UnknownStrategyError,
    evaluate_triples,
    make_evaluator,
    temporal_aggregate,
)
from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.core.planner import PlannerDecision, node_bound
from repro.metrics.counters import OperationCounters
from repro.metrics.space import SpaceTracker
from repro.relation.relation import space_counts


class TestRegistry:
    def test_all_paper_strategies_present(self):
        assert set(STRATEGIES) == {
            "linked_list",
            "aggregation_tree",
            "kordered_tree",
            "balanced_tree",
            "paged_tree",
            "sweep",
            "columnar_sweep",
            "parallel_sweep",
            "cached_sweep",
            "two_pass",
            "reference",
        }

    def test_shards_rejected_for_other_strategies(self):
        with pytest.raises(ValueError, match="does not take"):
            make_evaluator("sweep", "count", shards=2)

    def test_shards_accepted_by_parallel_sweep(self):
        evaluator = make_evaluator("parallel_sweep", "count", shards=3)
        assert evaluator.shards == 3

    def test_make_evaluator_by_name(self):
        evaluator = make_evaluator("linked_list", "count")
        assert evaluator.name == "linked_list"
        assert evaluator.aggregate.name == "count"

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategyError, match="quadtree"):
            make_evaluator("quadtree", "count")

    def test_k_defaults_to_one(self):
        evaluator = make_evaluator("kordered_tree", "count")
        assert isinstance(evaluator, KOrderedTreeEvaluator)
        assert evaluator.k == 1

    def test_k_rejected_for_other_strategies(self):
        with pytest.raises(ValueError, match="does not take"):
            make_evaluator("linked_list", "count", k=3)

    def test_instrumentation_is_wired_through(self):
        counters = OperationCounters()
        space = SpaceTracker()
        evaluator = make_evaluator(
            "aggregation_tree", "count", counters=counters, space=space
        )
        evaluator.evaluate([(3, 5, None)])
        assert counters.tuples == 1
        assert space.peak_nodes > 0


class TestEvaluateTriples:
    def test_default_strategy(self):
        result = evaluate_triples([(3, 5, None)], "count")
        assert result.value_at(4) == 1

    def test_named_strategy_and_k(self):
        result = evaluate_triples(
            [(3, 5, None), (8, 9, None)], "count", "kordered_tree", k=2
        )
        assert result.value_at(8) == 1


class TestTemporalAggregate:
    def test_auto_strategy(self, employed):
        result = temporal_aggregate(employed, "count")
        assert len(result) == 7

    def test_explain_returns_decision(self, employed):
        result, decision = temporal_aggregate(employed, "count", explain=True)
        assert isinstance(decision, PlannerDecision)
        assert decision.strategy in STRATEGIES
        assert len(result) == 7

    def test_explicit_strategy_decision_reason(self, employed):
        _result, decision = temporal_aggregate(
            employed, "count", strategy="linked_list", explain=True
        )
        assert decision.strategy == "linked_list"
        assert "explicit" in decision.reason

    @pytest.mark.parametrize(
        "parameters", [{"k": 4}, {"shards": 3}, {"k": 4, "shards": 3}],
        ids=["k", "shards", "k-and-shards"],
    )
    def test_auto_strategy_refuses_k_and_shards(self, employed, parameters):
        with pytest.raises(ValueError, match="planner chooses them"):
            temporal_aggregate(employed, "count", explain=True, **parameters)

    def test_value_aggregate_requires_attribute(self, employed):
        with pytest.raises(ValueError, match="needs an attribute"):
            temporal_aggregate(employed, "sum")

    def test_count_needs_no_attribute(self, employed):
        assert temporal_aggregate(employed, "count").value_at(19) == 3

    def test_attribute_aggregation(self, employed):
        result = temporal_aggregate(employed, "sum", "salary")
        assert result.value_at(19) == 40_000 + 45_000 + 37_000

    def test_aggregate_instance_accepted(self, employed):
        from repro.core.aggregates import MaxAggregate

        result = temporal_aggregate(employed, MaxAggregate(), "salary")
        assert result.value_at(19) == 45_000

    def test_unknown_attribute_raises(self, employed):
        from repro.relation.schema import SchemaError

        with pytest.raises(SchemaError):
            temporal_aggregate(employed, "sum", "bonus")

    def test_all_strategies_agree(self, small_random_relation):
        results = {}
        for strategy in sorted(STRATEGIES):
            k = len(small_random_relation) if strategy == "kordered_tree" else None
            results[strategy] = temporal_aggregate(
                small_random_relation, "count", strategy=strategy, k=k
            ).rows
        baseline = results.pop("reference")
        for strategy, rows in results.items():
            assert rows == baseline, f"{strategy} disagrees with the oracle"

    def test_memory_budget_forces_sort_plan(self, small_random_relation):
        # A budget of exactly the sort plan's bound: 2c + 17 nodes for
        # at most c tuples open at once, below the sweep's events and
        # the tree's 2B + 1 nodes.
        columns = small_random_relation.columns(None)
        counts = space_counts(columns.starts, columns.ends)
        budget = node_bound("kordered_tree", counts, k=1) * 20
        _result, decision = temporal_aggregate(
            small_random_relation,
            "count",
            memory_budget_bytes=budget,
            explain=True,
        )
        assert decision.sort_first
        assert decision.strategy == "kordered_tree"
        assert decision.estimated_bytes == budget


class TestCountReadsNoValues:
    """COUNT evaluates timestamps-only whatever attribute it names, so
    every COUNT shares one column snapshot and one cache key."""

    def relation(self):
        from repro.workload.generator import WorkloadParameters, generate_relation

        return generate_relation(WorkloadParameters(tuples=300, seed=3))

    def test_count_of_a_string_attribute_runs_on_the_resident_pool(
        self, monkeypatch
    ):
        import os

        from repro.core import partition
        from repro.exec import pool as pool_module

        monkeypatch.setattr(partition, "PARALLEL_MIN_TUPLES", 64)
        relation = self.relation()
        assert len(relation) >= partition.PARALLEL_MIN_TUPLES
        pool = pool_module.default_pool(2)
        if pool is None:
            pytest.skip("the resident pool needs the fork start method")
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        counters = OperationCounters()
        try:
            pool.start()
            monkeypatch.setattr(os, "fork", counting_fork)
            result = temporal_aggregate(
                relation, "count", "name",
                strategy="parallel_sweep", shards=2, counters=counters,
            )
        finally:
            monkeypatch.setattr(os, "fork", real_fork)
            pool_module.shutdown_default_pool()
        assert forks == []
        assert counters.pool_shards == 2
        assert result == temporal_aggregate(relation, "count", strategy="reference")

    def test_count_of_any_attribute_shares_one_cache_entry(self):
        from repro.cache.store import ShardResultCache, set_default_cache

        relation = self.relation()
        set_default_cache(ShardResultCache())
        try:
            first = OperationCounters()
            temporal_aggregate(
                relation, "count", "name", strategy="cached_sweep",
                counters=first,
            )
            second = OperationCounters()
            temporal_aggregate(
                relation, "count", "salary", strategy="cached_sweep",
                counters=second,
            )
        finally:
            set_default_cache(None)
        assert first.cache_misses == 1
        assert second.cache_hits == 1
        assert second.cache_misses == 0
        assert second.cache_dirty_shards == 0

    def test_count_still_checks_the_attribute_name(self, employed):
        from repro.relation.schema import SchemaError

        with pytest.raises(SchemaError):
            temporal_aggregate(employed, "count", "bonus")
