"""Mutation tests for the runtime invariant verifier.

A verifier that cannot fire is decoration.  Every check in
:mod:`repro.analysis.invariants` gets a deliberately broken evaluator
(or tampered result) here and must raise :class:`InvariantViolation`;
the flip side — correct evaluations pass with checking on — is covered
by running the whole suite under ``REPRO_CHECK_INVARIANTS=1`` in CI.
"""

from __future__ import annotations

import pytest

from repro.analysis import invariants
from repro.analysis.invariants import GCShadow, InvariantViolation
from repro.core.aggregation_tree import AggregationTreeEvaluator
from repro.core.base import coerce_aggregate
from repro.core.engine import STRATEGIES, evaluate_triples, temporal_aggregate
from repro.core.group_by import grouped_temporal_aggregate
from repro.core.interval import FOREVER, ORIGIN, Interval
from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.core.paged_tree import PagedAggregationTreeEvaluator
from repro.core.reference import ReferenceEvaluator
from repro.core.result import ConstantInterval, TemporalAggregateResult
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.storage.heapfile import HeapFile
from repro.storage.zonemap import windowed_aggregate
from tests.conftest import random_triples

TRIPLES = random_triples(seed=5, n=120, max_instant=200)
COUNT = coerce_aggregate("count")


def rows_of(triples, aggregate="count"):
    return ReferenceEvaluator(aggregate).evaluate(list(triples)).rows


class TestEnableDisable:
    def test_fixture_forces_checking_on(self, invariant_checks):
        assert invariants.invariants_enabled()

    def test_enable_disable_reset(self, monkeypatch):
        monkeypatch.delenv(invariants.ENV_FLAG, raising=False)
        invariants.enable()
        assert invariants.invariants_enabled()
        invariants.disable()
        assert not invariants.invariants_enabled()
        invariants.reset_to_env()
        assert not invariants.invariants_enabled()

    def test_env_flag_spellings(self, monkeypatch):
        for value in ("0", "false", "No", " OFF ", ""):
            monkeypatch.setenv(invariants.ENV_FLAG, value)
            invariants.reset_to_env()
            assert not invariants.invariants_enabled(), value
        for value in ("1", "true", "yes", "on"):
            monkeypatch.setenv(invariants.ENV_FLAG, value)
            invariants.reset_to_env()
            assert invariants.invariants_enabled(), value
        monkeypatch.delenv(invariants.ENV_FLAG)
        invariants.reset_to_env()


class TestPartitionCheck:
    def build(self, spans):
        rows = [ConstantInterval(s, e, 0) for s, e in spans]
        return TemporalAggregateResult(rows, check=False)

    def test_gap_detected(self):
        result = self.build([(ORIGIN, 9), (11, FOREVER)])
        with pytest.raises(InvariantViolation, match="gap"):
            invariants.verify_result_partition(result)

    def test_overlap_detected(self):
        result = self.build([(ORIGIN, 10), (10, FOREVER)])
        with pytest.raises(InvariantViolation, match="overlaps"):
            invariants.verify_result_partition(result)

    def test_missing_origin_detected(self):
        result = self.build([(5, FOREVER)])
        with pytest.raises(InvariantViolation, match="origin"):
            invariants.verify_result_partition(result)

    def test_truncated_timeline_detected(self):
        result = self.build([(ORIGIN, 99)])
        with pytest.raises(InvariantViolation, match="FOREVER"):
            invariants.verify_result_partition(result)

    def test_correct_partition_passes(self):
        invariants.verify_result_partition(
            self.build([(ORIGIN, 4), (5, 9), (10, FOREVER)])
        )


class TestSnapshotCheck:
    def test_tampered_row_value_detected(self):
        rows = list(rows_of(TRIPLES))
        victim = len(rows) // 2
        rows[victim] = ConstantInterval(
            rows[victim].start, rows[victim].end, (rows[victim].value or 0) + 1
        )
        result = TemporalAggregateResult(rows, check=False)
        with pytest.raises(InvariantViolation, match="snapshot disagreement"):
            invariants.verify_snapshot_agreement(
                result, TRIPLES, COUNT, max_samples=len(rows)
            )

    def test_correct_result_passes(self):
        result = TemporalAggregateResult(list(rows_of(TRIPLES)), check=False)
        invariants.verify_snapshot_agreement(result, TRIPLES, COUNT)


class TestTreePartialsCheck:
    def test_corrupted_node_state_detected(self):
        evaluator = AggregationTreeEvaluator("sum")
        triples = [(s, e, 1) for s, e, _ in TRIPLES]
        evaluator.evaluate(list(triples))
        # Corrupt one partial somewhere down the left spine.
        node = evaluator.root
        for _ in range(3):
            if node.left is None:
                break
            node = node.left
        node.state = evaluator.aggregate.absorb(node.state, 1)  # phantom tuple
        with pytest.raises(InvariantViolation, match="re-sum"):
            invariants.verify_tree_partials(
                evaluator, triples, max_leaves=10_000
            )

    def test_intact_tree_passes(self):
        evaluator = AggregationTreeEvaluator("sum")
        triples = [(s, e, 1) for s, e, _ in TRIPLES]
        evaluator.evaluate(list(triples))
        invariants.verify_tree_partials(evaluator, triples, max_leaves=10_000)


class TestGCShadow:
    def test_premature_free_detected(self):
        shadow = GCShadow(capacity=3)
        for start in (10, 20, 30, 40, 50):
            shadow.observe(start)
        # Expired starts: 10, 20 -> threshold 20.  A node ending at 20
        # can still change; one ending at 19 cannot.
        assert shadow.threshold == 20
        shadow.check_free(ConstantInterval(0, 19, None))
        with pytest.raises(InvariantViolation, match="still change"):
            shadow.check_free(ConstantInterval(0, 20, None))

    def test_corrupted_threshold_detected_end_to_end(self, invariant_checks):
        class InflatedThresholdEvaluator(KOrderedTreeEvaluator):
            """Pretends more of the timeline is final than is safe."""

            def _collect(self):
                self._threshold += 50
                super()._collect()

        sorted_triples = sorted(
            ((s, e, None) for s, e, _ in TRIPLES), key=lambda t: (t[0], t[1])
        )
        honest = KOrderedTreeEvaluator("count", k=1)
        assert honest.evaluate(list(sorted_triples)).rows  # sanity: passes
        corrupted = InflatedThresholdEvaluator("count", k=1)
        with pytest.raises(InvariantViolation, match="still change"):
            corrupted.evaluate(list(sorted_triples))

    def test_gc_shadow_detached_when_checking_off(self):
        invariants.disable()
        try:
            evaluator = KOrderedTreeEvaluator("count", k=1)
            evaluator.evaluate(sorted((s, e, None) for s, e, _ in TRIPLES))
            assert evaluator._gc_shadow is None
        finally:
            invariants.reset_to_env()


class TestSpaceAccountingCheck:
    def test_tampered_tracker_detected(self):
        evaluator = AggregationTreeEvaluator("count")
        evaluator.evaluate([(s, e, None) for s, e, _ in TRIPLES])
        evaluator.space.allocate(1)  # a node the tree does not have
        with pytest.raises(InvariantViolation, match="space accounting"):
            invariants.verify_space_accounting(evaluator)

    def test_leaky_eviction_detected(self, invariant_checks):
        class LeakyPagedEvaluator(PagedAggregationTreeEvaluator):
            """Each eviction books one node that was never allocated."""

            def _evict(self):
                super()._evict()
                self.space.allocate(1)

        evaluator = LeakyPagedEvaluator("count", node_budget=16)
        with pytest.raises(InvariantViolation, match="eviction"):
            evaluator.evaluate([(s, e, None) for s, e, _ in TRIPLES])


class TestEngineHook:
    def test_wrong_evaluator_caught_at_the_engine_boundary(
        self, invariant_checks, monkeypatch, employed
    ):
        """Every entry point that runs a named strategy — the engine
        itself and the side operators built on it — is under the hook."""
        class OffByOneEvaluator(ReferenceEvaluator):
            """Correct everywhere except one row."""

            name = "off_by_one_test"

            def evaluate(self, triples):
                result = super().evaluate(triples)
                rows = list(result.rows)
                rows[0] = ConstantInterval(
                    rows[0].start, rows[0].end, (rows[0].value or 0) + 1
                )
                return TemporalAggregateResult(rows, check=False)

        monkeypatch.setitem(
            STRATEGIES, OffByOneEvaluator.name, OffByOneEvaluator
        )
        with pytest.raises(InvariantViolation, match="snapshot disagreement"):
            evaluate_triples(list(TRIPLES), "count", OffByOneEvaluator.name)
        with pytest.raises(InvariantViolation, match="snapshot disagreement"):
            grouped_temporal_aggregate(
                employed, "count", "name", strategy=OffByOneEvaluator.name
            )
        with pytest.raises(InvariantViolation, match="snapshot disagreement"):
            windowed_aggregate(
                HeapFile.from_relation(employed),
                "count",
                Interval(0, 30),
                strategy=OffByOneEvaluator.name,
            )

    def test_correct_strategies_pass_under_checking(
        self, invariant_checks, employed
    ):
        for strategy in ("aggregation_tree", "sweep", "two_pass"):
            result = temporal_aggregate(employed, "count", strategy=strategy)
            assert result.rows

    @pytest.mark.parametrize(
        "strategy",
        ["auto", "aggregation_tree", "kordered_tree", "balanced_tree", "paged_tree"],
    )
    def test_empty_relation_passes_under_checking(self, invariant_checks, strategy):
        """An empty input is one all-identity constant interval, and
        the tree that produced it is charged exactly the space it
        holds."""
        empty = TemporalRelation(EMPLOYED_SCHEMA, name="empty")
        for function in ("count", "sum", "min", "max", "avg"):
            attribute = None if function == "count" else "salary"
            result = temporal_aggregate(
                empty, function, attribute, strategy=strategy
            )
            assert result.rows == rows_of([], function)

    def test_streaming_input_still_streams(self, invariant_checks):
        """The verifier's input recording must not pre-materialise."""
        pulled = []

        def stream():
            for triple in TRIPLES:
                pulled.append(triple)
                yield triple

        result = evaluate_triples(stream(), "count", "aggregation_tree")
        assert result.rows
        assert pulled == list(TRIPLES)
