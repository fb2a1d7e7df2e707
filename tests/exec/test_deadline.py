"""Wall-clock deadlines: mechanics and engine threading."""

import pytest

from repro.core.engine import evaluate_triples, temporal_aggregate
from repro.exec.deadline import Deadline
from repro.exec.errors import DeadlineExceeded
from repro.workload.generator import WorkloadParameters, generate_relation
from tests.conftest import random_triples, triples_relation


class TestDeadlineMechanics:
    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline(60_000)
        assert not deadline.expired()
        deadline.check(tuples_consumed=0)  # no raise

    def test_after_ms_none_means_no_deadline(self):
        assert Deadline.after_ms(None) is None

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0)

    def test_expired_deadline_raises_with_progress(self):
        deadline = Deadline(0.0001)
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check(completed_shards=2, total_shards=8)
        exc = info.value
        assert exc.progress == {"completed_shards": 2, "total_shards": 8}
        assert exc.elapsed_ms >= 0
        assert exc.deadline_ms == pytest.approx(0.0001)

    def test_remaining_seconds_never_negative(self):
        deadline = Deadline(0.0001)
        assert deadline.remaining_seconds() == 0.0


class TestEngineThreading:
    def test_tree_build_trips_mid_stream(self):
        """A sub-millisecond deadline trips at a build checkpoint, and
        the exception reports how many tuples were folded in."""
        data = random_triples(3, 20_000, max_instant=5_000)
        with pytest.raises(DeadlineExceeded) as info:
            evaluate_triples(data, "count", "aggregation_tree", deadline_ms=0.2)
        consumed = info.value.progress["tuples_consumed"]
        assert 0 < consumed < 20_000

    def test_temporal_aggregate_deadline(self, small_random_relation):
        with pytest.raises(DeadlineExceeded):
            temporal_aggregate(
                small_random_relation,
                "count",
                strategy="aggregation_tree",
                deadline_ms=1e-6,
            )

    def test_generous_deadline_changes_nothing(self, small_random_relation):
        bounded = temporal_aggregate(
            small_random_relation, "count", deadline_ms=60_000
        )
        unbounded = temporal_aggregate(small_random_relation, "count")
        assert bounded.rows == unbounded.rows

    def test_parallel_sweep_checks_at_shard_boundaries(self):
        data = random_triples(5, 2_000, max_instant=2_000)
        with pytest.raises(DeadlineExceeded) as info:
            evaluate_triples(
                data, "count", "parallel_sweep", shards=4, deadline_ms=1e-6
            )
        # The failing checkpoint is either the sweep entry (delegated
        # single-window case cannot happen with this spread) or a shard
        # boundary carrying shard progress.
        assert info.value.progress

    @pytest.mark.parametrize(
        "strategy",
        ["linked_list", "kordered_tree", "two_pass", "sweep", "balanced_tree"],
    )
    def test_every_loop_checks_the_deadline(self, strategy):
        """Each evaluator's loops pause at a checkpoint every
        CHECKPOINT_INTERVAL tuples, so a deadline long past trips
        within the first few; the sorted input keeps the k-ordered
        tree's promise."""
        relation = triples_relation(sorted(random_triples(8, 2_000, 2_000)))
        with pytest.raises(DeadlineExceeded):
            temporal_aggregate(
                relation, "count", strategy=strategy, deadline_ms=1e-6,
                use_cache=False,
            )

    def test_planned_linked_list_checks_the_deadline(self):
        """Few unique timestamps: the planner's own pick is the linked
        list, and the statement's deadline bounds it."""
        relation = triples_relation(random_triples(9, 2_000, max_instant=8))
        _, decision = temporal_aggregate(relation, "count", explain=True)
        assert decision.strategy == "linked_list"
        with pytest.raises(DeadlineExceeded):
            temporal_aggregate(
                relation, "count", deadline_ms=1e-6, use_cache=False
            )

    def test_columnar_sweep_checks_on_entry(self):
        data = random_triples(6, 1_000)
        with pytest.raises(DeadlineExceeded):
            evaluate_triples(data, "count", "columnar_sweep", deadline_ms=1e-6)


class TestDeadlinePartialProgress:
    def test_generator_input_not_fully_consumed_is_fine(self):
        """DeadlineExceeded from a streaming build must not mask the
        partial consumption (the generator simply stops being pulled)."""
        pulled = []

        def stream():
            for triple in random_triples(9, 50_000, max_instant=9_000):
                pulled.append(1)
                yield triple

        with pytest.raises(DeadlineExceeded):
            evaluate_triples(stream(), "count", "aggregation_tree", deadline_ms=0.2)
        assert 0 < len(pulled) < 50_000
