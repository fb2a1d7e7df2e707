"""Deterministic fault-injection suite: every recovery path, exact results.

These tests force resident pool workers to die, hang, and poison their
results while ``parallel_sweep`` fans an identified relation out over
the started pool, then assert the engine still returns byte-identical
rows to the brute-force oracle for all five aggregates.  They are
marked ``faults`` so CI can run them as a dedicated job
(``pytest -m faults``); they also run in the default suite.
"""

import multiprocessing

import pytest

from repro.core.parallel import ParallelSweepEvaluator
from repro.core.reference import ReferenceEvaluator
from repro.exec.faults import (
    FaultPlan,
    ShardFault,
    clear_fault_plan,
    current_fault_plan,
    fault_plan,
    install_fault_plan,
)
from repro.exec.supervision import RetryPolicy
from tests.conftest import random_triples, triples_relation

pytestmark = pytest.mark.faults

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="resident pool faults need the fork start method",
)

AGGREGATES = ["count", "sum", "min", "max", "avg"]

#: Fast retries so the whole suite stays inside CI timeouts.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def corpus(seed=7, n=500):
    return random_triples(seed, n, max_instant=300)


@pytest.fixture()
def pooled(started_pool, monkeypatch):
    """Every sharded sweep over a relation runs on the started pool."""
    monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 0)
    return started_pool


def evaluate_under(plan, aggregate, data, **kwargs):
    relation = triples_relation(data)
    attribute = None if aggregate == "count" else "salary"
    with fault_plan(plan):
        evaluator = ParallelSweepEvaluator(
            aggregate,
            shards=4,
            retry=kwargs.pop("retry", FAST_RETRY),
            **kwargs,
        )
        result = evaluator.evaluate_relation(relation, attribute)
    report = evaluator.last_supervision
    assert report is not None, "the shards did not run on the pool"
    assert report.total_shards == 4
    return result, report


class TestPlanMechanics:
    def test_install_and_clear(self):
        plan = FaultPlan(name="t")
        install_fault_plan(plan)
        assert current_fault_plan() is plan
        clear_fault_plan()
        assert current_fault_plan() is None

    def test_context_manager_restores(self):
        outer = FaultPlan(name="outer")
        inner = FaultPlan(name="inner")
        install_fault_plan(outer)
        with fault_plan(inner):
            assert current_fault_plan() is inner
        assert current_fault_plan() is outer
        clear_fault_plan()

    def test_fault_matching_is_attempt_bounded(self):
        plan = FaultPlan(shard_faults=(ShardFault(2, "raise", attempts=2),))
        assert plan.fault_for(2, 1) is not None
        assert plan.fault_for(2, 2) is not None
        assert plan.fault_for(2, 3) is None
        assert plan.fault_for(1, 1) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ShardFault(0, "meteor")


@needs_fork
@pytest.mark.usefixtures("pooled")
class TestKilledShards:
    """The acceptance scenario: kill 2 of 4 shards, answers unchanged."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_two_killed_shards_exact_for_all_aggregates(self, aggregate):
        data = corpus()
        reference = ReferenceEvaluator(aggregate).evaluate(data)
        plan = FaultPlan(
            shard_faults=(ShardFault(1, "kill"), ShardFault(2, "kill")),
            name="kill-2-of-4",
        )
        result, report = evaluate_under(plan, aggregate, data)
        assert result.rows == reference.rows
        assert report.degraded  # the kills really happened
        assert report.respawns >= 1

    def test_injected_raise_is_retried_not_fatal(self):
        data = corpus(seed=8)
        reference = ReferenceEvaluator("sum").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(0, "raise"),))
        result, report = evaluate_under(plan, "sum", data)
        assert result.rows == reference.rows
        assert report.retries >= 1
        assert report.respawns == 0  # plain exception, workers intact


@needs_fork
@pytest.mark.usefixtures("pooled")
class TestPoolWideDeath:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_every_worker_dying_falls_back_in_process(self, aggregate):
        data = corpus(seed=9)
        reference = ReferenceEvaluator(aggregate).evaluate(data)
        plan = FaultPlan(
            shard_faults=tuple(
                ShardFault(i, "kill", attempts=99) for i in range(4)
            ),
            name="pool-death",
        )
        result, report = evaluate_under(
            plan, aggregate, data, retry=RetryPolicy(max_attempts=2, base_delay=0.01)
        )
        assert result.rows == reference.rows
        assert report.inprocess_shards == 4
        assert len(report.failures) == 4
        assert all(f.attempts == 2 for f in report.failures)


@needs_fork
@pytest.mark.usefixtures("pooled")
class TestPoisonedResults:
    def test_unpicklable_result_is_retried(self):
        data = corpus(seed=10)
        reference = ReferenceEvaluator("avg").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(3, "poison"),))
        result, report = evaluate_under(plan, "avg", data)
        assert result.rows == reference.rows
        assert report.retries >= 1

    def test_permanently_poisoned_shard_recovers_in_process(self):
        data = corpus(seed=11)
        reference = ReferenceEvaluator("count").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(0, "poison", attempts=99),))
        result, report = evaluate_under(plan, "count", data)
        assert result.rows == reference.rows
        assert report.inprocess_shards == 1


@needs_fork
@pytest.mark.usefixtures("pooled")
class TestHungShards:
    def test_delayed_worker_times_out_and_retry_succeeds(self):
        data = corpus(seed=12)
        reference = ReferenceEvaluator("sum").evaluate(data)
        plan = FaultPlan(
            shard_faults=(ShardFault(2, "delay", delay_seconds=1.0),)
        )
        result, report = evaluate_under(
            plan, "sum", data, shard_timeout=0.2
        )
        assert result.rows == reference.rows
        assert report.timeouts >= 1
