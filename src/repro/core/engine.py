"""Top-level evaluation engine: strategy registry and dispatch.

This is the public entry point most users want:

>>> from repro import temporal_aggregate
>>> result = temporal_aggregate(employed, "count")

``temporal_aggregate`` picks an algorithm automatically via the
Section 6.3 planner, or runs the one named by ``strategy``.  The lower
level :func:`make_evaluator` / :func:`evaluate_triples` functions serve
benchmarks that need precise control and raw triple streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Type, Union

from repro.analysis import invariants as _invariants
from repro.cache.evaluator import CachedSweepEvaluator
from repro.cache.store import cacheable_relation, default_cache
from repro.core.aggregation_tree import AggregationTreeEvaluator
from repro.core.balanced_tree import BalancedTreeEvaluator
from repro.core.base import Evaluator, Triple, coerce_aggregate
from repro.core.columnar_sweep import ColumnarSweepEvaluator
from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.core.linked_list import LinkedListEvaluator
from repro.core.paged_tree import PagedAggregationTreeEvaluator
from repro.core.parallel import ParallelSweepEvaluator, registered_instance
from repro.core.planner import PlannerDecision, choose_strategy, named_plan
from repro.core.reference import ReferenceEvaluator
from repro.core.result import TemporalAggregateResult
from repro.core.sweep import SweepEvaluator
from repro.core.two_pass import TwoPassEvaluator
from repro.exec.deadline import Deadline
from repro.exec.validation import validate_shards, validated_triples
from repro.metrics.counters import OperationCounters
from repro.metrics.space import SpaceTracker
from repro.relation.relation import SpaceCounts, space_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.relation.relation import TemporalRelation

__all__ = [
    "STRATEGIES",
    "UnknownStrategyError",
    "make_evaluator",
    "evaluate_triples",
    "temporal_aggregate",
]


class UnknownStrategyError(KeyError):
    """Raised for a strategy name not in the registry."""


def _recording_stream(triples: Iterable[Triple], seen: list) -> Iterable[Triple]:
    """Yield from ``triples``, appending each pulled item to ``seen``."""
    for triple in triples:
        seen.append(triple)
        yield triple


#: All evaluation strategies, keyed by their registry names.
STRATEGIES: Dict[str, Type[Evaluator]] = {
    LinkedListEvaluator.name: LinkedListEvaluator,
    AggregationTreeEvaluator.name: AggregationTreeEvaluator,
    KOrderedTreeEvaluator.name: KOrderedTreeEvaluator,
    BalancedTreeEvaluator.name: BalancedTreeEvaluator,
    PagedAggregationTreeEvaluator.name: PagedAggregationTreeEvaluator,
    SweepEvaluator.name: SweepEvaluator,
    ColumnarSweepEvaluator.name: ColumnarSweepEvaluator,
    ParallelSweepEvaluator.name: ParallelSweepEvaluator,
    CachedSweepEvaluator.name: CachedSweepEvaluator,
    TwoPassEvaluator.name: TwoPassEvaluator,
    ReferenceEvaluator.name: ReferenceEvaluator,
}


def make_evaluator(
    strategy: str,
    aggregate: "Aggregate | str",
    *,
    k: Optional[int] = None,
    shards: Optional[int] = None,
    counters: Optional[OperationCounters] = None,
    space: Optional[SpaceTracker] = None,
    deadline: Optional[Deadline] = None,
) -> Evaluator:
    """Instantiate the evaluator registered under ``strategy``.

    ``k`` is only meaningful for (and only accepted by) the k-ordered
    tree; it defaults to 1, the paper's recommended setting.  ``shards``
    is likewise exclusive to the time-sharded strategies (the parallel
    sweep and the cached sweep); it defaults to one shard per available
    core.  ``deadline`` (an already-started
    :class:`~repro.exec.deadline.Deadline`) attaches to the evaluator
    and is honored at its resilience checkpoints.
    """
    try:
        factory = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise UnknownStrategyError(
            f"unknown strategy {strategy!r}; known strategies: {known}"
        ) from None
    shards = validate_shards(shards)
    if factory is KOrderedTreeEvaluator:
        if shards is not None:
            raise ValueError(
                f"strategy {strategy!r} does not take a shards parameter"
            )
        evaluator = KOrderedTreeEvaluator(
            aggregate, k if k is not None else 1, counters=counters, space=space
        )
    elif k is not None:
        raise ValueError(f"strategy {strategy!r} does not take a k parameter")
    elif factory is ParallelSweepEvaluator:
        evaluator = ParallelSweepEvaluator(
            aggregate, shards=shards, counters=counters, space=space
        )
    elif factory is CachedSweepEvaluator:
        evaluator = CachedSweepEvaluator(
            aggregate, shards=shards, counters=counters, space=space
        )
    elif shards is not None:
        raise ValueError(
            f"strategy {strategy!r} does not take a shards parameter"
        )
    else:
        evaluator = factory(aggregate, counters=counters, space=space)
    evaluator.deadline = deadline
    return evaluator


def evaluate_triples(
    triples: Iterable[Triple],
    aggregate: "Aggregate | str",
    strategy: str = "aggregation_tree",
    *,
    k: Optional[int] = None,
    shards: Optional[int] = None,
    counters: Optional[OperationCounters] = None,
    space: Optional[SpaceTracker] = None,
    deadline_ms: Optional[float] = None,
    validate: bool = True,
) -> TemporalAggregateResult:
    """Evaluate directly over ``(start, end, value)`` triples.

    This is an engine boundary: by default every triple is validated
    (integer endpoints, ordered closed intervals, no NaN values) and
    malformed input raises :class:`~repro.exec.errors.InvalidInput`
    instead of silently corrupting sweep ordering.  ``validate=False``
    skips the per-tuple checks for callers that already guarantee
    shape (benchmark inner loops).  ``deadline_ms`` bounds the
    evaluation's wall-clock time.
    """
    evaluator = make_evaluator(
        strategy,
        aggregate,
        k=k,
        shards=shards,
        counters=counters,
        space=space,
        deadline=Deadline.after_ms(deadline_ms),
    )
    checking = _invariants.invariants_enabled()
    if checking and not isinstance(triples, list):
        # The verifier needs to re-read the input, but materialising a
        # generator up front would hide partial consumption (deadline
        # and budget paths stop pulling mid-stream), so record lazily.
        triples = _recording_stream(triples, seen := [])
    else:
        seen = None
    if validate:
        stream: Iterable[Triple] = validated_triples(triples)
    else:
        stream = triples
    result = evaluator.evaluate(stream)
    if checking:
        consumed = seen if seen is not None else list(triples)
        _invariants.verify_evaluation(
            evaluator, result, consumed, evaluator.aggregate
        )
    return result


def temporal_aggregate(
    relation: "TemporalRelation",
    aggregate: "Aggregate | str",
    attribute: Optional[str] = None,
    *,
    strategy: str = "auto",
    k: Optional[int] = None,
    shards: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    deadline_ms: Union[float, Deadline, None] = None,
    counters: Optional[OperationCounters] = None,
    space: Optional[SpaceTracker] = None,
    explain: bool = False,
    use_cache: bool = True,
) -> "TemporalAggregateResult | tuple[TemporalAggregateResult, PlannerDecision]":
    """Compute a temporal aggregate over a relation, grouped by instant.

    Parameters
    ----------
    relation:
        A :class:`~repro.relation.relation.TemporalRelation`.
    aggregate:
        Aggregate instance or name ("count", "sum", "min", "max",
        "avg", ...).  COUNT ignores ``attribute``.
    attribute:
        Which explicit attribute feeds the aggregate (required for
        value aggregates).
    strategy:
        An evaluator name, or ``"auto"`` to let the planner choose
        from the relation's statistics (:mod:`repro.core.planner`).
    k:
        The k-orderedness bound for ``strategy="kordered_tree"``.
    shards:
        Time-domain shard count for ``strategy="parallel_sweep"``
        (default: one per available core).  With ``"auto"`` the
        planner chooses ``k`` and ``shards``; passing either raises
        ``ValueError``.
    memory_budget_bytes:
        Decided before the run: only a plan whose exact bound in
        ``space``'s units fits runs (:mod:`repro.core.planner`), a
        named ``strategy`` included, and
        :class:`~repro.exec.errors.BudgetExhausted` is raised before
        anything runs when none fits.
    deadline_ms:
        Wall-clock bound for the whole call; when it passes,
        :class:`~repro.exec.errors.DeadlineExceeded` is raised from
        the next checkpoint, carrying partial-progress metrics.  An
        already-running :class:`~repro.exec.deadline.Deadline` is also
        accepted, so a caller executing several aggregate calls under
        one statement budget (the tsql2 executor, the query server)
        can share the clock instead of restarting it per call.
    explain:
        When true, also return the :class:`PlannerDecision` (a
        synthesised one when ``strategy`` was given explicitly).
    use_cache:
        Whether the shard-result cache may serve and fill this call.
        False skips repeat detection (so the planner never picks
        ``cached_sweep``) and runs an explicit ``cached_sweep``
        uncached: nothing reads or fills the cache.

    Returns the result, or ``(result, decision)`` with ``explain``.
    """
    if isinstance(deadline_ms, Deadline):
        deadline: Optional[Deadline] = deadline_ms
    else:
        deadline = Deadline.after_ms(deadline_ms)
    aggregate = coerce_aggregate(aggregate)
    if aggregate.needs_value and attribute is None:
        raise ValueError(
            f"aggregate {aggregate.name!r} needs an attribute to aggregate"
        )
    if not aggregate.needs_value and attribute is not None:
        # COUNT(name), COUNT(salary) and COUNT(*) read no values: one
        # timestamps-only column snapshot and one cache key serve them
        # all, and the process pool can map that snapshot.  The name
        # must still be an attribute.
        relation.schema.position_of(attribute)
        attribute = None

    counts: Optional[SpaceCounts] = None
    if memory_budget_bytes is not None:
        columns = relation.columns(None)
        counts = space_counts(columns.starts, columns.ends)
    if strategy == "auto":
        if k is not None or shards is not None:
            raise ValueError(
                "strategy 'auto' takes no k or shards parameter: the "
                "planner chooses them; name a strategy to set them"
            )
        # Repeat detection: the default cache remembers recent query
        # signatures; a signature seen before marks a repeated workload
        # and licenses the planner's cached_sweep rule.  Only relations
        # carrying the cache protocol (and registry aggregates, which
        # are what cache entries key on) participate.
        repeat_observed = False
        if (
            use_cache
            and cacheable_relation(relation)
            and registered_instance(aggregate)
        ):
            repeat_observed = default_cache().note_query(
                relation.uid, aggregate.name, attribute
            )
        decision = choose_strategy(
            relation.statistics(),
            aggregate=aggregate,
            memory_budget_bytes=memory_budget_bytes,
            counts=counts,
            repeat_observed=repeat_observed,
        )
    else:
        decision = named_plan(
            strategy,
            k=k,
            shards=shards,
            aggregate=aggregate,
            memory_budget_bytes=memory_budget_bytes,
            counts=counts,
        )

    target = relation.sorted_by_time() if decision.sort_first else relation
    evaluator = make_evaluator(
        decision.strategy,
        aggregate,
        k=decision.k,
        shards=decision.shards,
        counters=counters,
        space=space,
        deadline=deadline,
    )
    if use_cache or type(evaluator) is not CachedSweepEvaluator:
        result = evaluator.evaluate_relation(target, attribute)
    else:
        # Over raw triples the cached sweep is the plain columnar sweep.
        result = evaluator.evaluate(target.scan_triples(attribute))
    if _invariants.invariants_enabled():
        # Relations re-scan deterministically, so the verifier gets an
        # independent copy of exactly the triples the evaluator saw.
        _invariants.verify_evaluation(
            evaluator, result, list(target.scan_triples(attribute)), aggregate
        )
    if explain:
        return result, decision
    return result
