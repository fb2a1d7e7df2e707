"""Query-optimizer strategy selection (paper Section 6.3, re-measured).

The paper ends its empirical study with rules for a query analyzer,
derived by timing its own evaluators.  This module keeps that shape —
an inspectable decision procedure over relation statistics — with the
rules re-derived the same way on this implementation:
``python -m repro.bench planner`` times every plan below over the
Section 6 generator and writes ``results/BENCH_planner.json``, and a
tier-1 test checks that every pick is within 1.25x of the fastest plan
in every cell of that table.

* **repeated query over a large relation** → the shard-result cache
  (:mod:`repro.cache`, a post-paper extension);
* **very few constant intervals expected** (few unique timestamps) →
  the linked list is adequate and smallest;
* otherwise → the columnar event sweep, fastest at every measured
  order and size, sharded (:mod:`repro.core.parallel`) from
  :data:`~repro.core.partition.PARALLEL_MIN_TUPLES` tuples on a
  multi-core host — for every aggregate but COUNT over sorted or nearly
  sorted input, where sharding was slower.

**Under a memory budget** the plan is decided before it runs, as
Section 6.3 decides it.  Every plan is charged its exact peak in the
units its :class:`~repro.metrics.space.SpaceTracker` counts
(``node_bytes`` per node, cell or event; :func:`node_bound`), and the
rules above, less the cached and sharded sweeps (per-shard clipping
charges a long tuple once per shard, so no count bounds them), are
followed by the paper's memory-constrained rules: sorted → the
k-ordered tree with k = 1; nearly sorted → the k-ordered tree with the
measured k; the aggregation tree; sort, then the k-ordered tree with
k = 1.  The first plan that fits runs; when none does,
:class:`~repro.exec.errors.BudgetExhausted` is raised before anything
runs.  A named strategy goes through the same check
(:func:`named_plan`), and a named plan with no bound is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation.relation import RelationStatistics, SpaceCounts

from repro.core.aggregates import Aggregate, CountAggregate
from repro.core import partition
from repro.core.partition import available_workers
from repro.exec.errors import BudgetExhausted
from repro.metrics.space import NODE_OVERHEAD_BYTES

__all__ = [
    "PlannerDecision",
    "choose_strategy",
    "named_plan",
    "node_bound",
]

#: Relations whose unique-timestamp count is below this fraction of the
#: tuple count are "few constant intervals" cases where the linked list
#: is adequate (Section 6.3's single-year / coarse-granularity example).
FEW_INTERVALS_FRACTION = 0.01

#: Measured k above this fraction of n no longer counts as "nearly
#: sorted" — the window would retain most of the relation anyway.
NEARLY_SORTED_FRACTION = 0.05

#: Repeatedly queried relations at least this large are worth routing
#: through the shard-result cache: below it even a full sweep is cheap
#: enough that caching only adds bookkeeping.
CACHE_MIN_TUPLES = 4_096


@dataclass(frozen=True)
class PlannerDecision:
    """The chosen evaluation plan plus the reasoning behind it."""

    strategy: str  # evaluator registry name
    k: Optional[int] = None  # window parameter for the k-ordered tree
    sort_first: bool = False  # sort the relation before evaluating
    reason: str = ""
    #: The plan's memory bound in bytes when the planner had the
    #: relation's space counts (0 otherwise, or with no bound).
    estimated_bytes: int = 0
    shards: Optional[int] = None  # fan-out for the parallel sweep

    @property
    def plan(self) -> str:
        """The plan's shape, e.g. ``sort + kordered_tree(k=1)``."""
        plan = self.strategy
        if self.k is not None:
            plan += f"(k={self.k})"
        if self.shards is not None:
            plan += f"(shards={self.shards})"
        if self.sort_first:
            plan = "sort + " + plan
        return plan

    def describe(self) -> str:
        return f"{self.plan} — {self.reason}"


def node_bound(
    strategy: str, counts: "SpaceCounts", k: Optional[int] = None
) -> Optional[int]:
    """Peak nodes ``strategy``'s tracker can record over a relation
    with these counts, or None when no count bounds it.

    ==========================================  ========================
    ``aggregation_tree``, ``balanced_tree``     2B + 1
    ``linked_list``, ``two_pass``               B + 1
    ``columnar_sweep``, ``sweep``               events
    ``kordered_tree`` (k, default 1)            min(2B + 1, 2c + 8k + 9)
    ==========================================  ========================

    Each of the B split points splits one leaf once (two nodes) and
    starts one list cell.  After an insert and before its collection,
    the k-ordered tree's leaves are at most the c intervals open at the
    gc-threshold plus two split points from each of the ``2k + 2``
    window tuples, and L leaves take ``2L - 1`` nodes.
    """
    split_points = counts.split_points
    if strategy in ("aggregation_tree", "balanced_tree"):
        return 2 * split_points + 1
    if strategy in ("linked_list", "two_pass"):
        return split_points + 1
    if strategy in ("columnar_sweep", "sweep"):
        return counts.events
    if strategy == "kordered_tree":
        window = 1 if k is None else k
        return min(2 * split_points + 1, 2 * counts.max_open + 8 * window + 9)
    return None


def _node_bytes(aggregate: Optional[Aggregate]) -> int:
    state = aggregate.state_bytes if aggregate is not None else CountAggregate.state_bytes
    return NODE_OVERHEAD_BYTES + state


def _first_fit(
    decisions: Iterable[PlannerDecision],
    aggregate: Optional[Aggregate],
    memory_budget_bytes: Optional[int],
    counts: "Optional[SpaceCounts]",
) -> PlannerDecision:
    """The first decision whose bound fits the budget: the one
    ``fits()`` every plan goes through.  Given ``counts``, a decision
    is charged its bound; without a budget the first one stands."""
    if memory_budget_bytes is not None and counts is None:
        raise ValueError("a memory budget needs the relation's space counts")
    needed: List[int] = []
    plans: List[str] = []
    for decision in decisions:
        nodes = None if counts is None else node_bound(
            decision.strategy, counts, decision.k
        )
        if nodes is not None:
            decision = replace(
                decision, estimated_bytes=nodes * _node_bytes(aggregate)
            )
        if memory_budget_bytes is None:
            return decision
        plans.append(decision.plan)
        if nodes is not None:
            if decision.estimated_bytes <= memory_budget_bytes:
                return decision
            needed.append(decision.estimated_bytes)
    assert memory_budget_bytes is not None  # without one, the first stands
    needed_bytes = min(needed, default=None)
    smallest = (
        "no memory bound"
        if needed_bytes is None
        else f"smallest bound {needed_bytes} bytes"
    )
    raise BudgetExhausted(
        f"no plan fits the {memory_budget_bytes}-byte memory budget "
        f"({', '.join(plans)}: {smallest})",
        budget_bytes=memory_budget_bytes,
        needed_bytes=needed_bytes,
    )


def _candidates(
    statistics: "RelationStatistics",
    aggregate: Optional[Aggregate],
    budgeted: bool,
    repeat_observed: bool,
) -> Iterator[PlannerDecision]:
    """Every plan the rules allow, in order of preference."""
    n = statistics.tuple_count
    if repeat_observed and n >= CACHE_MIN_TUPLES and not budgeted:
        yield PlannerDecision(
            strategy="cached_sweep",
            shards=available_workers(),
            reason="repeated query signature over a large relation: the "
            "shard-result cache serves unchanged relations from stitched "
            "rows and appends by re-sweeping only dirty shards",
        )

    if n and statistics.unique_timestamps <= max(2, FEW_INTERVALS_FRACTION * n):
        yield PlannerDecision(
            strategy="linked_list",
            reason="very few constant intervals expected (few unique "
            "timestamps); the linked list is adequate and smallest",
        )

    nearly_sorted = n > 0 and statistics.k <= max(
        1, NEARLY_SORTED_FRACTION * n
    )
    workers = available_workers()
    value_less = aggregate is None or not aggregate.needs_value
    # From PARALLEL_MIN_TUPLES on, results/BENCH_planner.json has two
    # shards tying or beating one sweep, up to 1.7x — except for COUNT
    # over ordered input, whose two plain int sorts run in near-linear
    # time and whose walk carries no values, so the fan-out's fixed
    # costs made it up to 1.5x slower there.
    if (
        not budgeted
        and workers > 1
        and n >= partition.PARALLEL_MIN_TUPLES
        and not (value_less and nearly_sorted)
    ):
        yield PlannerDecision(
            strategy="parallel_sweep",
            shards=workers,
            reason=f"large input and {workers} cores: time-domain "
            "shards over the columnar sweep",
        )
    yield PlannerDecision(
        strategy="columnar_sweep",
        reason="the sweep's events fit in memory: the columnar event "
        "sweep is fastest at any order",
    )

    # The sweep's events exceed the budget: the paper's Section 6.3
    # rules for constrained memory.
    if statistics.is_totally_ordered:
        yield PlannerDecision(
            strategy="kordered_tree",
            k=1,
            reason="relation already sorted and memory constrained; the "
            "k-ordered tree with k=1 keeps a minimal window",
        )
        return
    if nearly_sorted:
        k = max(1, statistics.k)
        yield PlannerDecision(
            strategy="kordered_tree",
            k=k,
            reason=f"relation is {k}-ordered (nearly sorted) and memory "
            "constrained; garbage collection keeps the tree small",
        )
    yield PlannerDecision(
        strategy="aggregation_tree",
        reason="unordered input; the sweep's events exceed the budget but "
        "the aggregation tree fits",
    )
    yield PlannerDecision(
        strategy="kordered_tree",
        k=1,
        sort_first=True,
        reason="unordered input under a memory constraint: sort first, "
        "then k-ordered tree with k=1 (the paper's simplest strategy)",
    )


def choose_strategy(
    statistics: "RelationStatistics",
    *,
    aggregate: Optional[Aggregate] = None,
    memory_budget_bytes: Optional[int] = None,
    counts: "Optional[SpaceCounts]" = None,
    repeat_observed: bool = False,
) -> PlannerDecision:
    """Pick an evaluation plan from relation statistics.

    ``statistics`` is a
    :class:`~repro.relation.relation.RelationStatistics`;
    ``repeat_observed`` marks a query signature the engine has seen
    before (same relation, aggregate and attribute) — a repeated
    workload, which licenses the shard-result cache on large relations.
    ``memory_budget_bytes`` needs ``counts``
    (:func:`~repro.relation.relation.space_counts`); ``counts`` alone
    charges the chosen plan its bound in ``estimated_bytes``.
    """
    return _first_fit(
        _candidates(
            statistics, aggregate, memory_budget_bytes is not None, repeat_observed
        ),
        aggregate,
        memory_budget_bytes,
        counts,
    )


def named_plan(
    strategy: str,
    *,
    k: Optional[int] = None,
    shards: Optional[int] = None,
    aggregate: Optional[Aggregate] = None,
    memory_budget_bytes: Optional[int] = None,
    counts: "Optional[SpaceCounts]" = None,
    reason: str = "strategy requested explicitly",
) -> PlannerDecision:
    """The decision for a strategy the caller named, under the bound
    check :func:`choose_strategy` applies: under a budget it stands only
    if its bound fits, and a plan without one is refused."""
    decision = PlannerDecision(strategy=strategy, k=k, shards=shards, reason=reason)
    return _first_fit([decision], aggregate, memory_budget_bytes, counts)
