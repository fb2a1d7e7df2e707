"""Query-optimizer strategy selection (paper Section 6.3, re-measured).

The paper ends its empirical study with rules for a query analyzer,
derived by timing its own evaluators.  This module keeps that shape —
an inspectable decision procedure over relation statistics — with the
rules re-derived the same way on this implementation:
``python -m repro.bench planner`` times every plan below over the
Section 6 generator and writes ``results/BENCH_planner.json``, and a
tier-1 test checks that every pick is within 1.25x of the fastest plan
in every cell of that table.

* **declared retroactively bounded** → the k-ordered tree with the
  declared ``k``, no measurement needed;
* **repeated query over a large relation** → the shard-result cache
  (:mod:`repro.cache`, a post-paper extension);
* **very few constant intervals expected** (few unique timestamps) →
  the linked list is adequate and smallest;
* **the sweep's event columns fit in memory** → the columnar event
  sweep, whatever the order: it beat every tree on sorted, nearly
  sorted and unsorted input at every measured size.  The time-sharded
  sweep (:mod:`repro.core.parallel`) takes over from
  :data:`~repro.core.partition.PARALLEL_MIN_TUPLES` tuples on a
  multi-core host, where the table shows it tying or beating the
  single sweep — for every aggregate but COUNT over sorted or nearly
  sorted input, where it was slower;
* **memory is constrained** (a budget the event columns do not fit, or
  memory dearer than I/O) → the paper's rules, over the Section 6.2
  byte estimates: sorted → the k-ordered tree with k = 1; nearly sorted
  → the k-ordered tree with the measured k; otherwise the aggregation
  tree when it fits, else the paper's "simplest strategy": sort, then
  the k-ordered tree with k = 1.

The estimators quantify "memory" under the Section 6.2 node model so a
budget in bytes can be compared against the structures directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation.relation import RelationStatistics

from repro.core.aggregates import Aggregate, CountAggregate
from repro.core import partition
from repro.core.partition import available_workers
from repro.exec.faults import current_fault_plan
from repro.metrics.space import NODE_OVERHEAD_BYTES

__all__ = [
    "PlannerDecision",
    "choose_strategy",
    "estimate_tree_bytes",
    "estimate_list_bytes",
    "estimate_ktree_bytes",
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

#: Modeled bytes per sweep event (one flat int column entry); the
#: sweep's working set is its two event columns, not tree nodes.
EVENT_BYTES = 8


@dataclass(frozen=True)
class PlannerDecision:
    """The chosen evaluation plan plus the reasoning behind it."""

    strategy: str  # evaluator registry name
    k: Optional[int] = None  # window parameter for the k-ordered tree
    sort_first: bool = False  # sort the relation before evaluating
    reason: str = ""
    estimated_bytes: int = 0
    shards: Optional[int] = None  # fan-out for the parallel sweep

    def describe(self) -> str:
        plan = self.strategy
        if self.k is not None:
            plan += f"(k={self.k})"
        if self.shards is not None:
            plan += f"(shards={self.shards})"
        if self.sort_first:
            plan = "sort + " + plan
        return f"{plan} — {self.reason}"


def _node_bytes(aggregate: Optional[Aggregate]) -> int:
    state = aggregate.state_bytes if aggregate is not None else CountAggregate.state_bytes
    return NODE_OVERHEAD_BYTES + state


def _budget_inflation() -> float:
    """Byte-inflation factor from the fault-injection hook (1.0 normally).

    The planner consults the active :class:`~repro.exec.faults.FaultPlan`
    so tests can deterministically force budget-constrained plans (and
    runtime degradation) on small relations.
    """
    plan = current_fault_plan()
    return plan.inflate_bytes if plan is not None else 1.0


def estimate_tree_bytes(
    unique_timestamps: int, aggregate: Optional[Aggregate] = None
) -> int:
    """Worst-case aggregation-tree size: each unique timestamp adds two
    nodes (Section 7), plus the initial root."""
    return (2 * unique_timestamps + 1) * _node_bytes(aggregate)


def estimate_list_bytes(
    unique_timestamps: int, aggregate: Optional[Aggregate] = None
) -> int:
    """Linked-list size: each unique timestamp adds at most one cell
    (Section 7), plus the initial cell."""
    return (unique_timestamps + 1) * _node_bytes(aggregate)


def estimate_ktree_bytes(
    k: int,
    long_lived_fraction: float,
    tuple_count: int,
    aggregate: Optional[Aggregate] = None,
) -> int:
    """Rough k-ordered-tree peak: nodes for the ``2k+1`` window plus
    the end-time nodes long-lived tuples leave uncollected (Section 6.2
    attributes the k-tree's memory blow-up to exactly those)."""
    window_nodes = 2 * (2 * k + 1) + 1
    long_lived_nodes = int(2 * long_lived_fraction * tuple_count)
    return (window_nodes + long_lived_nodes) * _node_bytes(aggregate)


def choose_strategy(
    statistics: "RelationStatistics",
    *,
    aggregate: Optional[Aggregate] = None,
    memory_budget_bytes: Optional[int] = None,
    memory_cheaper_than_io: bool = True,
    declared_k: Optional[int] = None,
    repeat_observed: bool = False,
) -> PlannerDecision:
    """Pick an evaluation plan from relation statistics.

    ``statistics`` is a
    :class:`~repro.relation.relation.RelationStatistics`;
    ``declared_k`` models the DBA declaring the relation retroactively
    bounded (Section 6.3), which licenses the k-ordered tree without
    measuring anything.  ``repeat_observed`` marks a query signature the
    engine has seen before (same relation, aggregate and attribute) — a
    repeated workload, which licenses the shard-result cache
    (:mod:`repro.cache`, a post-paper extension) on large relations.
    """
    n = statistics.tuple_count
    unique = statistics.unique_timestamps
    tree_bytes = estimate_tree_bytes(unique, aggregate)
    list_bytes = estimate_list_bytes(unique, aggregate)

    if declared_k is not None:
        k = max(1, declared_k)
        return PlannerDecision(
            strategy="kordered_tree",
            k=k,
            reason="relation declared retroactively bounded; the k-ordered "
            "tree applies directly with no sort",
            estimated_bytes=estimate_ktree_bytes(
                k, statistics.long_lived_fraction, n, aggregate
            ),
        )

    if repeat_observed and n >= CACHE_MIN_TUPLES:
        return PlannerDecision(
            strategy="cached_sweep",
            shards=available_workers(),
            reason="repeated query signature over a large relation: the "
            "shard-result cache serves unchanged relations from stitched "
            "rows and appends by re-sweeping only dirty shards",
            estimated_bytes=2 * n * EVENT_BYTES,
        )

    if n and unique <= max(2, FEW_INTERVALS_FRACTION * n):
        return PlannerDecision(
            strategy="linked_list",
            reason="very few constant intervals expected (few unique "
            "timestamps); the linked list is adequate and smallest",
            estimated_bytes=list_bytes,
        )

    inflation = _budget_inflation()

    def fits(estimated_bytes: int) -> bool:
        return (
            memory_budget_bytes is None
            or estimated_bytes * inflation <= memory_budget_bytes
        )

    nearly_sorted = n > 0 and statistics.k <= max(
        1, NEARLY_SORTED_FRACTION * n
    )
    event_bytes = 2 * n * EVENT_BYTES
    if memory_cheaper_than_io and fits(event_bytes):
        workers = available_workers()
        value_less = aggregate is None or not aggregate.needs_value
        # From PARALLEL_MIN_TUPLES on, results/BENCH_planner.json has
        # two shards tying or beating one sweep, up to 1.7x — except
        # for COUNT over ordered input, whose two plain int sorts run
        # in near-linear time and whose walk carries no values, so the
        # fan-out's fixed costs made it up to 1.5x slower there.
        if (
            workers > 1
            and n >= partition.PARALLEL_MIN_TUPLES
            and not (value_less and nearly_sorted)
        ):
            return PlannerDecision(
                strategy="parallel_sweep",
                shards=workers,
                reason=f"large input and {workers} cores: time-domain "
                "shards over the columnar sweep",
                estimated_bytes=event_bytes,
            )
        return PlannerDecision(
            strategy="columnar_sweep",
            reason="the sweep's event columns fit in memory: the columnar "
            "event sweep is fastest at any order",
            estimated_bytes=event_bytes,
        )

    # Memory is constrained: the paper's Section 6.3 rules, over the
    # Section 6.2 estimates.
    if statistics.is_totally_ordered:
        return PlannerDecision(
            strategy="kordered_tree",
            k=1,
            reason="relation already sorted and memory constrained; the "
            "k-ordered tree with k=1 keeps a minimal window",
            estimated_bytes=estimate_ktree_bytes(
                1, statistics.long_lived_fraction, n, aggregate
            ),
        )

    if nearly_sorted:
        k = max(1, statistics.k)
        return PlannerDecision(
            strategy="kordered_tree",
            k=k,
            reason=f"relation is {k}-ordered (nearly sorted) and memory "
            "constrained; garbage collection keeps the tree small",
            estimated_bytes=estimate_ktree_bytes(
                k, statistics.long_lived_fraction, n, aggregate
            ),
        )

    if memory_cheaper_than_io and fits(tree_bytes):
        return PlannerDecision(
            strategy="aggregation_tree",
            reason="unordered input; the sweep's event columns exceed the "
            "budget but the aggregation tree fits",
            estimated_bytes=tree_bytes,
        )

    return PlannerDecision(
        strategy="kordered_tree",
        k=1,
        sort_first=True,
        reason="unordered input under a memory constraint: sort first, "
        "then k-ordered tree with k=1 (the paper's simplest strategy)",
        estimated_bytes=estimate_ktree_bytes(
            1, statistics.long_lived_fraction, n, aggregate
        ),
    )
