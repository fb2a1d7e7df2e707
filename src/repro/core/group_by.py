"""Attribute grouping combined with temporal grouping.

TSQL2 aggregates compose a classic GROUP BY with temporal grouping
(paper Section 2): ``SELECT Dept, AVG(Salary) FROM Employed GROUP BY
Dept`` returns, for every department, a *time-varying* average.  This
module implements that composition for instant grouping: the relation
is partitioned by the grouping attribute in one scan
(:func:`~repro.relation.relation.partition_relation`, the same split
the TSQL2 executor's GROUP BY uses), then each partition runs through
:func:`~repro.core.engine.temporal_aggregate`, yielding one
:class:`~repro.core.result.TemporalAggregateResult` per group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate

from repro.core.base import coerce_aggregate
from repro.core.engine import temporal_aggregate
from repro.core.result import TemporalAggregateResult
from repro.relation.relation import TemporalRelation, partition_relation

__all__ = ["GroupedResult", "grouped_temporal_aggregate"]


class GroupedResult:
    """Per-group temporal aggregate results with dict-like access."""

    def __init__(self, groups: Dict[Any, TemporalAggregateResult]) -> None:
        self._groups = dict(groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Any]:
        return iter(sorted(self._groups, key=repr))

    def __getitem__(self, group: Any) -> TemporalAggregateResult:
        return self._groups[group]

    def __contains__(self, group: Any) -> bool:
        return group in self._groups

    def groups(self) -> List[Any]:
        """The grouping-attribute values, sorted for stable output."""
        return sorted(self._groups, key=repr)

    def items(self) -> Iterator[Tuple[Any, TemporalAggregateResult]]:
        for group in self.groups():
            yield group, self._groups[group]

    def value_at(self, group: Any, instant: int) -> Any:
        return self._groups[group].value_at(instant)

    def pretty(self, limit_per_group: int = 10) -> str:
        blocks = []
        for group, result in self.items():
            blocks.append(f"== {group!r} ==")
            blocks.append(result.pretty(limit=limit_per_group))
        return "\n".join(blocks)

    def __repr__(self) -> str:
        return f"GroupedResult({len(self._groups)} groups)"


def grouped_temporal_aggregate(
    relation: TemporalRelation,
    aggregate: "Aggregate | str",
    group_attribute: str,
    value_attribute: Optional[str] = None,
    *,
    strategy: str = "auto",
    k: Optional[int] = None,
) -> GroupedResult:
    """GROUP BY ``group_attribute``, then aggregate each group by instant.

    One counted scan partitions the relation; each partition is a new
    relation, so it is planned on its own (or runs ``strategy``) and
    evaluated uncached.  Partitioning preserves input order within
    each group, so a k-ordered relation yields k-ordered partitions and
    the k-ordered tree remains applicable per group.  With
    ``strategy="auto"`` the planner chooses each group's ``k``, so
    passing one raises ``ValueError``, as in ``temporal_aggregate``.
    """
    if strategy == "auto" and k is not None:
        raise ValueError(
            "strategy 'auto' takes no k parameter: the planner chooses "
            "it; name a strategy to set it"
        )
    aggregate = coerce_aggregate(aggregate)
    if aggregate.needs_value and value_attribute is None:
        raise ValueError(
            f"aggregate {aggregate.name!r} needs a value attribute"
        )
    if value_attribute is not None:
        relation.schema.position_of(value_attribute)

    groups = {}
    for (key,), part in partition_relation(relation, [group_attribute]):
        groups[key] = temporal_aggregate(
            part,
            aggregate,
            value_attribute,
            strategy=strategy,
            k=k,
            use_cache=False,
        )
    return GroupedResult(groups)
