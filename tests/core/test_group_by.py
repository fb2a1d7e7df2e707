"""Tests of attribute grouping composed with instant grouping."""

import pytest

from repro.core.group_by import grouped_temporal_aggregate
from repro.core.interval import FOREVER
from repro.relation.relation import TemporalRelation


class TestGroupedAggregate:
    def test_employed_by_name(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        assert set(grouped.groups()) == {"Richard", "Karen", "Nathan"}

    def test_group_timelines_are_independent(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        nathan = grouped["Nathan"]
        assert nathan.value_at(10) == 1
        assert nathan.value_at(15) == 0  # the [13,17] gap
        assert nathan.value_at(20) == 1
        richard = grouped["Richard"]
        assert richard.value_at(10) == 0
        assert richard.value_at(10**7) == 1

    def test_value_aggregate_per_group(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "avg", group_attribute="name", value_attribute="salary"
        )
        assert grouped.value_at("Nathan", 20) == pytest.approx(37_000)
        assert grouped.value_at("Karen", 10) == pytest.approx(45_000)
        assert grouped.value_at("Karen", 25) is None

    def test_each_group_partitions_timeline(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        for _group, result in grouped.items():
            result.verify_partition(full_cover=True)
            assert result[0].start == 0
            assert result[-1].end == FOREVER

    def test_group_union_matches_ungrouped_count(self, small_random_relation):
        """Per-group counts sum to the ungrouped count at any instant."""
        from repro.core.engine import temporal_aggregate

        grouped = grouped_temporal_aggregate(
            small_random_relation, "count", group_attribute="name"
        )
        total = temporal_aggregate(small_random_relation, "count")
        for instant in (0, 1000, 250_000, 999_999):
            summed = sum(
                grouped.value_at(group, instant) for group in grouped.groups()
            )
            assert summed == total.value_at(instant)

    def test_strategy_and_k_forwarded(self, employed):
        grouped = grouped_temporal_aggregate(
            employed,
            "count",
            group_attribute="name",
            strategy="kordered_tree",
            k=4,
        )
        assert grouped["Nathan"].value_at(10) == 1

    @pytest.mark.parametrize("empty", [False, True], ids=["employed", "empty"])
    def test_auto_strategy_refuses_k(self, employed, empty):
        relation = TemporalRelation(employed.schema, []) if empty else employed
        with pytest.raises(ValueError, match="the planner chooses"):
            grouped_temporal_aggregate(
                relation, "count", group_attribute="name", k=4
            )

    def test_value_aggregate_requires_value_attribute(self, employed):
        with pytest.raises(ValueError, match="value attribute"):
            grouped_temporal_aggregate(employed, "sum", group_attribute="name")

    def test_unknown_group_attribute(self, employed):
        from repro.relation.schema import SchemaError

        with pytest.raises(SchemaError):
            grouped_temporal_aggregate(employed, "count", group_attribute="dept")


class TestGroupedResultContainer:
    def test_container_protocol(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        assert len(grouped) == 3
        assert "Karen" in grouped
        assert "Nobody" not in grouped
        assert sorted(iter(grouped)) == ["Karen", "Nathan", "Richard"]
        with pytest.raises(KeyError):
            grouped["Nobody"]

    def test_pretty_mentions_groups(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        text = grouped.pretty()
        assert "'Karen'" in text and "'Richard'" in text

    def test_items_sorted_for_determinism(self, employed):
        grouped = grouped_temporal_aggregate(
            employed, "count", group_attribute="name"
        )
        names = [group for group, _ in grouped.items()]
        assert names == sorted(names, key=repr)
