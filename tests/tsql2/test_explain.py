"""Tests of EXPLAIN SELECT (the planner surfaced through the language)."""

import pytest

from repro.core.engine import temporal_aggregate
from repro.tsql2.executor import Database
from repro.tsql2.parser import parse
from repro.workload.employed import employed_relation
from repro.workload.generator import WorkloadParameters, generate_relation


@pytest.fixture
def db():
    database = Database()
    database.register(employed_relation())
    database.register(
        generate_relation(WorkloadParameters(tuples=256, seed=77)),
        name="Big",
    )
    return database


def plan_of(result):
    return dict(result.rows)


class TestParsing:
    def test_explain_flag(self):
        assert parse("EXPLAIN SELECT COUNT(N) FROM R").explain
        assert not parse("SELECT COUNT(N) FROM R").explain

    def test_explain_case_insensitive(self):
        assert parse("explain select COUNT(N) from R").explain


class TestExecution:
    def test_plan_columns(self, db):
        result = db.execute("EXPLAIN SELECT COUNT(Name) FROM Employed")
        assert result.columns == ("property", "value")
        plan = plan_of(result)
        assert plan["strategy"] == "columnar_sweep"
        assert plan["qualifying tuples"] == 4
        assert plan["unique timestamps"] == 6

    def test_unordered_relation_plans_columnar_sweep(self, db):
        plan = plan_of(db.execute("EXPLAIN SELECT COUNT(name) FROM Big"))
        assert plan["strategy"] == "columnar_sweep"
        assert plan["estimated structure bytes"] > 0

    def test_unordered_relation_plans_tree(self, db):
        # Under a budget the sweep's 4,096 bytes of event columns do not
        # fit: the paper's sort + k-ordered tree.
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(name) FROM Big", memory_budget_bytes=1024
            )
        )
        assert plan["strategy"] == "kordered_tree"
        assert plan["sort first"] == "yes"
        assert plan["estimated structure bytes"] > 0

    def test_where_clause_affects_statistics(self, db):
        everything = plan_of(db.execute("EXPLAIN SELECT COUNT(name) FROM Big"))
        filtered = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(name) FROM Big WHERE salary > 115_000"
            )
        )
        assert filtered["qualifying tuples"] < everything["qualifying tuples"]

    def test_hint_overrides_planner(self, db):
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(Name) FROM Employed "
                "USING ALGORITHM ktree(k=7)"
            )
        )
        assert plan["strategy"] == "kordered_tree"
        assert plan["k"] == 7
        assert "hint" in plan["reason"]

    def test_explain_does_not_execute(self, db):
        """EXPLAIN over a would-be-slow query returns instantly with a
        plan, not rows of constant intervals."""
        result = db.execute("EXPLAIN SELECT COUNT(name) FROM Big")
        assert "valid_start" not in result.columns

    def test_having_calls_counted(self, db):
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(Name) FROM Employed "
                "HAVING MAX(Salary) > 0"
            )
        )
        assert plan["aggregate calls"] == 2


class TestPlanMatchesEngine:
    """EXPLAIN reports the plan ``temporal_aggregate`` runs: the
    planner sees the first call's aggregate (MIN's heap walk gets the
    sharded sweep on a multi-core host where COUNT keeps the single
    sweep)."""

    @pytest.mark.parametrize(
        "function, argument", [("MIN", "salary"), ("COUNT", "name")]
    )
    def test_strategy_matches_temporal_aggregate(
        self, db, monkeypatch, function, argument
    ):
        monkeypatch.setattr("repro.core.partition.PARALLEL_MIN_TUPLES", 128)
        plan = plan_of(
            db.execute(f"EXPLAIN SELECT {function}({argument}) FROM Big")
        )
        _result, decision = temporal_aggregate(
            db.relation("Big"), function.lower(), argument, explain=True
        )
        assert plan["strategy"] == decision.strategy

