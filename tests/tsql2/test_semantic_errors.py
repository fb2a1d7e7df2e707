"""Semantic-error coverage for the TSQL2-lite executor."""

import pytest

from repro.relation.relation import TemporalRelation
from repro.tsql2.executor import Database, TSQL2SemanticError
from repro.workload.employed import employed_relation


@pytest.fixture
def db():
    database = Database()
    database.register(employed_relation())
    return database


class TestTableResolution:
    def test_unknown_table(self, db):
        with pytest.raises(TSQL2SemanticError, match="unknown relation"):
            db.execute("SELECT COUNT(Name) FROM Payroll")

    def test_error_lists_registered_tables(self, db):
        with pytest.raises(TSQL2SemanticError, match="employed"):
            db.execute("SELECT COUNT(Name) FROM Payroll")

    def test_register_under_alias(self, db):
        db.register(employed_relation(), name="Staff")
        assert len(db.execute("SELECT COUNT(Name) FROM Staff")) == 7

    def test_empty_database(self):
        with pytest.raises(TSQL2SemanticError, match=r"\(none\)"):
            Database().execute("SELECT COUNT(Name) FROM R")


class TestAttributeChecks:
    def test_unknown_aggregate_argument(self, db):
        with pytest.raises(TSQL2SemanticError, match="not an attribute"):
            db.execute("SELECT COUNT(Bonus) FROM Employed")

    def test_unknown_where_attribute(self, db):
        with pytest.raises(TSQL2SemanticError, match="WHERE attribute"):
            db.execute("SELECT COUNT(Name) FROM Employed WHERE Bonus > 0")

    def test_unknown_group_attribute(self, db):
        with pytest.raises(TSQL2SemanticError, match="GROUP BY attribute"):
            db.execute("SELECT COUNT(Name) FROM Employed GROUP BY Dept")

    def test_value_aggregate_rejects_star(self, db):
        with pytest.raises(TSQL2SemanticError, match="needs an attribute"):
            db.execute("SELECT AVG(*) FROM Employed")

    def test_count_star_allowed(self, db):
        assert len(db.execute("SELECT COUNT(*) FROM Employed")) == 7


class TestSelectListRules:
    def test_bare_column_must_be_grouped(self, db):
        with pytest.raises(TSQL2SemanticError, match="GROUP BY"):
            db.execute("SELECT Name, COUNT(Salary) FROM Employed")

    def test_grouped_column_allowed(self, db):
        result = db.execute(
            "SELECT Name, COUNT(Salary) FROM Employed GROUP BY Name"
        )
        assert result.columns[0] == "name"

    def test_query_without_aggregate_rejected(self, db):
        with pytest.raises(TSQL2SemanticError, match="aggregate"):
            db.execute("SELECT Name FROM Employed GROUP BY Name")


class TestTypeRefusals:
    """A statement whose types cannot work is refused from the schema,
    before any row is read — over an empty relation too."""

    STATEMENTS = [
        "SELECT COUNT(name) FROM Employed WHERE salary > 'abc'",
        "SELECT COUNT(name) FROM Employed WHERE name > 5",
        "SELECT COUNT(name) FROM Employed HAVING COUNT(name) > 'x'",
        "SELECT MAX(name) FROM Employed HAVING MAX(name) > 3",
        "SELECT SUM(name) FROM Employed",
        "SELECT AVG(name) FROM Employed",
        "SELECT MAX(name) + 1 FROM Employed",
        "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [10, 5]",
    ]

    @pytest.mark.parametrize("empty", [False, True], ids=["employed", "empty"])
    @pytest.mark.parametrize("text", STATEMENTS)
    def test_refused_before_any_row_is_read(self, text, empty):
        relation = employed_relation()
        if empty:
            relation = TemporalRelation(relation.schema, name="Employed")
        database = Database()
        database.register(relation)
        with pytest.raises(TSQL2SemanticError):
            database.execute(text)
        assert relation.scan_count == 0

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT COUNT(name) FROM Employed WHERE name = 'Karen'",
            "SELECT COUNT(name) FROM Employed WHERE salary <> 40000",
            "SELECT MIN(name) FROM Employed HAVING MIN(name) >= 'K'",
            "SELECT MAX(salary) - MIN(salary) FROM Employed HAVING COUNT(name) > 1",
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [5, 5]",
        ],
    )
    def test_well_typed_statements_still_run(self, db, text):
        assert len(db.execute(text)) >= 1
