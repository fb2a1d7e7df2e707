"""WHERE, GROUP BY and HAVING on columns against a row-filter oracle.

The executor qualifies rows by narrowing index lists over the columns
and groups row indices by key.  This differential runs random
statements — conjunctions of ``VALID OVERLAPS`` and attribute
comparisons (all six operators over int, float and str attributes),
with and without GROUP BY and HAVING, for all five aggregates — and
checks each answer against the obvious row-at-a-time computation:
filter the rows, group them, evaluate each group with
:class:`~repro.core.reference.ReferenceEvaluator`, filter its rows by
HAVING.  Every statement runs over a plain relation and over a served
pin taken after appends, with the runtime invariant verifier on.
"""

from __future__ import annotations

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import invariants
from repro.core.interval import FOREVER
from repro.core.reference import ReferenceEvaluator
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.snapshots import ServedRelation
from repro.tsql2.executor import Database

SCHEMA = Schema.of("name:str", "salary:int", "score:float")
POSITIONS = {"name": 0, "salary": 1, "score": 2}
OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: Which attributes each aggregate may read (SUM/AVG need numbers).
ARGUMENTS = {
    "count": ("name", "salary", "score"),
    "sum": ("salary", "score"),
    "avg": ("salary", "score"),
    "min": ("name", "salary", "score"),
    "max": ("name", "salary", "score"),
}


@st.composite
def row_lists(draw):
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        start = draw(st.integers(0, 30))
        end = draw(st.one_of(st.integers(start, start + 8), st.just(FOREVER)))
        values = (
            draw(st.sampled_from("abc")),
            draw(st.integers(-3, 3)),
            # Quarters: fractional, yet every sum of them is exact.
            draw(st.integers(-8, 8)) / 4,
        )
        rows.append(TemporalTuple(values, start, end))
    return rows


def literal_for(attribute, draw):
    """A literal of the attribute's kind (the grammar has no negative
    literals; the data does have negative values)."""
    if attribute == "name":
        return draw(st.sampled_from("abc"))
    return draw(st.integers(0, 3))


def spelled(literal):
    return f"'{literal}'" if isinstance(literal, str) else str(literal)


@st.composite
def statements(draw):
    """``(text, conditions, group, (function, argument), having)``."""
    conditions = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            first = draw(st.integers(0, 40))
            conditions.append(("overlaps", first, first + draw(st.integers(0, 12))))
        else:
            attribute = draw(st.sampled_from(sorted(POSITIONS)))
            operator_name = draw(st.sampled_from(sorted(OPERATORS)))
            conditions.append(
                ("compare", attribute, operator_name, literal_for(attribute, draw))
            )
    function = draw(st.sampled_from(sorted(ARGUMENTS)))
    argument = draw(st.sampled_from(ARGUMENTS[function]))
    group = draw(st.sampled_from([None, "name", "salary"]))
    having = None
    if draw(st.booleans()):
        numeric = function in ("count", "sum", "avg") or argument != "name"
        literal = draw(st.integers(0, 3)) if numeric else draw(st.sampled_from("abc"))
        having = (draw(st.sampled_from(sorted(OPERATORS))), literal)

    call = f"{function.upper()}({argument})"
    text = f"SELECT {group + ', ' if group else ''}{call} FROM jobs"
    clauses = [
        f"VALID OVERLAPS [{c[1]}, {c[2]}]" if c[0] == "overlaps"
        else f"{c[1]} {c[2]} {spelled(c[3])}"
        for c in conditions
    ]
    if clauses:
        text += " WHERE " + " AND ".join(clauses)
    if group:
        text += f" GROUP BY {group}"
    if having:
        text += f" HAVING {call} {having[0]} {spelled(having[1])}"
    return text, conditions, group, (function, argument), having


def qualifies(row, conditions):
    for condition in conditions:
        if condition[0] == "overlaps":
            if not (row.start <= condition[2] and condition[1] <= row.end):
                return False
        else:
            _kind, attribute, operator_name, literal = condition
            if not OPERATORS[operator_name](row.values[POSITIONS[attribute]], literal):
                return False
    return True


def oracle(rows, conditions, group, call, having):
    """The statement's answer rows, computed one row at a time."""
    function, argument = call
    kept = [row for row in rows if qualifies(row, conditions)]
    if group is None:
        groups = {(): kept}
    else:
        groups = {}
        for row in kept:
            groups.setdefault((row.values[POSITIONS[group]],), []).append(row)
    answer = []
    for key in sorted(groups, key=repr):
        triples = [
            (row.start, row.end, row.values[POSITIONS[argument]])
            for row in groups[key]
        ]
        result = ReferenceEvaluator(function).evaluate(triples)
        for start, end, value in zip(*result.columns()):
            if having is not None and (
                value is None or not OPERATORS[having[0]](value, having[1])
            ):
                continue
            answer.append((*key, start, end, value))
    return answer


class TestWhereGroupHavingDifferential:
    @settings(max_examples=150, deadline=None)
    @given(rows=row_lists(), statement=statements(), data=st.data())
    def test_columns_match_the_row_filter(self, rows, statement, data):
        text, conditions, group, call, having = statement
        expected = oracle(rows, conditions, group, call, having)

        cut = data.draw(st.integers(0, len(rows)))
        served = ServedRelation(TemporalRelation(SCHEMA, rows[:cut], name="jobs"))
        served.pin()  # a pin before the appends, as a server would hold
        for row in rows[cut:]:
            served.append_batch([row])
        sources = [TemporalRelation(SCHEMA, rows, name="jobs"), served.pin()]

        invariants.enable()
        try:
            for source in sources:
                database = Database()
                database.register(source, name="jobs")
                assert database.execute(text).rows == expected, (text, source)
        finally:
            invariants.reset_to_env()
