"""Differential test: the column-wise select-item and HAVING shaper
against the per-row interpreter it replaced.

:func:`reference_execute` keeps that interpreter (``_item_rows``,
``_evaluate_item``, ``_having_holds`` and ``_drop_empty``, unchanged in
behaviour) and feeds it per-call results from the brute-force
:class:`~repro.core.reference.ReferenceEvaluator`.  On random relations
and random statements — all five aggregates, ``+ - * /`` over calls
and literals, NULL operands from empty intervals, division by a zero
COUNT or literal, HAVING with every comparator, ``keep_empty`` both
ways, instant, attribute and span grouping — ``Database.execute`` must
return the same column names and rows.

Each statement runs three times: planned, then twice forced onto the
shard-result cache (a ``cached_sweep`` strategy override, since the
planner only picks the cache on large relations), so both a miss and
a column-backed pure hit get shaped.
"""

import operator
from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.store import default_cache
from repro.core.interval import FOREVER, Interval
from repro.core.reference import ReferenceEvaluator
from repro.core.span_grouping import span_aggregate
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Attribute, Schema
from repro.tsql2.ast import AggregateCall, BinaryOp, ColumnRef, Literal, Query
from repro.tsql2.executor import Database
from repro.tsql2.parser import parse

# ---------------------------------------------------------------------------
# The per-row interpreter
# ---------------------------------------------------------------------------

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _output_items(query: Query) -> List[Any]:
    return [item for item in query.select if not isinstance(item, ColumnRef)]


def _evaluate_item(item: Any, values: Dict[AggregateCall, Any]) -> Any:
    """One select item over one constant interval's per-call values.
    NULL (None) propagates; division by zero yields NULL."""
    if isinstance(item, AggregateCall):
        return values[item]
    if isinstance(item, Literal):
        return item.value
    if isinstance(item, BinaryOp):
        left = _evaluate_item(item.left, values)
        right = _evaluate_item(item.right, values)
        if left is None or right is None:
            return None
        if item.operator == "+":
            return left + right
        if item.operator == "-":
            return left - right
        if item.operator == "*":
            return left * right
        if right == 0:
            return None
        return left / right
    raise AssertionError(f"unexpected select item {item!r}")


def _having_holds(query: Query, values: Dict[AggregateCall, Any]) -> bool:
    """A NULL aggregate value satisfies no comparison."""
    for condition in query.having:
        left = _evaluate_item(condition.item, values)
        if left is None:
            return False
        if not _COMPARATORS[condition.operator](left, condition.literal):
            return False
    return True


def _item_rows(query: Query, results: Dict[AggregateCall, Any]) -> List[Tuple]:
    calls = list(results)
    if not calls:
        return []
    boundaries = [(r.start, r.end) for r in results[calls[0]]]
    for call in calls[1:]:
        if [(r.start, r.end) for r in results[call]] != boundaries:
            raise AssertionError("aggregate calls disagree on constant intervals")
    items = _output_items(query)
    table = []
    for index, (start, end) in enumerate(boundaries):
        values = {call: results[call][index].value for call in calls}
        if not _having_holds(query, values):
            continue
        table.append(
            (start, end) + tuple(_evaluate_item(item, values) for item in items)
        )
    return table


def _drop_empty(query: Query, width: int, rows: List[Tuple]) -> List[Tuple]:
    items = _output_items(query)
    empties = [
        0 if isinstance(item, AggregateCall) and item.function == "count" else None
        for item in items
    ]
    output_slots = range(width - len(items), width)
    return [
        row
        for row in rows
        if not all(row[slot] == empty for slot, empty in zip(output_slots, empties))
    ]


def reference_execute(
    relation: TemporalRelation, text: str, keep_empty: bool
) -> Tuple[Tuple[str, ...], List[Tuple]]:
    """Column names and rows of ``text``, shaped row by row."""
    query = parse(text)
    schema = relation.schema

    def results_over(rows: List[Any]) -> Dict[AggregateCall, Any]:
        results: Dict[AggregateCall, Any] = {}
        for call in query.aggregate_calls():
            extract = relation.value_extractor(call.argument)
            triples = [(row.start, row.end, extract(row)) for row in rows]
            if query.group_by.kind == "span":
                results[call] = span_aggregate(
                    triples, call.function, Interval(*query.group_by.window),
                    query.group_by.span,
                )
            else:
                results[call] = ReferenceEvaluator(call.function).evaluate(triples)
        return results

    labels = [item.label() for item in _output_items(query)]
    positions = [schema.position_of(name) for name in query.group_by.attributes]
    columns = (
        [schema.attributes[p].name for p in positions]
        + ["valid_start", "valid_end"]
        + labels
    )
    rows = list(relation)
    if positions:
        partitions: Dict[Tuple, List[Any]] = {}
        for row in rows:
            key = tuple(row.values[p] for p in positions)
            partitions.setdefault(key, []).append(row)
        table = [
            key + shaped
            for key in sorted(partitions, key=repr)
            for shaped in _item_rows(query, results_over(partitions[key]))
        ]
    else:
        table = _item_rows(query, results_over(rows))
    if not keep_empty:
        table = _drop_empty(query, len(columns), table)
    return tuple(columns), table


# ---------------------------------------------------------------------------
# Random relations and statements
# ---------------------------------------------------------------------------

SCHEMA = Schema(
    (Attribute("name", "str", 8), Attribute("dept", "str", 8), Attribute("salary", "int"))
)

CALLS = ("COUNT(name)", "SUM(salary)", "AVG(salary)", "MIN(salary)", "MAX(salary)")

LEAVES = st.one_of(st.sampled_from(CALLS), st.integers(0, 3).map(str))

EXPRESSIONS = st.recursive(
    LEAVES,
    lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"
    ),
    max_leaves=4,
)


@st.composite
def relations(draw: st.DrawFn) -> List[Tuple[Tuple[str, str, int], int, int]]:
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        start = draw(st.integers(0, 40))
        end = draw(st.one_of(st.integers(start, 60), st.just(FOREVER)))
        values = (
            draw(st.sampled_from(("ann", "bob", "cy"))),
            draw(st.sampled_from(("x", "y"))),
            draw(st.integers(-2, 5)),
        )
        rows.append((values, start, end))
    return rows


@st.composite
def statements(draw: st.DrawFn) -> str:
    items = draw(st.lists(EXPRESSIONS, min_size=1, max_size=3))
    having = draw(
        st.lists(
            st.tuples(EXPRESSIONS, st.sampled_from(sorted(_COMPARATORS)), st.integers(0, 4)),
            max_size=2,
        )
    )
    mentioned = " ".join(items + [item for item, _op, _literal in having])
    if not any(call in mentioned for call in CALLS):
        items.insert(0, draw(st.sampled_from(CALLS)))
    grouping = draw(st.sampled_from(("instant", "attribute", "span")))
    select = ", ".join(items)
    group = ""
    if grouping == "attribute":
        select = f"dept, {select}"
        group = " GROUP BY dept"
    elif grouping == "span":
        lo = draw(st.integers(0, 30))
        group = (
            f" GROUP BY SPAN {draw(st.integers(1, 12))} "
            f"[{lo}, {lo + draw(st.integers(0, 40))}]"
        )
    text = f"SELECT {select} FROM staff{group}"
    if having:
        text += " HAVING " + " AND ".join(
            f"{item} {op} {literal}" for item, op, literal in having
        )
    return text


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(rows=relations(), text=statements(), keep_empty=st.booleans())
def test_shaper_matches_the_per_row_interpreter(rows, text, keep_empty):
    relation = TemporalRelation.from_rows(SCHEMA, rows, name="staff")
    database = Database()
    database.register(relation)
    want_columns, want_rows = reference_execute(relation, text, keep_empty)

    got = database.execute(text, keep_empty=keep_empty)
    assert got.columns == want_columns
    assert got.rows == want_rows

    cache = default_cache()
    for _ in range(2):
        hits = cache.counters.cache_hits
        got = database.execute(
            text + " USING ALGORITHM cached_sweep", keep_empty=keep_empty
        )
        assert got.columns == want_columns
        assert got.rows == want_rows
    query = parse(text)
    if query.group_by.kind == "instant" and not query.group_by.attributes:
        # The second cached run served every call from the cache.
        assert cache.counters.cache_hits - hits == len(query.aggregate_calls())
