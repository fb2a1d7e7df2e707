"""Executor: runs TSQL2-lite queries against registered relations.

The executor glues the query language to the evaluation engine:

1. parse the query text (a caller that parsed it already, as the query
   server does at admission, passes the :class:`~repro.tsql2.ast.Query`);
2. semantic checks, before any row is read (table and attributes
   exist, bare select columns are grouped, span grouping has a bounded
   window, hinted algorithms are known, and the types work: literals
   match the attribute or item they are compared with, SUM/AVG read
   numeric attributes, arithmetic has numeric operands, windows start
   by their end);
3. pick the statement's one source relation: the registered relation
   itself, or one relation of the rows the WHERE qualification keeps.
   The qualification runs on the columns: each condition narrows a
   list of row indices (``VALID OVERLAPS`` on the start/end columns, a
   comparison on the attribute's column), and the qualifying relation
   takes the surviving rows.  GROUP BY groups row indices by key and
   takes one relation per partition;
4. evaluate every aggregate call through
   :func:`~repro.core.engine.temporal_aggregate` with the hinted
   algorithm — or the Section 6.3 planner's choice for that aggregate
   — and line up the per-aggregate results (all aggregates over the
   same tuples share the same constant intervals, so lining them up
   is sound);
5. shape the select items and HAVING column by column — compiled once
   per statement (:class:`_Shaper`) — into a :class:`QueryResult`
   table with the valid time exposed as ``valid_start`` /
   ``valid_end`` columns.
"""

from __future__ import annotations

import operator
from array import array
from itertools import compress, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.base import coerce_aggregate
from repro.core.engine import STRATEGIES, temporal_aggregate
from repro.core.interval import FOREVER, Interval, format_instant
from repro.core.calendar import CalendarError, calendar_span_aggregate
from repro.core.planner import choose_strategy, named_plan
from repro.core.result import TemporalAggregateResult
from repro.core.span_grouping import span_aggregate
from repro.exec.deadline import Deadline
from repro.relation.relation import ColumnarRows, partition_relation, space_counts
from repro.relation.schema import Schema
from repro.tsql2.ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Comparison,
    Literal,
    Query,
    ValidOverlaps,
)
from repro.tsql2.parser import parse

__all__ = ["Database", "QueryResult", "TSQL2SemanticError"]

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Friendly strategy aliases accepted in USING ALGORITHM hints.
_STRATEGY_ALIASES = {
    "ktree": "kordered_tree",
    "tree": "aggregation_tree",
    "list": "linked_list",
    "linked": "linked_list",
    "balanced": "balanced_tree",
    "paged": "paged_tree",
    "tuma": "two_pass",
    "sort_merge": "sweep",
}


class TSQL2SemanticError(ValueError):
    """A well-formed query that cannot be executed (unknown table,
    unknown attribute, ungrouped select column, ...)."""


def _strategy(query: Query) -> Tuple[str, Optional[int]]:
    """The statement's ``(strategy, k)`` for every aggregate call.

    The USING ALGORITHM hint, resolved through the aliases and checked,
    else ``"auto"`` for the Section 6.3 planner; ``k`` only for the
    k-ordered tree.
    """
    if query.hint is None:
        return "auto", None
    name = query.hint.strategy
    strategy = _STRATEGY_ALIASES.get(name, name)
    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise TSQL2SemanticError(f"unknown algorithm {name!r}; known: {known}")
    return strategy, query.hint.k if strategy == "kordered_tree" else None


class QueryResult:
    """A flat result table with named columns, held column by column.

    Temporal grouping exposes the valid time of each row as
    ``valid_start`` / ``valid_end`` columns; attribute grouping
    prepends the grouping attributes.  ``data`` holds one sequence per
    column name; the row tuples are built once, on the first read of
    :attr:`rows` (or iteration, or indexing).
    """

    def __init__(
        self, columns: Sequence[str], data: Sequence[Sequence[Any]]
    ) -> None:
        if len(data) != len(columns):
            raise ValueError(
                f"{len(data)} data columns for {len(columns)} column names"
            )
        self.columns = tuple(columns)
        self._data = list(data)
        self._rows: Optional[List[Tuple]] = None

    @property
    def rows(self) -> List[Tuple]:
        """The rows as tuples, built from the columns on first read."""
        if self._rows is None:
            self._rows = list(zip(*self._data))
        return self._rows

    @property
    def data(self) -> List[Sequence[Any]]:
        """One sequence per column, in column order: the stored columns
        themselves, no rows built.  Callers must not mutate them."""
        return self._data

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> Tuple:
        return self.rows[index]

    def column(self, name: str) -> Sequence[Any]:
        """All values of one column: the stored column itself (an
        ``array('q')`` for ``valid_start`` / ``valid_end``), no rows
        built.  Callers must not mutate it."""
        try:
            position = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; columns are {self.columns}"
            ) from None
        return self._data[position]

    def _render_cell(self, column: str, value: Any) -> str:
        if column in ("valid_start", "valid_end") and isinstance(value, int):
            return format_instant(value)
        return str(value)

    def pretty(self, limit: int = 40) -> str:
        rendered = [
            [self._render_cell(c, v) for c, v in zip(self.columns, row)]
            for row in self.rows[:limit]
        ]
        widths = [
            max(len(column), *(len(row[i]) for row in rendered), 1)
            if rendered
            else len(column)
            for i, column in enumerate(self.columns)
        ]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [header, "-+-".join("-" * w for w in widths)]
        for row in rendered:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "| " + " | ".join("---" for _ in self.columns) + " |",
        ]
        for row in self.rows:
            cells = [
                self._render_cell(c, v) for c, v in zip(self.columns, row)
            ]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QueryResult({len(self)} rows, columns={self.columns})"


# ---------------------------------------------------------------------------
# Select items and HAVING, column-wise
# ---------------------------------------------------------------------------

#: One statement's aggregate value columns, per call, over shared
#: constant intervals.
CallColumns = Dict[AggregateCall, Sequence[Any]]

#: A compiled select item: the call columns and the row count in, the
#: item's output column out.
ItemColumn = Callable[[CallColumns, int], Sequence[Any]]


#: SQL arithmetic on one cell pair: NULL (None) propagates, and
#: division by zero yields NULL.
_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda left, right: None if left is None or right is None else left + right,
    "-": lambda left, right: None if left is None or right is None else left - right,
    "*": lambda left, right: None if left is None or right is None else left * right,
    "/": lambda left, right: (
        None if left is None or right is None or right == 0 else left / right
    ),
}


def _compile_item(item: Any) -> ItemColumn:
    """One select item (or HAVING operand) as a column-wise function."""
    if isinstance(item, AggregateCall):
        return lambda calls, count: calls[item]
    if isinstance(item, Literal):
        value = item.value
        return lambda calls, count: [value] * count
    if isinstance(item, BinaryOp):
        apply = _ARITHMETIC[item.operator]
        left = _compile_item(item.left)
        right = _compile_item(item.right)
        return lambda calls, count: list(
            map(apply, left(calls, count), right(calls, count))
        )
    raise AssertionError(f"unexpected select item {item!r}")


def _kept(column: Sequence[Any], keep: List[Any]) -> Sequence[Any]:
    """The cells of ``column`` whose ``keep`` flag is true."""
    if isinstance(column, array):
        return array(column.typecode, compress(column, keep))
    return list(compress(column, keep))


class _Shaper:
    """A statement's select items, HAVING and empty-row presentation,
    compiled once and applied column by column to each timeline."""

    def __init__(self, query: Query, keep_empty: bool) -> None:
        # Every select item but the grouped bare columns, which the
        # grouped path puts first.
        items = [item for item in query.select if not isinstance(item, ColumnRef)]
        #: Column names of the shaped timeline.
        self.columns = ["valid_start", "valid_end"] + [item.label() for item in items]
        self.items = [_compile_item(item) for item in items]
        self.having = [
            (_compile_item(condition.item), _COMPARATORS[condition.operator],
             condition.literal)
            for condition in query.having
        ]
        #: Per output item, the value of an empty group (0 for COUNT,
        #: NULL otherwise); None keeps empty rows.
        self.empties: Optional[List[Any]] = None if keep_empty else [
            0 if isinstance(item, AggregateCall) and item.function == "count"
            else None
            for item in items
        ]

    def shape(
        self, results: Dict[AggregateCall, TemporalAggregateResult]
    ) -> List[Sequence[Any]]:
        """``[valid_start, valid_end, *items]`` columns of one timeline."""
        starts, ends, _values = next(iter(results.values())).columns()
        calls: CallColumns = {}
        for call, result in results.items():
            call_starts, call_ends, calls[call] = result.columns()
            if call_starts != starts or call_ends != ends:
                raise AssertionError(
                    "aggregate calls disagree on constant intervals"
                )
        count = len(starts)
        # SQL semantics: a NULL aggregate value satisfies no comparison.
        # Conditions filter in order, each over the rows the previous
        # ones kept.
        for item, compare, literal in self.having:
            keep = [
                value is not None and compare(value, literal)
                for value in item(calls, count)
            ]
            if not all(keep):
                starts, ends = _kept(starts, keep), _kept(ends, keep)
                calls = {call: _kept(column, keep) for call, column in calls.items()}
                count = len(starts)
        shaped = [starts, ends] + [item(calls, count) for item in self.items]
        if self.empties is not None:
            empties = self.empties
            cells = zip(*shaped[2:]) if self.items else repeat((), count)
            keep = [not all(map(operator.eq, row, empties)) for row in cells]
            if not all(keep):
                shaped = [_kept(column, keep) for column in shaped]
        return shaped


# ---------------------------------------------------------------------------
# Type checks
# ---------------------------------------------------------------------------

#: Aggregates that need a numeric attribute (and yield a number).
_NUMERIC_ARGUMENT = frozenset({"sum", "avg", "variance", "stddev"})

#: Aggregates that yield a number (a bool for ANY/EVERY) whatever they read.
_NUMERIC_RESULT = _NUMERIC_ARGUMENT | {"count", "any", "every"}


def _attribute_kind(schema: Schema, name: str) -> str:
    """``"numeric"`` for int and float attributes, else ``"string"``."""
    return "string" if schema.attribute(name).type == "str" else "numeric"


def _literal_kind(value: Any) -> str:
    return "string" if isinstance(value, str) else "numeric"


def _item_kind(item: Any, schema: Schema) -> Optional[str]:
    """The kind of value a select item or HAVING operand yields: COUNT
    is numeric, SUM/AVG numeric, MIN/MAX the attribute's kind, and
    arithmetic numeric over numeric operands only.  None for an
    aggregate whose result type is not known here."""
    if isinstance(item, Literal):
        return _literal_kind(item.value)
    if isinstance(item, AggregateCall):
        if item.function in _NUMERIC_RESULT:
            return "numeric"
        if item.function in ("min", "max") and item.argument is not None:
            return _attribute_kind(schema, item.argument)
        return None
    if isinstance(item, BinaryOp):
        for operand in (item.left, item.right):
            if _item_kind(operand, schema) == "string":
                raise TSQL2SemanticError(
                    f"arithmetic {item.label()!r} needs numeric operands; "
                    f"{operand.label()} is a string"
                )
        return "numeric"
    return None


def _check_window(window: Tuple[int, int], clause: str) -> None:
    if window[0] > window[1]:
        raise TSQL2SemanticError(
            f"{clause} window [{window[0]}, {window[1]}] starts after it ends"
        )


def _check_types(query: Query, schema: Schema) -> None:
    """Refuse a statement whose types cannot work, before any row is
    read: numeric attributes compare only with numeric literals and
    string attributes with string literals (``=`` and ``<>``
    included), SUM/AVG read numeric attributes, HAVING and arithmetic
    operands take their item's kind, and a window starts by its end."""
    for call in query.aggregate_calls():
        if (
            call.function in _NUMERIC_ARGUMENT
            and call.argument is not None
            and _attribute_kind(schema, call.argument) != "numeric"
        ):
            raise TSQL2SemanticError(
                f"{call.label()} needs a numeric attribute; "
                f"{call.argument!r} is a string"
            )
    for condition in query.where:
        if isinstance(condition, ValidOverlaps):
            _check_window((condition.start, condition.end), "VALID OVERLAPS")
            continue
        kind = _attribute_kind(schema, condition.attribute)
        if _literal_kind(condition.literal) != kind:
            raise TSQL2SemanticError(
                f"WHERE {condition.attribute} {condition.operator} "
                f"{condition.literal!r} compares a {kind} attribute with a "
                f"{_literal_kind(condition.literal)} literal"
            )
    for item in query.select:
        _item_kind(item, schema)
    for having in query.having:
        kind = _item_kind(having.item, schema)
        if kind is not None and _literal_kind(having.literal) != kind:
            raise TSQL2SemanticError(
                f"HAVING {having.item.label()} {having.operator} "
                f"{having.literal!r} compares a {kind} value with a "
                f"{_literal_kind(having.literal)} literal"
            )
    if query.group_by.window is not None:
        _check_window(query.group_by.window, "GROUP BY SPAN")


class Database:
    """A named collection of temporal relations accepting TSQL2-lite."""

    def __init__(self) -> None:
        self._relations: Dict[str, ColumnarRows] = {}

    def register(
        self, relation: ColumnarRows, name: Optional[str] = None
    ) -> None:
        """Make ``relation`` (a relation, or a served snapshot view)
        queryable under ``name`` (default: its own)."""
        self._relations[(name or relation.name).lower()] = relation

    def relation(self, name: str) -> ColumnarRows:
        try:
            return self._relations[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._relations)) or "(none)"
            raise TSQL2SemanticError(
                f"unknown relation {name!r}; registered: {known}"
            ) from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        statement: Union[str, Query],
        *,
        keep_empty: bool = True,
        deadline_ms: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> QueryResult:
        """Run one query: its text, parsed here, or an already parsed
        :class:`~repro.tsql2.ast.Query`.

        ``keep_empty=False`` drops rows whose aggregate values are all
        empty (None, or 0 for COUNT) — TSQL2's presentation of Table 1.

        ``deadline_ms`` bounds the whole statement: one wall-clock
        budget, started here, shared by every aggregate call; a
        tripped deadline raises
        :class:`~repro.exec.errors.DeadlineExceeded`.
        ``memory_budget_bytes`` is decided before anything runs: each
        aggregate call runs a plan whose memory bound fits it, and
        :class:`~repro.exec.errors.BudgetExhausted` is raised when no
        plan's bound does (:mod:`repro.core.planner`).
        """
        deadline = Deadline.after_ms(deadline_ms)
        query = parse(statement) if isinstance(statement, str) else statement
        relation = self.relation(query.table)
        self._check_semantics(query, relation)
        strategy, k = _strategy(query)
        source = relation
        if query.where:
            source = relation.take(
                self._apply_where(query, relation), name="qualifying"
            )

        if query.explain:
            return self._explain(query, source, strategy, k, memory_budget_bytes)

        shaper = _Shaper(query, keep_empty)
        if query.group_by.kind == "span":
            return self._execute_span(query, source, shaper, deadline)
        if query.group_by.attributes:
            return self._execute_grouped(
                query, source, shaper, strategy, k, deadline, memory_budget_bytes
            )
        # A qualifying relation is new every statement: caching it
        # would only churn the repeat set and store unhittable entries.
        results = self._aggregate(
            query, source, strategy, k, deadline, memory_budget_bytes,
            use_cache=not query.where,
        )
        return QueryResult(shaper.columns, shaper.shape(results))

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def _explain(
        self,
        query: Query,
        source: ColumnarRows,
        strategy: str,
        k: Optional[int],
        memory_budget_bytes: Optional[int],
    ) -> QueryResult:
        """The plan of the statement's first aggregate call, without
        executing it: the Section 6.3 planner's choice for that
        aggregate under the statement's memory budget, or the hinted
        strategy, charged its memory bound.  Under a budget no plan
        fits, it raises the :class:`~repro.exec.errors.BudgetExhausted`
        running the statement would.  It is the plan of a first run; a
        repeat of an unfiltered statement over a large relation is
        licensed onto ``cached_sweep`` by the engine's repeat
        detection."""
        statistics = source.statistics()
        aggregate = coerce_aggregate(query.aggregate_calls()[0].function)
        columns = source.columns(None)
        counts = space_counts(columns.starts, columns.ends)
        if strategy == "auto":
            decision = choose_strategy(
                statistics,
                aggregate=aggregate,
                memory_budget_bytes=memory_budget_bytes,
                counts=counts,
            )
        else:
            decision = named_plan(
                strategy,
                k=k,
                aggregate=aggregate,
                memory_budget_bytes=memory_budget_bytes,
                counts=counts,
                reason="strategy forced by USING ALGORITHM hint",
            )
        table = [
            ("strategy", decision.strategy),
            ("k", decision.k if decision.k is not None else ""),
            ("sort first", "yes" if decision.sort_first else "no"),
            ("reason", decision.reason),
            ("estimated structure bytes", decision.estimated_bytes),
            ("qualifying tuples", statistics.tuple_count),
            ("unique timestamps", statistics.unique_timestamps),
            ("measured k-orderedness", statistics.k),
            ("long-lived fraction", round(statistics.long_lived_fraction, 3)),
            ("aggregate calls", len(query.aggregate_calls())),
        ]
        return QueryResult(["property", "value"], [list(column) for column in zip(*table)])

    # ------------------------------------------------------------------
    # Checks and filtering
    # ------------------------------------------------------------------

    def _check_semantics(self, query: Query, relation: ColumnarRows) -> None:
        schema = relation.schema
        for call in query.aggregate_calls():
            aggregate = coerce_aggregate(call.function)
            if call.argument is not None and not schema.has_attribute(call.argument):
                raise TSQL2SemanticError(
                    f"aggregate argument {call.argument!r} is not an attribute "
                    f"of {query.table!r}"
                )
            if aggregate.needs_value and call.argument is None:
                raise TSQL2SemanticError(
                    f"{call.label()} needs an attribute argument, not '*'"
                )
        if not query.aggregate_calls():
            raise TSQL2SemanticError(
                "TSQL2-lite queries must contain at least one aggregate call"
            )
        grouped = {name.lower() for name in query.group_by.attributes}
        for ref in query.column_refs():
            if ref.name.lower() not in grouped:
                raise TSQL2SemanticError(
                    f"select column {ref.name!r} must appear in GROUP BY"
                )
        for name in query.group_by.attributes:
            if not schema.has_attribute(name):
                raise TSQL2SemanticError(
                    f"GROUP BY attribute {name!r} is not an attribute of "
                    f"{query.table!r}"
                )
        for condition in query.where:
            if isinstance(condition, Comparison) and not schema.has_attribute(
                condition.attribute
            ):
                raise TSQL2SemanticError(
                    f"WHERE attribute {condition.attribute!r} is not an "
                    f"attribute of {query.table!r}"
                )
        _check_types(query, schema)

    def _apply_where(self, query: Query, relation: ColumnarRows) -> List[int]:
        """The row indices of ``relation`` the WHERE qualification keeps.

        Conditions apply in order, each over the rows the previous ones
        kept: ``VALID OVERLAPS`` on the start and end columns, a
        comparison on the attribute's column.
        """
        kept: Sequence[int] = range(len(relation))
        for condition in query.where:
            if isinstance(condition, ValidOverlaps):
                timestamps = relation.columns(None)
                starts, ends = timestamps.starts, timestamps.ends
                first, last = condition.start, condition.end
                kept = [i for i in kept if starts[i] <= last and first <= ends[i]]
            else:
                column = relation.columns(condition.attribute).values
                cells = map(column.__getitem__, kept)
                passes = map(
                    _COMPARATORS[condition.operator], cells, repeat(condition.literal)
                )
                kept = list(compress(kept, passes))
        return list(kept)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _aggregate(
        self,
        query: Query,
        source: ColumnarRows,
        strategy: str,
        k: Optional[int],
        deadline: Optional[Deadline],
        memory_budget_bytes: Optional[int],
        use_cache: bool,
    ) -> Dict[AggregateCall, TemporalAggregateResult]:
        """One :func:`temporal_aggregate` call per distinct aggregate
        call over ``source`` — the statement's only evaluation path."""
        results: Dict[AggregateCall, TemporalAggregateResult] = {}
        for call in query.aggregate_calls():
            if deadline is not None:
                deadline.check(aggregate=call.label())
            results[call] = temporal_aggregate(
                source,
                call.function,
                call.argument,
                strategy=strategy,
                k=k,
                memory_budget_bytes=memory_budget_bytes,
                deadline_ms=deadline,
                use_cache=use_cache,
            )
        return results

    def _execute_grouped(
        self,
        query: Query,
        source: ColumnarRows,
        shaper: _Shaper,
        strategy: str,
        k: Optional[int],
        deadline: Optional[Deadline],
        memory_budget_bytes: Optional[int],
    ) -> QueryResult:
        schema = source.schema
        attributes = query.group_by.attributes
        columns = [schema.attribute(name).name for name in attributes] + shaper.columns
        data: List[Any] = (
            [[] for _ in attributes]
            + [array("q"), array("q")]
            + [[] for _ in shaper.items]
        )
        for key, group in partition_relation(source, attributes):
            # Each partition is a new relation, planned on its own and
            # evaluated uncached like a qualifying relation.
            shaped = shaper.shape(
                self._aggregate(
                    query, group, strategy, k, deadline, memory_budget_bytes,
                    use_cache=False,
                )
            )
            count = len(shaped[0])
            for slot, value in enumerate(key):
                data[slot].extend(repeat(value, count))
            for slot, column in enumerate(shaped, len(attributes)):
                data[slot].extend(column)
        return QueryResult(columns, data)

    def _execute_span(
        self,
        query: Query,
        source: ColumnarRows,
        shaper: _Shaper,
        deadline: Optional[Deadline],
    ) -> QueryResult:
        group_by = query.group_by
        if group_by.window is not None:
            window = Interval(*group_by.window)
        else:
            lifespan = source.lifespan
            if lifespan is None:
                raise TSQL2SemanticError(
                    "span grouping over an empty qualification needs an "
                    "explicit window: GROUP BY SPAN n [a, b]"
                )
            if lifespan.end >= FOREVER:
                raise TSQL2SemanticError(
                    "span grouping needs a bounded window; the relation "
                    "extends to FOREVER — use GROUP BY SPAN n [a, b]"
                )
            window = lifespan

        results: Dict[AggregateCall, TemporalAggregateResult] = {}
        for call in query.aggregate_calls():
            if deadline is not None:
                deadline.check(aggregate=call.label())
            triples = source.scan_triples(call.argument)
            if group_by.unit is not None:
                try:
                    results[call] = calendar_span_aggregate(
                        triples, call.function, window, group_by.unit
                    )
                except CalendarError as error:
                    raise TSQL2SemanticError(str(error)) from error
            else:
                results[call] = span_aggregate(
                    triples, call.function, window, group_by.span
                )
        return QueryResult(shaper.columns, shaper.shape(results))
