"""Recursive-descent parser for TSQL2-lite.

Grammar (keywords case-insensitive)::

    query        = SELECT select_list FROM table
                   [WHERE condition {AND condition}]
                   [GROUP BY group_spec]
                   [USING ALGORITHM ident ["(" K "=" number ")"]]
    select_list  = select_item {"," select_item}
    select_item  = aggregate "(" (ident | "*") ")" | ident
    table        = ident [ [AS] ident ]           -- optional alias
    condition    = ident op literal
                 | VALID OVERLAPS interval
    op           = "=" | "<>" | "<" | "<=" | ">" | ">="
    literal      = number | string | FOREVER
    interval     = "[" (number|FOREVER) "," (number|FOREVER) "]"
    group_spec   = INSTANT
                 | SPAN number [interval]
                 | ident {"," ident}              -- attribute group-by
                 | ident {"," ident} "," INSTANT  -- both, explicit

The paper's example query parses as expected::

    SELECT COUNT(Name) FROM Employed E
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.aggregates import AGGREGATES
from repro.core.interval import FOREVER
from repro.tsql2.ast import (
    AggregateCall,
    AlgorithmHint,
    BinaryOp,
    ColumnRef,
    Comparison,
    GroupBy,
    Having,
    Literal,
    Query,
    ValidOverlaps,
)
from repro.tsql2.lexer import Token, TSQL2SyntaxError, tokenize

__all__ = ["parse", "TSQL2SyntaxError"]

_OPERATORS = {"=", "<>", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise TSQL2SyntaxError(
                "unexpected end of query", len(self.text), self.text
            )
        self.index += 1
        return token

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token is not None and token.matches(kind, value):
            self.index += 1
            return token
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token is None or not token.matches(kind, value):
            wanted = value or kind
            position = token.position if token else len(self.text)
            found = f", found {token.value!r}" if token else ""
            raise TSQL2SyntaxError(f"expected {wanted}{found}", position, self.text)
        self.index += 1
        return token

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------

    def parse_query(self) -> Query:
        explain = self._accept("KEYWORD", "EXPLAIN") is not None
        self._expect("KEYWORD", "SELECT")
        select = self._parse_select_list()
        self._expect("KEYWORD", "FROM")
        table = self._expect("IDENT").value
        alias = None
        self._accept("KEYWORD", "AS")
        alias_token = self._accept("IDENT")
        if alias_token is not None:
            alias = alias_token.value

        where: List[Any] = []
        if self._accept("KEYWORD", "WHERE"):
            where.append(self._parse_condition())
            while self._accept("KEYWORD", "AND"):
                where.append(self._parse_condition())

        group_by = GroupBy()
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            group_by = self._parse_group_spec()

        having: List[Having] = []
        if self._accept("KEYWORD", "HAVING"):
            having.append(self._parse_having_condition())
            while self._accept("KEYWORD", "AND"):
                having.append(self._parse_having_condition())

        hint = None
        if self._accept("KEYWORD", "USING"):
            self._expect("KEYWORD", "ALGORITHM")
            hint = self._parse_hint()

        trailing = self._peek()
        if trailing is not None:
            raise TSQL2SyntaxError(
                f"unexpected trailing input {trailing.value!r}",
                trailing.position,
                self.text,
            )
        return Query(
            select=tuple(select),
            table=table,
            alias=alias,
            where=tuple(where),
            group_by=group_by,
            having=tuple(having),
            hint=hint,
            explain=explain,
        )

    def _parse_having_condition(self) -> Having:
        item = self._parse_expression()
        self._reject_columns_inside(item)
        if isinstance(item, ColumnRef):
            raise TSQL2SyntaxError(
                "HAVING filters on aggregate values, not bare columns",
                0,
                self.text,
            )
        operator_token = self._next()
        if operator_token.kind != "SYMBOL" or operator_token.value not in _OPERATORS:
            raise TSQL2SyntaxError(
                f"expected a comparison operator, found {operator_token.value!r}",
                operator_token.position,
                self.text,
            )
        return Having(item, operator_token.value, self._parse_literal())

    def _parse_select_list(self) -> List[Any]:
        items = [self._parse_select_item()]
        while self._accept("SYMBOL", ","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> Any:
        """One select item: a grouped column, an aggregate call, or an
        arithmetic expression over aggregate calls and constants."""
        item = self._parse_expression()
        if isinstance(item, (BinaryOp, Literal)):
            self._reject_columns_inside(item)
        return item

    def _reject_columns_inside(self, node: Any) -> None:
        if isinstance(node, ColumnRef):
            raise TSQL2SyntaxError(
                f"bare column {node.name!r} cannot appear inside an "
                "aggregate expression",
                0,
                self.text,
            )
        if isinstance(node, BinaryOp):
            self._reject_columns_inside(node.left)
            self._reject_columns_inside(node.right)

    # Expression grammar: expr = term {(+|-) term};
    #                     term = factor {(*|/) factor}.

    def _parse_expression(self) -> Any:
        node = self._parse_term()
        while True:
            token = self._peek()
            if token is not None and token.kind == "SYMBOL" and token.value in "+-":
                self._next()
                node = BinaryOp(token.value, node, self._parse_term())
            else:
                return node

    def _parse_term(self) -> Any:
        node = self._parse_factor()
        while True:
            token = self._peek()
            if token is not None and token.kind == "SYMBOL" and token.value in "*/":
                self._next()
                node = BinaryOp(token.value, node, self._parse_factor())
            else:
                return node

    def _parse_factor(self) -> Any:
        token = self._peek()
        if token is None:
            raise TSQL2SyntaxError(
                "unexpected end of query in expression", len(self.text), self.text
            )
        if token.matches("SYMBOL", "-"):
            self._next()
            inner = self._parse_factor()
            if isinstance(inner, Literal):
                return Literal(-inner.value)
            return BinaryOp("-", Literal(0), inner)
        if token.kind == "NUMBER":
            self._next()
            return Literal(int(token.value))
        if token.matches("SYMBOL", "("):
            self._next()
            node = self._parse_expression()
            self._expect("SYMBOL", ")")
            return node
        return self._parse_call_or_column()

    def _parse_call_or_column(self) -> Any:
        token = self._expect("IDENT")
        if self._accept("SYMBOL", "("):
            function = token.value.lower()
            if function not in AGGREGATES:
                known = ", ".join(sorted(AGGREGATES))
                raise TSQL2SyntaxError(
                    f"unknown aggregate {token.value!r} (known: {known})",
                    token.position,
                    self.text,
                )
            if self._accept("SYMBOL", "*"):
                argument = None
            else:
                argument = self._expect("IDENT").value
            self._expect("SYMBOL", ")")
            return AggregateCall(function, argument)
        return ColumnRef(token.value)

    def _parse_condition(self) -> Any:
        if self._accept("KEYWORD", "VALID"):
            self._expect("KEYWORD", "OVERLAPS")
            start, end = self._parse_interval()
            return ValidOverlaps(start, end)
        attribute = self._expect("IDENT").value
        operator_token = self._next()
        if operator_token.kind != "SYMBOL" or operator_token.value not in _OPERATORS:
            raise TSQL2SyntaxError(
                f"expected a comparison operator, found {operator_token.value!r}",
                operator_token.position,
                self.text,
            )
        literal = self._parse_literal()
        return Comparison(attribute, operator_token.value, literal)

    def _parse_literal(self) -> Any:
        token = self._next()
        if token.kind == "NUMBER":
            return int(token.value)
        if token.kind == "STRING":
            return token.value
        if token.matches("KEYWORD", "FOREVER"):
            return FOREVER
        raise TSQL2SyntaxError(
            f"expected a literal, found {token.value!r}", token.position, self.text
        )

    def _parse_instant_literal(self) -> int:
        token = self._next()
        if token.kind == "NUMBER":
            return int(token.value)
        if token.matches("KEYWORD", "FOREVER"):
            return FOREVER
        raise TSQL2SyntaxError(
            f"expected an instant, found {token.value!r}", token.position, self.text
        )

    def _parse_interval(self) -> Tuple[int, int]:
        self._expect("SYMBOL", "[")
        start = self._parse_instant_literal()
        self._expect("SYMBOL", ",")
        end = self._parse_instant_literal()
        self._expect("SYMBOL", "]")
        return start, end

    def _parse_group_spec(self) -> GroupBy:
        if self._accept("KEYWORD", "INSTANT"):
            return GroupBy(kind="instant")
        if self._accept("KEYWORD", "SPAN"):
            unit_token = self._accept("IDENT")
            if unit_token is not None:
                span, unit = None, unit_token.value.lower()
            else:
                span, unit = int(self._expect("NUMBER").value), None
            window = None
            if self._peek() is not None and self._peek().matches("SYMBOL", "["):
                window = self._parse_interval()
            return GroupBy(kind="span", span=span, unit=unit, window=window)
        attributes = [self._expect("IDENT").value]
        explicit_instant = False
        while self._accept("SYMBOL", ","):
            if self._accept("KEYWORD", "INSTANT"):
                explicit_instant = True
                break
            attributes.append(self._expect("IDENT").value)
        del explicit_instant  # instant grouping is the default either way
        return GroupBy(kind="instant", attributes=tuple(attributes))

    def _parse_hint(self) -> AlgorithmHint:
        name = self._expect("IDENT").value
        k = None
        if self._accept("SYMBOL", "("):
            key = self._expect("IDENT")
            if key.value.lower() != "k":
                raise TSQL2SyntaxError(
                    f"unknown algorithm parameter {key.value!r}",
                    key.position,
                    self.text,
                )
            self._expect("SYMBOL", "=")
            k = int(self._expect("NUMBER").value)
            self._expect("SYMBOL", ")")
        return AlgorithmHint(strategy=name.lower(), k=k)


def parse(text: str) -> Query:
    """Parse one TSQL2-lite query into a :class:`~repro.tsql2.ast.Query`.

    Raises :class:`TSQL2SyntaxError`, also for a statement nested past
    the interpreter's recursion limit.
    """
    try:
        return _Parser(text).parse_query()
    except RecursionError:
        raise TSQL2SyntaxError("statement is nested too deeply", 0) from None
