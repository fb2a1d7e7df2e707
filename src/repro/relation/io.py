"""CSV import/export for temporal relations.

Temporal relations travel as ordinary CSV with two extra trailing
columns, ``valid_start`` and ``valid_end`` (the closed valid-time
bounds; ``forever`` spells the open end):

.. code-block:: text

    name,salary,valid_start,valid_end
    Richard,40000,18,forever
    Karen,45000,8,20

:func:`read_csv` can work against a declared
:class:`~repro.relation.schema.Schema` (values are validated) or infer
one from the data: a column whose every value parses as int becomes
``int``, else ``float``, else ``str``.

Malformed *rows* need not abort the load: with
``on_error="quarantine"`` each bad row is set aside in a
:class:`QuarantineReport` — with its file/line context and the reason
it was refused — and the well-formed rows still load.  The report's
bounded capacity keeps a systematically broken file from being silently
swallowed: past the cap the load aborts after all.  Header problems
always abort with :class:`RelationIOError`; without a valid header
there is no schema to quarantine against.

The loader reads the file in chunks of a few thousand records and
holds one chunk's raw cells at a time, so its transient is bounded by a
chunk, not by the file.  Each chunk is transposed into string columns,
typed and converted a column at a time, checked as
:meth:`~repro.relation.relation.TemporalRelation.insert` checks a row,
and appended straight to typed columns (``array('q')`` for instants and
ints, ``array('d')`` for floats, lists of interned strings), which
become the relation's own columns in one
:meth:`~repro.relation.relation.TemporalRelation.from_columns` call.
Type inference still covers the whole file: while an inferred column is
numeric it keeps each chunk's raw text compactly (one joined string and
a lengths array), and a later chunk that widens it to ``float`` or
``str`` re-derives the earlier chunks' values from that text.  Loading
the 32K-tuple §6 relation, the transient over what the relation keeps
(tracemalloc peak minus retained) is 1.8 MB, where the
whole-file loader this replaced read 11.4 MB.  No row object is built;
the relation's fingerprint is folded only when something first reads
it.
"""

from __future__ import annotations

import csv
import io
from array import array
from itertools import accumulate, compress, islice
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.core.interval import FOREVER, format_instant, parse_instant
from repro.relation.relation import (
    Column,
    TemporalRelation,
    _empty_column,
    _extended,
    _taken,
)
from repro.relation.schema import Attribute, Schema, SchemaError

__all__ = [
    "read_csv",
    "write_csv",
    "to_csv_text",
    "from_csv_text",
    "RelationIOError",
    "QuarantinedRow",
    "QuarantineReport",
]

_TIME_COLUMNS = ("valid_start", "valid_end")

#: Records one refused row: ``(label, line, fields, reason)``.
_Refuse = Callable[[str, int, List[str], str], None]

#: Quarantined rows kept before the load aborts anyway.
DEFAULT_QUARANTINE_CAP = 100

#: Records read, converted and checked at a time: a load holds one
#: chunk's raw cells, never the whole file's.
_CHUNK_RECORDS = 4096

#: A value refusal held until the file ends: ``(line, fields, reason)``.
_Refusal = Tuple[int, List[str], str]


class RelationIOError(ValueError):
    """Raised for malformed temporal CSV files."""


class QuarantinedRow:
    """One refused CSV row with enough context to fix it at the source."""

    __slots__ = ("source", "line", "fields", "reason")

    def __init__(
        self, source: str, line: int, fields: List[str], reason: str
    ) -> None:
        self.source = source
        self.line = line
        self.fields = fields
        self.reason = reason

    def __repr__(self) -> str:
        return f"{self.source}:{self.line}: {self.reason}"


class QuarantineReport:
    """Where ``read_csv(on_error="quarantine")`` records refused rows."""

    __slots__ = ("cap", "rows", "loaded", "capped")

    def __init__(self, cap: int = DEFAULT_QUARANTINE_CAP) -> None:
        if cap < 1:
            raise ValueError("quarantine cap must be at least 1")
        self.cap = cap
        self.rows: List[QuarantinedRow] = []
        #: Well-formed rows that made it into the relation.
        self.loaded = 0
        #: Set when the cap was hit (the load then aborts).
        self.capped = False

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: QuarantinedRow) -> bool:
        """Record one refusal; returns False once the cap is exceeded."""
        if len(self.rows) >= self.cap:
            self.capped = True
            return False
        self.rows.append(row)
        return True

    def summary(self) -> str:
        """One line per refusal plus a totals line, for logs and shells."""
        lines = [repr(row) for row in self.rows]
        lines.append(
            f"{self.loaded} row(s) loaded, {len(self.rows)} quarantined"
            + (" (cap reached)" if self.capped else "")
        )
        return "\n".join(lines)


def _open_for_read(source: Union[str, TextIO]) -> "tuple[TextIO, bool]":
    if isinstance(source, str):
        return open(source, "r", newline=""), True
    return source, False


def _open_for_write(target: Union[str, TextIO]) -> "tuple[TextIO, bool]":
    if isinstance(target, str):
        return open(target, "w", newline=""), True
    return target, False


def write_csv(relation: TemporalRelation, target: Union[str, TextIO]) -> None:
    """Write ``relation`` as temporal CSV (path or open text file),
    straight from its stored columns: no row object is built."""
    handle, owned = _open_for_write(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(relation.schema.names()) + list(_TIME_COLUMNS))
        writer.writerows(
            zip(
                *[map(str, column) for column in relation._values],
                map(format_instant, relation._starts),
                map(format_instant, relation._ends),
            )
        )
    finally:
        if owned:
            handle.close()


def _read_header(reader: Iterator[List[str]], schema: Optional[Schema]) -> List[str]:
    """The attribute names of the header row; raises on any header problem."""
    try:
        header = next(reader)
    except StopIteration:
        raise RelationIOError("empty CSV: no header row") from None
    if len(header) < 3:
        raise RelationIOError(
            "temporal CSV needs at least one attribute plus "
            "valid_start, valid_end"
        )
    if tuple(h.strip().lower() for h in header[-2:]) != _TIME_COLUMNS:
        raise RelationIOError(
            f"last two columns must be {_TIME_COLUMNS}, got {header[-2:]}"
        )
    names = [h.strip() for h in header[:-2]]
    try:
        Schema(tuple(Attribute(n) for n in names))
    except SchemaError as exc:
        raise RelationIOError(f"bad header {header}: {exc}") from None
    if schema is not None:
        declared = [a.name.lower() for a in schema.attributes]
        if declared != [n.lower() for n in names]:
            raise RelationIOError(
                f"header {names} does not match schema "
                f"attributes {schema.names()}"
            )
    return names


def _convert(
    cells: Sequence[str],
    convert: Callable[[str], Any],
    errors: Dict[int, str],
    reason: Callable[[str, ValueError], str],
) -> List[Any]:
    """``convert`` over a column.  A refused cell leaves None in its row
    and records ``reason`` unless the row already has an error: checks
    run in the order a row's fields read, so the first one wins."""
    try:
        return list(map(convert, cells))
    except ValueError:
        pass
    converted: List[Any] = []
    for row, cell in enumerate(cells):
        try:
            converted.append(convert(cell))
        except ValueError as exc:
            errors.setdefault(row, reason(cell, exc))
            converted.append(None)
    return converted


def _instant_error(_cell: str, exc: ValueError) -> str:
    return str(exc)


def _nan_error(start: int, end: int) -> str:
    return (
        f"NaN attribute value in tuple valid at [{start}, {end}]; "
        "NaN does not order and would corrupt aggregate results"
    )


def _kept(values: List[Any], keep: Optional[bytes]) -> List[Any]:
    """The values of the kept rows (all of them when ``keep`` is None)."""
    return values if keep is None else list(compress(values, keep))


def _record(cells: Sequence[Sequence[str]], row: int) -> List[str]:
    """Row ``row``'s fields, from a chunk transposed into ``cells``."""
    return [column[row] for column in cells]


def _split(joined: str, lengths: "array[int]") -> List[str]:
    """The cells that were joined into ``joined``."""
    return [
        joined[end - length : end]
        for end, length in zip(accumulate(lengths), lengths)
    ]


_PARSERS: Dict[str, Callable[[str], Any]] = {"int": int, "float": float}


class _Column:
    """One attribute column as it loads, chunk by chunk.

    ``values`` holds the kept rows' converted values, typed as the
    relation stores them.  A declared column converts each chunk to its
    type and refuses the cells that do not parse.  An inferred column
    starts as ``int`` and widens to ``float``, then ``str``, when a
    chunk needs it: ``int`` if every cell of the file parses as int,
    else ``float``, else ``str``.
    """

    __slots__ = (
        "attribute", "inferred", "values", "texts", "widest", "distinct", "nans"
    )

    def __init__(self, attribute: Attribute, inferred: bool) -> None:
        self.attribute = attribute
        self.inferred = inferred
        self.values: Column = _empty_column(attribute)
        #: ``(joined cells, cell lengths, kept rows)`` of every chunk so
        #: far, while the column is inferred and numeric: a wider type
        #: re-derives the earlier chunks' values from their own text.
        self.texts: List[Tuple[str, "array[int]", Optional[bytes]]] = []
        #: The longest cell in UTF-8 bytes, for an inferred str width.
        self.widest = 0
        #: Each distinct string, stored once.
        self.distinct: Dict[str, str] = {}
        #: ``(line, fields, reason, position)`` of the first kept rows
        #: holding NaN while the column is inferred float: refused only
        #: if it is still float when the file ends.
        self.nans: List[Tuple[int, List[str], str, int]] = []

    def convert(self, cells: Sequence[str], errors: Dict[int, str]) -> List[Any]:
        """One chunk's cells as values of the column's type.  An inferred
        column first widens until its type parses every cell; a declared
        one leaves None for a cell that does not parse and records the
        row's reason in ``errors``."""
        kind = self.attribute.type
        if kind == "str":
            if self.inferred:
                try:
                    longest = max(map(len, map(str.encode, cells)))
                except UnicodeEncodeError:
                    longest = self._encodable_width(cells, errors)
                self.widest = max(self.widest, longest)
            stripped = list(map(str.strip, cells))
            return list(map(self.distinct.setdefault, stripped, stripped))
        if not self.inferred:
            stripped = list(map(str.strip, cells))
            return _convert(stripped, _PARSERS[kind], errors, self._refusal)
        try:
            return list(map(_PARSERS[kind], cells))
        except ValueError:
            self._widen()
            return self.convert(cells, errors)

    def _encodable_width(self, cells: Sequence[str], errors: Dict[int, str]) -> int:
        """The longest UTF-8 cell; a cell with none (a lone surrogate,
        from a str or stream source) refuses its row in ``errors``."""
        longest = 0
        for row, cell in enumerate(cells):
            try:
                longest = max(longest, len(cell.encode()))
            except UnicodeEncodeError as exc:
                name = self.attribute.name
                reason = f"value {cell!r} for attribute {name!r} has no UTF-8"
                errors.setdefault(row, f"{reason}: {exc.reason}")
        return longest

    def _refusal(self, cell: str, _exc: ValueError) -> str:
        kind = self.attribute.type
        article = "an" if kind == "int" else "a"
        return (
            f"value {cell!r} is not {article} {kind} "
            f"for attribute {self.attribute.name!r}"
        )

    def _widen(self) -> None:
        """Widen an inferred int column to float, or float to str, and
        re-derive the earlier chunks' values from their text."""
        wider = "float" if self.attribute.type == "int" else "str"
        self.attribute = Attribute(self.attribute.name, wider)
        self.values = _empty_column(self.attribute)
        texts, self.texts = self.texts, []
        for joined, lengths, keep in texts:
            cells = _split(joined, lengths)
            self.append(cells, self.convert(cells, {}), keep)

    def append(
        self, cells: Sequence[str], values: List[Any], keep: Optional[bytes]
    ) -> None:
        """Append the kept rows' ``values``; an inferred numeric column
        also keeps the chunk's text."""
        self.values = _extended(self.values, _kept(values, keep))
        if self.inferred and self.attribute.type != "str":
            self.texts.append(
                ("".join(cells), array("I", map(len, cells)), keep)
            )

    def final(self) -> Attribute:
        """An inferred column's attribute once the file is read."""
        if self.attribute.type == "str":
            return Attribute(self.attribute.name, "str", max(8, self.widest))
        return self.attribute


class _Load:
    """What one :func:`read_csv` call carries from chunk to chunk.

    Field-count refusals go to ``refuse`` as their records are read.
    Value refusals are held until the file ends and then refused in
    line order, after every field-count refusal, as the per-row loader
    reported them; only the first ``limit`` are held, because refusing
    that many raises (the first one under ``on_error="raise"``, the one
    past the cap under quarantine).
    """

    def __init__(
        self,
        names: List[str],
        schema: Optional[Schema],
        refuse: "_Refuse",
        limit: int,
    ) -> None:
        self.schema = schema
        self.width = len(names) + 2
        if schema is None:
            self.columns = [_Column(Attribute(n, "int"), True) for n in names]
        else:
            self.columns = [_Column(a, False) for a in schema.attributes]
        self.starts: "array[int]" = array("q")
        self.ends: "array[int]" = array("q")
        #: The line of the next record; the header is line 1, and each
        #: record counts one line.
        self.line = 2
        self.refuse = refuse
        self.limit = limit
        self.refused: List[_Refusal] = []

    def add(self, chunk: Iterator[List[str]]) -> int:
        """Check, convert and append the records ``chunk`` yields;
        returns how many it yielded."""
        records = list(chunk)
        count = len(records)
        line, self.line = self.line, self.line + count
        width = self.width
        # The usual chunk: every record is full width and not blank.
        if all(map(width.__eq__, map(len, records))) and all(
            map(str.strip, map("".join, records))
        ):
            kept, lines = records, range(line, self.line)
        else:
            kept, lines = [], []
            for line, record in enumerate(records, start=line):
                if not "".join(record).strip():
                    continue
                if len(record) != width:
                    reason = f"expected {width} fields, got {len(record)}"
                    self.refuse("line", line, record, reason)
                    continue
                kept.append(record)
                lines.append(line)
        cells = list(zip(*kept))
        del records, kept  # the cells hold the strings; the record lists go
        if cells:
            self._append(cells, lines)
        return count

    def _append(self, cells: List[Tuple[str, ...]], lines: Sequence[int]) -> None:
        """Convert and check a chunk's well-formed records, transposed
        into ``cells``, a column at a time, as
        :meth:`TemporalRelation.insert` checks a row, and append the
        rows that pass."""
        errors: Dict[int, str] = {}
        values = [
            column.convert(column_cells, errors)
            for column, column_cells in zip(self.columns, cells)
        ]
        starts = _convert(cells[-2], parse_instant, errors, _instant_error)
        ends = _convert(cells[-1], parse_instant, errors, _instant_error)
        for row, (start, end) in enumerate(zip(starts, ends)):
            if start is None or end is None:
                continue
            if end < start:
                errors.setdefault(row, f"invalid valid-time bounds [{start}, {end}]")
            elif end > FOREVER:
                errors.setdefault(row, f"valid-time end {end} exceeds FOREVER")
        # A NaN in a declared float column is refused now; one in an
        # inferred column waits until the column's type is final.
        nans: List[Tuple[int, _Column]] = []
        for column, column_values in zip(self.columns, values):
            if column.attribute.type != "float":
                continue
            for row, value in enumerate(column_values):
                if value != value:
                    if column.inferred:
                        nans.append((row, column))
                    else:
                        errors.setdefault(row, _nan_error(starts[row], ends[row]))

        keep = None
        if errors:
            keep = bytes(row not in errors for row in range(len(lines)))
            self.refused += [
                (lines[row], _record(cells, row), errors[row])
                for row in sorted(errors)
            ]
            del self.refused[self.limit :]
        first = len(self.starts)
        for column, column_cells, column_values in zip(self.columns, cells, values):
            column.append(column_cells, column_values, keep)
        self.starts.fromlist(_kept(starts, keep))
        self.ends.fromlist(_kept(ends, keep))
        if nans:
            # Kept rows before each row, to place it in the columns.
            before = (
                range(len(lines))
                if keep is None
                else list(accumulate(keep, initial=0))
            )
            for row, column in nans:
                if row not in errors:
                    reason = _nan_error(starts[row], ends[row])
                    held = (lines[row], _record(cells, row), reason)
                    column.nans.append((*held, first + before[row]))
            for column in self.columns:
                del column.nans[self.limit :]

    def relation(self, name: str) -> TemporalRelation:
        """Refuse the held value refusals and build the relation.

        A NaN row is refused now that every column's type is final: if a
        column that held NaN ended ``float``.  The rows kept so far are
        taken from the columns."""
        nans = {
            held[0]: held
            for column in self.columns
            if column.attribute.type == "float"
            for held in column.nans
        }
        refusals = self.refused + [held[:3] for held in nans.values()]
        for line, record, reason in sorted(refusals, key=itemgetter(0)):
            self.refuse("row", line, record, reason)
        columns = [self.starts, self.ends, *(c.values for c in self.columns)]
        if nans:
            keep = bytearray(b"\x01") * len(self.starts)
            for held in nans.values():
                keep[held[3]] = 0
            rows = list(compress(range(len(keep)), keep))
            columns = [_taken(column, rows) for column in columns]
        schema = self.schema
        if schema is None:
            schema = Schema(tuple(column.final() for column in self.columns))
        return TemporalRelation.from_columns(
            schema, columns[0], columns[1], columns[2:], name=name
        )


def read_csv(
    source: Union[str, TextIO],
    schema: Optional[Schema] = None,
    name: str = "from_csv",
    *,
    on_error: str = "raise",
    report: Optional[QuarantineReport] = None,
) -> TemporalRelation:
    """Read a temporal CSV into a relation.

    The last two columns must be ``valid_start`` and ``valid_end``.
    With ``schema=None`` the explicit-attribute types are inferred from
    the data; otherwise the header must match the schema's attribute
    names (case-insensitively) and every value is validated.  Any
    header problem (missing time columns, an empty, invalid or
    duplicate attribute name, a mismatch with ``schema``) raises
    :class:`RelationIOError` before a data row is read.

    The load reads the file 4,096 records at a time and holds one
    chunk's raw cells, never the whole file's.  Each chunk is converted a
    column at a time, its rows are checked as
    :meth:`TemporalRelation.insert` checks them (interval bounds, NaN
    values), and the rows that pass are appended to typed columns; an
    inferred column keeps a numeric chunk's text until its type is
    final, so inference covers the whole file.  The columns become the
    relation's in one piece, so its :attr:`~TemporalRelation.version`
    is 0 and no row object is built.  Loading the 32K-tuple §6
    relation peaks 1.8 MB above what the relation keeps
    (tracemalloc), where holding the whole file's cells peaked 11.4 MB
    above it.  Text the file's encoding cannot decode, and records the
    ``csv`` module refuses, raise :class:`RelationIOError` too.

    ``on_error`` selects the malformed-*row* policy: ``"raise"`` (the
    default) aborts on the first bad row; ``"quarantine"`` records each
    bad row — wrong field count, unparseable value, bad interval — in
    ``report`` (one is created if not given; read it back via the
    relation's ``quarantine`` attribute) and keeps loading.  Field-count
    refusals come first, in line order, then value refusals, in line
    order.  When the report's cap is exceeded the load aborts with
    :class:`RelationIOError` after all: a file that is mostly garbage
    should fail loudly, not load quietly.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    quarantine = on_error == "quarantine"
    if quarantine and report is None:
        report = QuarantineReport()
    source_name = source if isinstance(source, str) else "<stream>"

    def refuse(label: str, line: int, record: List[str], reason: str) -> None:
        if not quarantine:
            raise RelationIOError(f"{label} {line}: {reason}")
        assert report is not None
        if not report.add(QuarantinedRow(source_name, line, record, reason)):
            raise RelationIOError(
                f"more than {report.cap} malformed rows in "
                f"{source_name}; aborting the load"
            )

    handle, owned = _open_for_read(source)
    reader = csv.reader(handle)
    try:
        names = _read_header(reader, schema)
        limit = report.cap + 1 if quarantine and report is not None else 1
        load = _Load(names, schema, refuse, limit)
        while load.add(islice(reader, _CHUNK_RECORDS)):
            pass
    except csv.Error as exc:
        raise RelationIOError(f"line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise RelationIOError(
            f"{source_name} is not {exc.encoding} text "
            f"(line {reader.line_num + 1} or later): {exc.reason}"
        ) from exc
    finally:
        if owned:
            handle.close()

    relation = load.relation(name)
    if report is not None:
        report.loaded += len(relation)
        relation.quarantine = report
    return relation


def to_csv_text(relation: TemporalRelation) -> str:
    """The relation as a CSV string (convenience for small relations)."""
    buffer = io.StringIO()
    write_csv(relation, buffer)
    return buffer.getvalue()


def from_csv_text(
    text: str,
    schema: Optional[Schema] = None,
    name: str = "from_csv",
    *,
    on_error: str = "raise",
    report: Optional[QuarantineReport] = None,
) -> TemporalRelation:
    """Parse a CSV string (convenience counterpart of :func:`to_csv_text`)."""
    return read_csv(
        io.StringIO(text),
        schema=schema,
        name=name,
        on_error=on_error,
        report=report,
    )
