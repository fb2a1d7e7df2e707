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

The loader works a column at a time, so its cost per row is a few
C-level conversions rather than a chain of per-row calls: records are
transposed into string columns as they are read, each column is typed
and converted in one pass, the rows are checked column by column, and
the relation is built, and fingerprinted, in one piece.
"""

from __future__ import annotations

import csv
import gc
import io
from array import array
from itertools import compress, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.core.interval import FOREVER, format_instant, parse_instant
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Attribute, Schema, SchemaError
from repro.relation.tuples import TemporalTuple

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
    """Write ``relation`` as temporal CSV (path or open text file)."""
    handle, owned = _open_for_write(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(relation.schema.names()) + list(_TIME_COLUMNS))
        for row in relation:
            writer.writerow(
                [str(value) for value in row.values]
                + [format_instant(row.start), format_instant(row.end)]
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


def _read_columns(
    reader: Iterator[List[str]], width: int, refuse: "_Refuse"
) -> Tuple[List[List[str]], "array[int]"]:
    """Transpose the data records into raw string columns as they are read.

    Blank records are skipped and records with the wrong field count go
    to ``refuse``.  Returns the columns and each kept record's line
    number (the header is line 1, one line per record).
    """
    columns: List[List[str]] = [[] for _ in range(width)]
    appends = [column.append for column in columns]
    lines = array("q")
    keep_line = lines.append
    for line, record in enumerate(reader, start=2):
        if not "".join(record).strip():
            continue
        if len(record) != width:
            refuse("line", line, record, f"expected {width} fields, got {len(record)}")
            continue
        for append, cell in zip(appends, record):
            append(cell)
        keep_line(line)
    return columns, lines


def _convert(
    cells: List[str],
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


def _strings(cells: List[str]) -> List[str]:
    """The stripped cells, each distinct value stored once."""
    stripped = list(map(str.strip, cells))
    distinct: Dict[str, str] = {}
    return list(map(distinct.setdefault, stripped, stripped))


def _instant_error(_cell: str, exc: ValueError) -> str:
    return str(exc)


def _infer_attribute(name: str, cells: List[str]) -> Tuple[Attribute, List[Any]]:
    """Type one column from its data, converting it on the way: ``int``
    if every cell parses as int, else ``float``, else ``str``."""
    for kind, convert in (("int", int), ("float", float)):
        try:
            return Attribute(name, kind), list(map(convert, cells))
        except ValueError:
            pass
    longest = max(map(len, map(str.encode, cells)), default=1)
    return Attribute(name, "str", max(8, longest)), _strings(cells)


def _declared_column(
    attribute: Attribute, cells: List[str], errors: Dict[int, str]
) -> List[Any]:
    """Convert one column to its declared type, recording refusals."""
    if attribute.type == "str":
        return _strings(cells)
    convert = int if attribute.type == "int" else float
    article = "an" if attribute.type == "int" else "a"

    def reason(cell: str, _exc: ValueError) -> str:
        return (
            f"value {cell!r} is not {article} {attribute.type} "
            f"for attribute {attribute.name!r}"
        )

    return _convert(list(map(str.strip, cells)), convert, errors, reason)


def _attribute_columns(
    names: List[str],
    cells: List[List[str]],
    schema: Optional[Schema],
    errors: Dict[int, str],
) -> Tuple[Schema, List[List[Any]]]:
    """The schema (inferred when ``schema`` is None) and the converted
    attribute columns."""
    if schema is None:
        typed = [_infer_attribute(n, column) for n, column in zip(names, cells)]
        return Schema(tuple(a for a, _ in typed)), [c for _, c in typed]
    return schema, [
        _declared_column(attribute, column, errors)
        for attribute, column in zip(schema.attributes, cells)
    ]


def _check_rows(
    starts: List[Any],
    ends: List[Any],
    floats: List[List[Any]],
    errors: Dict[int, str],
) -> None:
    """The row checks of :meth:`TemporalRelation.insert`, column by
    column: interval bounds, then NaN values."""
    for row, (start, end) in enumerate(zip(starts, ends)):
        if start is None or end is None:
            continue
        if end < start:
            errors.setdefault(row, f"invalid valid-time bounds [{start}, {end}]")
        elif end > FOREVER:
            errors.setdefault(row, f"valid-time end {end} exceeds FOREVER")
    for column in floats:
        for row, value in enumerate(column):
            if value != value:
                errors.setdefault(
                    row,
                    f"NaN attribute value in tuple valid at "
                    f"[{starts[row]}, {ends[row]}]; NaN does not order "
                    "and would corrupt aggregate results",
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

    The load runs a column at a time: records are transposed into
    columns as they are read, each column is typed and converted in one
    pass, and the rows are checked as :meth:`TemporalRelation.insert`
    checks them (interval bounds, NaN values).  The relation is built
    in one piece, so its :attr:`~TemporalRelation.version` is 0; the
    cyclic garbage collector is paused meanwhile (the new rows hold no
    reference cycles) and the caller's setting restored afterwards.
    Text the file's encoding cannot decode, and records the ``csv``
    module refuses, raise :class:`RelationIOError` too.

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
        cells, lines = _read_columns(reader, len(names) + 2, refuse)
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

    errors: Dict[int, str] = {}
    schema, values = _attribute_columns(names, cells[:-2], schema, errors)
    starts = _convert(cells[-2], parse_instant, errors, _instant_error)
    ends = _convert(cells[-1], parse_instant, errors, _instant_error)
    floats = [
        column
        for attribute, column in zip(schema.attributes, values)
        if attribute.type == "float"
    ]
    _check_rows(starts, ends, floats, errors)
    for row in sorted(errors):
        record = [column[row] for column in cells]
        refuse("row", lines[row], record, errors[row])
    del cells  # the raw strings; the rows hold only converted values

    # tuple.__new__ builds each TemporalTuple without a Python-level call.
    rows: Iterable[TemporalTuple] = map(
        tuple.__new__, repeat(TemporalTuple), zip(zip(*values), starts, ends)
    )
    if errors:
        rows = compress(rows, [row not in errors for row in range(len(lines))])
    # Building and fingerprinting the rows creates no reference cycles,
    # so a cyclic collection meanwhile would only rescan the new rows.
    collecting = gc.isenabled()
    gc.disable()
    try:
        relation = TemporalRelation(schema, rows, name=name)
    finally:
        if collecting:
            gc.enable()
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
