"""Differential test: the chunked, column-at-a-time CSV loader against the
per-row loader it replaced.

:func:`reference_read_csv` is that per-row loader, kept here verbatim
in behaviour together with the instant parser it called: every record
is parsed on its own and stored through :meth:`TemporalRelation.insert`.
On random CSV text (clean rows, blank and whitespace-only rows, short
and long rows, bad ints, floats and instants, NaN, every ``forever``
spelling, reversed and negative intervals, ends past ``FOREVER``, rows
with several of these defects, quoted and padded fields), with declared
and inferred schemas, under both error policies, the two must agree on
the rows, the schema, the fingerprint and the quarantine ``(line,
reason)`` sequence, and raise the same exception type with the same
message.

The bulk loader reads ``_CHUNK_RECORDS`` records at a time, far more
than a generated file holds, so the comparison runs again with the
chunk patched down to 1, 2 and 3 records: type inference, refusal
order and NaN refusals must not depend on where a chunk ends.  Explicit
cases pin the chunk-boundary paths that random text rarely reaches: a
later chunk widening an inferred column from int to float or str, or
from float to str, after earlier chunks were converted.
"""

import csv
import io
from typing import Any, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER, ORIGIN, InvalidIntervalError
from repro.relation import io as relation_io
from repro.relation.io import (
    QuarantinedRow,
    QuarantineReport,
    RelationIOError,
    from_csv_text,
)
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Attribute, Schema, SchemaError

_TIME_COLUMNS = ("valid_start", "valid_end")


def parse_instant(text: str) -> int:
    cleaned = text.strip().lower()
    if cleaned in {"forever", "inf", "infinity", "oo", "∞"}:
        return FOREVER
    try:
        value = int(cleaned)
    except ValueError as exc:
        raise InvalidIntervalError(f"not an instant: {text!r}") from exc
    if value < ORIGIN:
        raise InvalidIntervalError(f"instant before origin: {text!r}")
    return value


def _infer_schema(names: List[str], columns: List[List[str]]) -> Schema:
    attributes = []
    for name, values in zip(names, columns):
        kind = "int"
        for value in values:
            try:
                int(value)
            except ValueError:
                kind = "float"
                break
        if kind == "float":
            for value in values:
                try:
                    float(value)
                except ValueError:
                    kind = "str"
                    break
        width = 0
        if kind == "str":
            longest = max((len(v.encode("utf-8")) for v in values), default=1)
            width = max(8, longest)
        attributes.append(Attribute(name, kind, width))
    return Schema(tuple(attributes))


def _parse_row(schema: Schema, record: List[str]) -> Tuple[List[Any], int, int]:
    values: List[Any] = []
    for attribute, cell in zip(schema.attributes, record):
        cell = cell.strip()
        if attribute.type == "int":
            try:
                values.append(int(cell))
            except ValueError:
                raise RelationIOError(
                    f"value {cell!r} is not an int for attribute "
                    f"{attribute.name!r}"
                ) from None
        elif attribute.type == "float":
            try:
                values.append(float(cell))
            except ValueError:
                raise RelationIOError(
                    f"value {cell!r} is not a float for attribute "
                    f"{attribute.name!r}"
                ) from None
        else:
            values.append(cell)
    start = parse_instant(record[-2])
    end = parse_instant(record[-1])
    return values, start, end


def reference_read_csv(
    text: str,
    schema: Optional[Schema] = None,
    *,
    on_error: str = "raise",
    report: Optional[QuarantineReport] = None,
) -> TemporalRelation:
    """The per-row loader: two passes, one ``insert`` per row."""
    quarantine = on_error == "quarantine"
    if quarantine and report is None:
        report = QuarantineReport()
    source_name = "<stream>"
    reader = csv.reader(io.StringIO(text))
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
    attribute_names = [h.strip() for h in header[:-2]]

    raw_rows: List[Tuple[int, List[str]]] = []
    for line_number, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(header):
            reason = f"expected {len(header)} fields, got {len(record)}"
            if not quarantine:
                raise RelationIOError(f"line {line_number}: {reason}")
            assert report is not None
            if not report.add(
                QuarantinedRow(source_name, line_number, record, reason)
            ):
                raise RelationIOError(
                    f"more than {report.cap} malformed rows in "
                    f"{source_name}; aborting the load"
                )
            continue
        raw_rows.append((line_number, record))

    if schema is None:
        columns = [
            [record[i] for _line, record in raw_rows]
            for i in range(len(attribute_names))
        ]
        schema = _infer_schema(attribute_names, columns)
    else:
        declared = [a.name.lower() for a in schema.attributes]
        seen = [n.lower() for n in attribute_names]
        if declared != seen:
            raise RelationIOError(
                f"header {attribute_names} does not match schema "
                f"attributes {schema.names()}"
            )

    relation = TemporalRelation(schema, name="from_csv")
    for line_number, record in raw_rows:
        try:
            values, start, end = _parse_row(schema, record)
            relation.insert(values, start, end)
        except (ValueError, SchemaError) as exc:
            if not quarantine:
                raise RelationIOError(f"row {line_number}: {exc}") from exc
            assert report is not None
            if not report.add(
                QuarantinedRow(source_name, line_number, record, str(exc))
            ):
                raise RelationIOError(
                    f"more than {report.cap} malformed rows in "
                    f"{source_name}; aborting the load"
                ) from exc
            continue
        if report is not None:
            report.loaded += 1
    if report is not None:
        relation.quarantine = report
    return relation


# ---------------------------------------------------------------------------
# Random temporal CSV text
# ---------------------------------------------------------------------------

NAMES = ("name", "salary", "dept", "score")
KINDS = ("str", "int", "float")

#: Every accepted spelling of the open end, in assorted case and padding.
FOREVER_SPELLINGS = (
    "forever", "FOREVER", " Forever ", "inf", "INF", "infinity", "oo", "∞",
)

#: Cell text: no surrogates (a CSV file decodes to valid text), but
#: commas, quotes, newlines and padding, so fields get quoted.
TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00\r"
    ),
    max_size=6,
)


def padded(cell: st.SearchStrategy) -> st.SearchStrategy:
    """``cell`` between matching padding; ``str.strip`` removes the
    separator ``\x1f`` but ``int()`` and ``float()`` do not."""
    return st.tuples(st.sampled_from(("", " ", "  ", "\t", "\x1f")), cell).map(
        lambda pair: pair[0] + pair[1] + pair[0]
    )


INT_CELLS = padded(st.integers(-10**6, 10**6).map(str))
FLOAT_CELLS = padded(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(("nan", "NaN", "1e3", "-0.0", "inf", "1_000.5")),
    )
)
BAD_NUMBER_CELLS = padded(
    st.one_of(st.sampled_from(("abc", "", "1.2.3", "0x10", "--1")), TEXT)
)
INSTANT_CELLS = st.one_of(
    padded(st.integers(0, 1_000).map(str)),
    st.sampled_from(FOREVER_SPELLINGS),
)
BAD_INSTANT_CELLS = st.one_of(
    st.sampled_from(("soon", "", "-3", " -1 ", "1.5")),
    st.integers(-50, -1).map(str),
    TEXT,
)

#: Well-formed cells per attribute type.
CELLS = {"str": padded(TEXT), "int": INT_CELLS, "float": FLOAT_CELLS}

#: Ways a row of the right width can be wrong; a row may have several.
DEFECTS = ("reversed", "past forever", "bad instant", "bad value")


@st.composite
def temporal_csv(draw: st.DrawFn) -> Tuple[str, List[str], Tuple[str, ...]]:
    """CSV text, its attribute names, and a type per attribute."""
    width = draw(st.integers(1, 3))
    names = list(draw(st.permutations(NAMES))[:width])
    kinds = tuple(draw(st.sampled_from(KINDS)) for _ in names)
    time_header = draw(
        st.sampled_from(
            (list(_TIME_COLUMNS), [" Valid_Start", "VALID_END "])
        )
    )
    records: List[List[str]] = [names + time_header]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(
            st.sampled_from(
                ("clean", "clean", "clean", "blank", "short", "long",
                 "defective", "defective")
            )
        )
        if shape == "blank":
            records.append(
                draw(
                    st.sampled_from(
                        ([], [" "], [""] * (width + 2), ["  "] * (width + 2),
                         [" "] * (width + 1))
                    )
                )
            )
            continue
        values = [draw(CELLS[kind]) for kind in kinds]
        start, end = draw(INSTANT_CELLS), draw(INSTANT_CELLS)
        defects = set()
        if shape == "defective":
            defects = draw(st.sets(st.sampled_from(DEFECTS), min_size=1))
        if "reversed" in defects:
            low = draw(st.integers(1, 1_000))
            start, end = str(low), str(draw(st.integers(0, low - 1)))
        if "past forever" in defects:
            end = str(FOREVER + draw(st.integers(1, 3)))
        if "bad instant" in defects:
            if draw(st.booleans()):
                start = draw(BAD_INSTANT_CELLS)
            else:
                end = draw(BAD_INSTANT_CELLS)
        if "bad value" in defects:
            position = draw(st.integers(0, width - 1))
            values[position] = draw(BAD_NUMBER_CELLS)
        record = values + [start, end]
        if shape == "short":
            record = record[: draw(st.integers(1, len(record) - 1))]
        elif shape == "long":
            record = record + draw(st.lists(TEXT, min_size=1, max_size=2))
        records.append(record)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(records)
    return buffer.getvalue(), names, kinds


def outcome(load) -> tuple:
    """Everything the two loaders must agree on, or the failure.  A load
    may use ``report``, whose cap of 3 makes aborted loads common."""
    report = QuarantineReport(cap=3)
    try:
        relation = load(report)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc), quarantined(report))
    quarantine = relation.quarantine
    return (
        "loaded",
        relation.rows(),
        relation.schema,
        relation.fingerprint,
        None if quarantine is None else quarantined(quarantine),
        None if quarantine is None else quarantine.loaded,
    )


def quarantined(report: QuarantineReport) -> list:
    return [(row.line, row.reason, row.fields) for row in report.rows] + [
        report.capped
    ]


def assert_loaders_agree(case, declared, on_error, small_cap) -> None:
    text, names, kinds = case
    schema = (
        Schema(tuple(Attribute(n, k) for n, k in zip(names, kinds)))
        if declared
        else None
    )

    def bulk(report: QuarantineReport) -> TemporalRelation:
        return from_csv_text(
            text, schema, on_error=on_error, report=report if small_cap else None
        )

    def per_row(report: QuarantineReport) -> TemporalRelation:
        return reference_read_csv(
            text, schema, on_error=on_error, report=report if small_cap else None
        )

    assert outcome(bulk) == outcome(per_row)


LOADER_CASES = (
    temporal_csv(),
    st.booleans(),
    st.sampled_from(("raise", "quarantine")),
    st.booleans(),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(*LOADER_CASES)
def test_bulk_loader_matches_the_per_row_loader(case, declared, on_error, small_cap):
    assert_loaders_agree(case, declared, on_error, small_cap)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(*LOADER_CASES)
def test_bulk_loader_matches_across_chunk_boundaries(
    chunk, case, declared, on_error, small_cap
):
    with mock.patch.object(relation_io, "_CHUNK_RECORDS", chunk):
        assert_loaders_agree(case, declared, on_error, small_cap)


def loaded_and_reference(text: str, chunk: int) -> Tuple[tuple, tuple]:
    """Both loaders' quarantine outcomes on ``text`` at ``chunk``."""
    with mock.patch.object(relation_io, "_CHUNK_RECORDS", chunk):
        bulk = outcome(
            lambda r: from_csv_text(text, on_error="quarantine", report=r)
        )
    per_row = outcome(
        lambda r: reference_read_csv(text, on_error="quarantine", report=r)
    )
    return bulk, per_row


def csv_text(header: str, *rows: str) -> str:
    return "\n".join((header, *rows)) + "\n"


WIDENING_CASES = {
    "int then float": (
        csv_text("level,valid_start,valid_end", "1,0,5", "1.5,6,9"),
        "float",
        [1.0, 1.5],
    ),
    "int then str keeps the earlier text": (
        csv_text(
            "code,valid_start,valid_end", " 007 ,0,5", "1_000,1,5", "x,2,5"
        ),
        "str",
        ["007", "1_000", "x"],
    ),
    "float then str": (
        csv_text("level,valid_start,valid_end", "1e3,0,5", "2.5,1,5", "abc,2,5"),
        "str",
        ["1e3", "2.5", "abc"],
    ),
    "nan loads when a later chunk makes the column str": (
        csv_text("level,valid_start,valid_end", "nan,0,5", "1.5,1,5", "n/a,2,5"),
        "str",
        ["nan", "1.5", "n/a"],
    ),
    "int past int64 then float": (
        csv_text(
            "level,valid_start,valid_end",
            "99999999999999999999,0,5",
            "7,1,5",
            "0.5,2,5",
        ),
        "float",
        [1e20, 7.0, 0.5],
    ),
    "int past int64 stays int": (
        csv_text(
            "level,valid_start,valid_end", "7,0,5", "99999999999999999999,1,5"
        ),
        "int",
        [7, 99999999999999999999],
    ),
}


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("case", sorted(WIDENING_CASES))
def test_a_later_chunk_widens_an_inferred_column(case, chunk):
    """Earlier chunks are re-derived from their own text when a later
    chunk widens the column, so the whole file types as one piece."""
    text, kind, values = WIDENING_CASES[case]
    bulk, per_row = loaded_and_reference(text, chunk)
    assert bulk == per_row
    relation = from_csv_text(text)
    assert relation.schema.attributes[0].type == kind
    assert [row.values[0] for row in relation] == values
    assert relation.quarantine is None


@pytest.mark.parametrize("chunk", [1, 2])
def test_nan_is_refused_when_its_column_ends_float(chunk):
    text = csv_text(
        "level,valid_start,valid_end",
        "1,0,5",
        "nan,1,5",
        "2.5,2,5",
        "NaN,3,5",
        "3,4,5",
    )
    bulk, per_row = loaded_and_reference(text, chunk)
    assert bulk == per_row
    report = QuarantineReport()
    with mock.patch.object(relation_io, "_CHUNK_RECORDS", chunk):
        relation = from_csv_text(text, on_error="quarantine", report=report)
    assert [row.values[0] for row in relation] == [1.0, 2.5, 3.0]
    assert [(row.line, row.reason) for row in report.rows] == [
        (
            line,
            f"NaN attribute value in tuple valid at [{start}, 5]; NaN does "
            "not order and would corrupt aggregate results",
        )
        for line, start in ((3, 1), (5, 3))
    ]


@pytest.mark.parametrize("chunk", [1, 2])
def test_a_later_field_count_refusal_is_reported_first(chunk):
    """A value refusal in the first chunk is held until the file ends,
    so a field-count refusal in the third chunk still comes first."""
    text = csv_text(
        "name,salary,valid_start,valid_end",
        "A,1,9,3",
        "B,2,0,5",
        "C,3,0,5",
        "D,4,0,5",
        "E,5,7",
        "F,6,0,5",
    )
    bulk, per_row = loaded_and_reference(text, chunk)
    assert bulk == per_row
    report = QuarantineReport()
    with mock.patch.object(relation_io, "_CHUNK_RECORDS", chunk):
        from_csv_text(text, on_error="quarantine", report=report)
    assert [(row.line, row.reason) for row in report.rows] == [
        (6, "expected 4 fields, got 3"),
        (2, "invalid valid-time bounds [9, 3]"),
    ]
    with mock.patch.object(relation_io, "_CHUNK_RECORDS", chunk):
        with pytest.raises(RelationIOError, match="^line 6: expected 4 fields"):
            from_csv_text(text)


def test_quarantine_order_is_field_count_first():
    """A short row after a bad interval is still reported first, as the
    per-row loader's first pass reported it."""
    text = (
        "name,salary,valid_start,valid_end\n"
        "A,1,9,3\n"
        "B,2,7\n"
        "C,3,0,5\n"
    )
    for load in (
        lambda r: from_csv_text(text, on_error="quarantine", report=r),
        lambda r: reference_read_csv(text, on_error="quarantine", report=r),
    ):
        report = QuarantineReport()
        load(report)
        assert [(row.line, row.reason) for row in report.rows] == [
            (3, "expected 4 fields, got 3"),
            (2, "invalid valid-time bounds [9, 3]"),
        ]
