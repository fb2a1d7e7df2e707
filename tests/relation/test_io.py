"""Tests of temporal CSV import/export."""

import csv
import gc
import io
import random

import pytest

from repro.core.interval import FOREVER, format_instant
from repro.relation.io import (
    RelationIOError,
    from_csv_text,
    read_csv,
    to_csv_text,
    write_csv,
)
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA, Attribute, Schema

EMPLOYED_CSV = """\
name,salary,valid_start,valid_end
Richard,40000,18,forever
Karen,45000,8,20
Nathan,35000,7,12
Nathan,37000,18,21
"""


class TestRead:
    def test_read_with_schema(self, employed):
        relation = from_csv_text(EMPLOYED_CSV, schema=EMPLOYED_SCHEMA)
        assert relation.rows() == employed.rows()

    def test_read_with_inference(self):
        relation = from_csv_text(EMPLOYED_CSV)
        assert relation.schema.attribute("salary").type == "int"
        assert relation.schema.attribute("name").type == "str"
        assert relation[0].end == FOREVER

    def test_float_inference(self):
        text = "reading,valid_start,valid_end\n3.5,0,10\n4,11,20\n"
        relation = from_csv_text(text)
        assert relation.schema.attribute("reading").type == "float"
        assert relation[1].values[0] == 4.0

    def test_blank_lines_skipped(self):
        text = "a,valid_start,valid_end\nx,0,5\n\n   \ny,6,9\n"
        assert len(from_csv_text(text)) == 2

    def test_from_file_path(self, tmp_path, employed):
        path = tmp_path / "employed.csv"
        path.write_text(EMPLOYED_CSV)
        relation = read_csv(str(path), schema=EMPLOYED_SCHEMA, name="E")
        assert relation.name == "E"
        assert len(relation) == 4


class TestReadErrors:
    def test_empty_file(self):
        with pytest.raises(RelationIOError, match="header"):
            from_csv_text("")

    def test_missing_time_columns(self):
        with pytest.raises(RelationIOError, match="valid_start"):
            from_csv_text("name,salary,start,end\nA,1,0,5\n")

    def test_too_few_columns(self):
        with pytest.raises(RelationIOError, match="at least one attribute"):
            from_csv_text("valid_start,valid_end\n0,5\n")

    def test_ragged_row(self):
        with pytest.raises(RelationIOError, match="expected 4 fields"):
            from_csv_text("a,b,valid_start,valid_end\nx,1,0\n")

    def test_schema_header_mismatch(self):
        with pytest.raises(RelationIOError, match="does not match schema"):
            from_csv_text(
                "who,salary,valid_start,valid_end\nA,1,0,5\n",
                schema=EMPLOYED_SCHEMA,
            )

    def test_bad_int_value(self):
        schema = Schema.of("n:int")
        with pytest.raises(RelationIOError, match="not an int"):
            from_csv_text("n,valid_start,valid_end\nabc,0,5\n", schema=schema)

    def test_bad_instant(self):
        with pytest.raises(RelationIOError, match="instant"):
            from_csv_text("a,valid_start,valid_end\nx,soonish,5\n")

    def test_inverted_interval(self):
        with pytest.raises(RelationIOError):
            from_csv_text("a,valid_start,valid_end\nx,9,3\n")

    def test_undecodable_bytes(self):
        """A file that is not text in its encoding is refused as a
        RelationIOError, in either policy, not a UnicodeDecodeError."""
        raw = b"name,valid_start,valid_end\nJos\xe9,0,5\n"
        for on_error in ("raise", "quarantine"):
            stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
            with pytest.raises(RelationIOError, match="not utf-8 text") as caught:
                read_csv(stream, on_error=on_error)
            assert "line 1 or later" in str(caught.value)

    def test_inferred_str_cell_with_no_utf8_is_a_row_refusal(self):
        """A lone surrogate, which only a str or stream source carries,
        is refused as its row, not raised as a UnicodeEncodeError."""
        text = "a,valid_start,valid_end\n\ud800,0,1\nok,1,2\n"
        with pytest.raises(RelationIOError, match="^row 2: .*no UTF-8"):
            from_csv_text(text)
        relation = from_csv_text(text, on_error="quarantine")
        assert [row.values for row in relation] == [("ok",)]
        assert relation.schema.attribute("a").type == "str"
        [quarantined] = relation.quarantine.rows
        assert (quarantined.line, quarantined.fields) == (2, ["\ud800", "0", "1"])

    def test_field_over_the_csv_limit(self):
        huge = "x" * (csv.field_size_limit() + 1)
        text = f"name,valid_start,valid_end\nA,0,5\n{huge},0,5\n"
        for on_error in ("raise", "quarantine"):
            with pytest.raises(RelationIOError, match="^line 3: field larger"):
                from_csv_text(text, on_error=on_error)


class TestGarbageCollectorState:
    """The load leaves the caller's cyclic-GC setting as it found it,
    whether the build succeeds or fails."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            from_csv_text(EMPLOYED_CSV)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_restored_when_the_build_fails(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise MemoryError("no room for the rows")

        monkeypatch.setattr(
            "repro.relation.io.TemporalRelation.from_columns", broken
        )
        gc.enable()
        with pytest.raises(MemoryError):
            from_csv_text(EMPLOYED_CSV)
        assert gc.isenabled()


class TestHeaderErrors:
    """A bad attribute name is a header problem: RelationIOError naming
    the header, in either error policy, before any row is read."""

    @pytest.mark.parametrize(
        "header, problem",
        [
            ("a,a,valid_start,valid_end", "duplicate attribute name"),
            ("Name,name,valid_start,valid_end", "duplicate attribute name"),
            ("a,,valid_start,valid_end", "invalid attribute name"),
            ("a, ,valid_start,valid_end", "invalid attribute name"),
            ("a-b,valid_start,valid_end", "invalid attribute name"),
            ("first name,valid_start,valid_end", "invalid attribute name"),
        ],
    )
    @pytest.mark.parametrize("on_error", ["raise", "quarantine"])
    def test_bad_attribute_name(self, header, problem, on_error):
        text = header + "\n" + ",".join(["x"] * (header.count(",") - 1)) + ",0,5\n"
        with pytest.raises(RelationIOError, match=problem) as caught:
            from_csv_text(text, on_error=on_error)
        assert "bad header" in str(caught.value)
        assert "valid_start" in str(caught.value)

    def test_header_checked_before_rows(self):
        """The header is refused even when every data row is broken too."""
        with pytest.raises(RelationIOError, match="bad header"):
            from_csv_text("a,a,valid_start,valid_end\nonly-one-field\n")

    def test_bad_name_with_declared_schema(self):
        with pytest.raises(RelationIOError, match="bad header"):
            from_csv_text(
                "name,name,valid_start,valid_end\nA,1,0,5\n",
                schema=EMPLOYED_SCHEMA,
            )


class TestWriteAndRoundtrip:
    def test_roundtrip_text(self, employed):
        text = to_csv_text(employed)
        back = from_csv_text(text, schema=EMPLOYED_SCHEMA)
        assert back.rows() == employed.rows()

    def test_roundtrip_file(self, tmp_path, small_random_relation):
        path = str(tmp_path / "rel.csv")
        write_csv(small_random_relation, path)
        back = read_csv(path, schema=small_random_relation.schema)
        assert back.rows() == small_random_relation.rows()

    def test_forever_rendered(self, employed):
        assert "forever" in to_csv_text(employed)

    def test_header_shape(self, employed):
        header = to_csv_text(employed).splitlines()[0]
        assert header == "name,salary,valid_start,valid_end"

    def test_write_to_open_handle(self, employed):
        buffer = io.StringIO()
        write_csv(employed, buffer)
        assert buffer.getvalue().count("\n") == 5

    @pytest.mark.parametrize("relation", ["employed", "mixed"])
    def test_writes_the_row_wise_bytes(self, relation, employed, tmp_path):
        """``write_csv`` renders the stored columns exactly as rendering
        one row object at a time did."""
        relation = employed if relation == "employed" else mixed_relation()
        path = tmp_path / "written.csv"
        write_csv(relation, str(path))
        with open(tmp_path / "rows.csv", "w", newline="") as handle:
            write_rows(relation, handle)
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        buffer = io.StringIO()
        write_rows(relation, buffer)
        assert to_csv_text(relation) == buffer.getvalue()

    def test_inferred_roundtrip_preserves_values(self, small_random_relation):
        text = to_csv_text(small_random_relation)
        back = from_csv_text(text)  # schema inferred
        assert [
            (r.values[0], r.values[1], r.start, r.end) for r in back
        ] == [
            (r.values[0], r.values[1], r.start, r.end)
            for r in small_random_relation
        ]


def write_rows(relation, handle) -> None:
    """The row-wise rendering ``write_csv`` replaced: one row object at
    a time."""
    writer = csv.writer(handle)
    writer.writerow(list(relation.schema.names()) + ["valid_start", "valid_end"])
    for row in relation:
        writer.writerow(
            [str(value) for value in row.values]
            + [format_instant(row.start), format_instant(row.end)]
        )


def mixed_relation() -> TemporalRelation:
    """A random relation with int, float and str attributes (an int past
    int64, signed zeros and infinities, text CSV must quote) and open
    ends."""
    rng = random.Random(7)
    schema = Schema(
        (Attribute("id", "int"), Attribute("score", "float"), Attribute("note", "str"))
    )
    relation = TemporalRelation(schema, name="mixed")
    texts = ["", "plain", "a,b", 'say "hi"', "two\nlines", " padded ", "∞"]
    floats = [0.1, -0.0, 1e300, float("inf"), -2.5, 3.0]
    for index in range(200):
        start = rng.randrange(1_000)
        end = FOREVER if rng.random() < 0.3 else start + rng.randrange(100)
        identifier = 2**70 if index == 17 else rng.randrange(-10**6, 10**6)
        relation.insert(
            (identifier, rng.choice(floats) * rng.random(), rng.choice(texts)),
            start,
            end,
        )
    return relation
