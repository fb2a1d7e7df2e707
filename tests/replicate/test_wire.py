"""Wire-format unit tests: the rep.* frame schema and its row shape."""

from __future__ import annotations

import pytest

from repro.core.interval import FOREVER
from repro.exec.errors import ReplicationError
from repro.relation.schema import EMPLOYED_SCHEMA, Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.protocol import MAX_FRAME_BYTES, decode_body, encode_frame
from repro.serve.server import append_rows
from repro.storage.journal import STATEMENT_RETENTION
from repro.storage.page import PAGE_FOOTER_BYTES, PAGE_HEADER_BYTES, PAGE_SIZE
from repro.tsql2.executor import TSQL2SemanticError
from repro.replicate.wire import (
    ShipBatch,
    heartbeat_frame,
    hello_frame,
    optional_str,
    require_int,
    schema_spec,
    ship_frame,
    sync_chunk_rows,
    sync_frame,
    wire_rows,
)


def test_wire_rows_parse_back_as_append_rows():
    rows = [TemporalTuple(("ann", 1), 0, 5), TemporalTuple(("bo", -2), 3, FOREVER)]
    shipped = decode_body(encode_frame({"rows": wire_rows(rows)})[4:])["rows"]
    assert shipped == [["ann", 1, 0, 5], ["bo", -2, 3, FOREVER]]
    assert append_rows(shipped) == [(["ann", 1], 0, 5), (["bo", -2], 3, FOREVER)]


def test_shipped_rows_must_be_lists_of_values_and_bounds():
    for rows in (None, {"a": 1}, [42], [["a"]], ["ann,1,0,5"]):
        with pytest.raises(TSQL2SemanticError):
            append_rows(rows)


def _worst_case_row(schema):
    """A row whose JSON text is as long as ``schema`` allows: every
    declared str byte escaped as ``\\u00XX``, the longest int and float
    texts, and ``FOREVER`` for both bounds."""
    values = {
        "str": lambda width: "\x01" * width,
        "int": lambda width: -(2**31),
        "float": lambda width: -2.2250738585072014e-308,
    }
    return [
        *(values[a.type](a.width) for a in schema.attributes),
        FOREVER,
        FOREVER,
    ]


def test_full_sync_chunk_of_worst_case_rows_fits_a_frame():
    widest = PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
    schemas = [
        EMPLOYED_SCHEMA,
        Schema.of("note:str:600", "salary:int:4"),
        Schema.of("reading:float", "n:int", padding=3),
        Schema.of(f"note:str:{widest - 8}"),
    ]
    assert schemas[-1].record_bytes == widest
    # The largest ledger a final chunk carries.
    statements = [
        (f"client-{index:08d}:{index}", 2**40 + index, 2**40 + index)
        for index in range(STATEMENT_RETENTION)
    ]
    for schema in schemas:
        base = dict(
            base_count=2**40,
            version=2**40,
            row_count=2**41,
            fingerprint=2**64 - 1,
            statements=statements,
            final=False,
        )
        reserved = len(encode_frame(sync_frame(2**31, "jobs", rows=[], **base)))
        step = sync_chunk_rows(schema, reserved)
        assert step >= 1
        rows = [_worst_case_row(schema)] * step
        frame = encode_frame(sync_frame(2**31, "jobs", rows=rows, **base))
        assert len(frame) - 4 <= MAX_FRAME_BYTES
    assert sync_chunk_rows(EMPLOYED_SCHEMA, reserved) > 8192


def test_schema_spec_names_every_attribute_and_the_padding():
    assert schema_spec(EMPLOYED_SCHEMA) == {
        "attributes": [["name", "str", 8], ["salary", "int", 4]],
        "padding": 108,
    }
    renamed = Schema.of("who:str:8", "salary:int:4", padding=108)
    assert renamed.record_bytes == EMPLOYED_SCHEMA.record_bytes
    assert schema_spec(renamed) != schema_spec(EMPLOYED_SCHEMA)


def test_ship_frame_carries_batch_identity():
    batch = ShipBatch(
        table="jobs",
        version=7,
        row_count=42,
        base_count=40,
        fingerprint=0xDEAD,
        sid="c1:7",
        rows=[["ann", 1, 0, 5]],
    )
    frame = ship_frame(3, batch)
    assert frame["op"] == "rep.ship"
    assert frame["epoch"] == 3
    assert (frame["version"], frame["row_count"], frame["base_count"]) == (
        7,
        42,
        40,
    )
    assert frame["sid"] == "c1:7"
    assert frame["rows"] == [["ann", 1, 0, 5]]


def test_sync_frame_marks_final_chunk():
    frame = sync_frame(
        1,
        "jobs",
        base_count=0,
        version=5,
        row_count=10,
        fingerprint=99,
        rows=[],
        statements=[("c1:1", 1, 2)],
        final=True,
    )
    assert frame["final"] is True
    assert frame["statements"] == [["c1:1", 1, 2]]


def test_hello_frame_optional_endpoint():
    bare = hello_frame(2, {"jobs": {"schema": schema_spec(EMPLOYED_SCHEMA)}})
    assert "endpoint" not in bare
    with_ep = hello_frame(2, {}, "127.0.0.1:7401")
    assert with_ep["endpoint"] == "127.0.0.1:7401"
    assert heartbeat_frame(4) == {"op": "rep.heartbeat", "epoch": 4}


def test_require_int_rejects_bool_and_absent():
    assert require_int({"n": 3}, "n") == 3
    with pytest.raises(ReplicationError, match="integer 'n'"):
        require_int({"n": True}, "n")
    with pytest.raises(ReplicationError, match="integer 'n'"):
        require_int({}, "n")


def test_optional_str_treats_empty_as_absent():
    assert optional_str({"s": "x"}, "s") == "x"
    assert optional_str({"s": ""}, "s") is None
    assert optional_str({}, "s") is None
    assert optional_str({"s": 3}, "s") is None
