"""Tests for the fixed-width record codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interval import FOREVER
from repro.relation.schema import EMPLOYED_SCHEMA, Schema
from repro.relation.tuples import TemporalTuple
from repro.storage.codec import (
    CodecError,
    FixedWidthCodec,
    TIMESTAMP_FOREVER,
)


@pytest.fixture
def codec():
    return FixedWidthCodec(EMPLOYED_SCHEMA)


class TestTimestamps:
    def test_roundtrip(self):
        for value in (0, 1, 999_999, TIMESTAMP_FOREVER - 1):
            raw = FixedWidthCodec.encode_timestamp(value)
            assert len(raw) == 4
            assert FixedWidthCodec.decode_timestamp(raw) == value

    def test_forever_saturates(self):
        raw = FixedWidthCodec.encode_timestamp(FOREVER)
        assert FixedWidthCodec.decode_timestamp(raw) == FOREVER

    def test_beyond_forever_also_saturates(self):
        raw = FixedWidthCodec.encode_timestamp(FOREVER + 12345)
        assert FixedWidthCodec.decode_timestamp(raw) == FOREVER

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            FixedWidthCodec.encode_timestamp(-1)

    def test_too_large_finite_rejected(self):
        with pytest.raises(CodecError):
            FixedWidthCodec.encode_timestamp(TIMESTAMP_FOREVER)


class TestRecords:
    def test_record_is_128_bytes(self, codec):
        record = codec.encode(TemporalTuple(("Karen", 45_000), 8, 20))
        assert len(record) == 128

    def test_roundtrip(self, codec):
        row = TemporalTuple(("Richard", 40_000), 18, FOREVER)
        assert codec.decode(codec.encode(row)) == row

    def test_string_padding_stripped(self, codec):
        row = TemporalTuple(("Ada", 1), 0, 1)
        assert codec.decode(codec.encode(row)).values[0] == "Ada"

    def test_overlong_string_rejected(self, codec):
        row = TemporalTuple(("Bartholomew", 1), 0, 1)
        with pytest.raises(CodecError, match="exceeds"):
            codec.encode(row)

    @pytest.mark.parametrize(
        "name, reason",
        [("bo\x00", "ends in NUL"), ("s\ud800", "no UTF-8")],
        ids=["trailing-nul", "lone-surrogate"],
    )
    def test_string_that_cannot_decode_back_rejected(self, codec, name, reason):
        """A trailing NUL would be stripped with the padding, and a lone
        surrogate has no UTF-8: neither record gives its string back."""
        with pytest.raises(CodecError, match=reason):
            codec.encode(TemporalTuple((name, 1), 0, 1))
        # An inner NUL is stored and given back.
        row = TemporalTuple(("a\x00b", 1), 0, 1)
        assert codec.decode(codec.encode(row)) == row

    def test_out_of_range_int_rejected(self, codec):
        row = TemporalTuple(("A", 2**40), 0, 1)
        with pytest.raises(CodecError):
            codec.encode(row)

    def test_negative_int_roundtrip(self, codec):
        row = TemporalTuple(("A", -42), 0, 1)
        assert codec.decode(codec.encode(row)).values[1] == -42

    def test_decode_wrong_length_rejected(self, codec):
        with pytest.raises(CodecError, match="128-byte"):
            codec.decode(b"\x00" * 17)

    def test_timestamps_only_fast_path(self, codec):
        record = codec.encode(TemporalTuple(("Karen", 45_000), 8, 20))
        assert codec.decode_timestamps_only(record) == (8, 20)

    def test_float_attribute_roundtrip(self):
        schema = Schema.of("reading:float")
        codec = FixedWidthCodec(schema)
        row = TemporalTuple((3.14159,), 5, 9)
        assert codec.decode(codec.encode(row)).values[0] == pytest.approx(3.14159)

    def test_utf8_strings(self, codec):
        row = TemporalTuple(("Zoë", 1), 0, 1)
        assert codec.decode(codec.encode(row)).values[0] == "Zoë"

    def test_utf8_width_counts_bytes(self, codec):
        # 8 characters but >8 UTF-8 bytes must be rejected.
        with pytest.raises(CodecError):
            codec.encode(TemporalTuple(("Zoëzoëzo", 1), 0, 1))


class TestSchemaConstraints:
    def test_nonstandard_int_width_rejected(self):
        schema = Schema.of("n:int:2")
        with pytest.raises(CodecError, match="4 bytes"):
            FixedWidthCodec(schema)

    def test_nonstandard_float_width_rejected(self):
        schema = Schema.of("x:float:4")
        with pytest.raises(CodecError, match="8 bytes"):
            FixedWidthCodec(schema)


names = st.text(
    alphabet=st.characters(min_codepoint=65, max_codepoint=122), max_size=8
)


class TestRoundtripProperty:
    @given(
        name=names,
        salary=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        start=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=0, max_value=10**6),
        to_forever=st.booleans(),
    )
    def test_encode_decode_identity(self, name, salary, start, length, to_forever):
        codec = FixedWidthCodec(EMPLOYED_SCHEMA)
        end = FOREVER if to_forever else start + length
        row = TemporalTuple((name, salary), start, end)
        assert codec.decode(codec.encode(row)) == row
