"""Fixed-width record codec for temporal tuples.

The paper's experiments store 128-byte tuples: a 6-byte name, 4-byte
salary, two 4-byte timestamps and 110 bytes of payload the aggregate
never examines (Section 6).  :class:`FixedWidthCodec` reproduces that
layout for any :class:`~repro.relation.schema.Schema`:

* ``str``  attributes — UTF-8, NUL-padded to the declared width (so
  a string ending in NUL, or one with no UTF-8, is refused);
* ``int``  attributes — 4-byte big-endian signed;
* ``float`` attributes — 8-byte IEEE-754 double;
* the two timestamps — 4-byte big-endian unsigned, **saturating**:
  ``0xFFFF_FFFF`` encodes :data:`~repro.core.interval.FOREVER`, exactly
  the paper's "4 byte timestamps … sufficiently large for our
  relation's lifespan" convention;
* padding — NUL bytes.

Records are constant-size (``schema.record_bytes``), which keeps page
arithmetic trivial and matches the 128 KB–8 MB relation sizes quoted in
Table 3.

The module also owns the byte-level integrity primitive the durable
storage format builds on: :func:`content_checksum`, a CRC-32 over an
arbitrary byte region.  Pages seal themselves with it
(:mod:`repro.storage.page`) and the write-ahead journal CRCs every
record payload (:mod:`repro.storage.journal`), so a torn or bit-flipped
write is *detected* instead of silently decoded into wrong tuples.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.core.interval import FOREVER
from repro.exec.errors import StorageCorruption
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple

__all__ = [
    "CodecError",
    "FixedWidthCodec",
    "TIMESTAMP_BYTES",
    "TIMESTAMP_FOREVER",
    "content_checksum",
]

#: On-disk bytes per timestamp (paper Section 6).
TIMESTAMP_BYTES = 4

#: The saturated on-disk encoding of FOREVER.
TIMESTAMP_FOREVER = 0xFFFF_FFFF


def content_checksum(data: "bytes | bytearray | memoryview") -> int:
    """CRC-32 of ``data`` as an unsigned 32-bit integer.

    The storage layer's single integrity primitive: page footers and
    journal-record headers both store this, so scrub and recovery share
    one notion of "these bytes survived the disk".
    """
    return zlib.crc32(bytes(data)) & 0xFFFF_FFFF


class CodecError(ValueError):
    """Raised when a value cannot be encoded in its declared width."""


class FixedWidthCodec:
    """Encode/decode temporal tuples as fixed-width byte records."""

    def __init__(self, schema: Schema) -> None:
        for attribute in schema.attributes:
            if attribute.type == "int" and attribute.width != 4:
                raise CodecError(
                    f"int attribute {attribute.name!r} must be 4 bytes wide"
                )
            if attribute.type == "float" and attribute.width != 8:
                raise CodecError(
                    f"float attribute {attribute.name!r} must be 8 bytes wide"
                )
        self.schema = schema
        self.record_bytes = schema.record_bytes
        # Compiled batch formats for decode_page_columns, keyed by
        # (attribute position, record count); pages come in exactly two
        # counts (full and tail), so this stays tiny.
        self._column_structs: Dict[Tuple[Optional[int], int], struct.Struct] = {}

    # ------------------------------------------------------------------
    # Timestamps
    # ------------------------------------------------------------------

    @staticmethod
    def encode_timestamp(instant: int) -> bytes:
        """4-byte unsigned, saturating at FOREVER."""
        if instant >= FOREVER:
            return struct.pack(">I", TIMESTAMP_FOREVER)
        if not 0 <= instant < TIMESTAMP_FOREVER:
            raise CodecError(
                f"timestamp {instant} does not fit in {TIMESTAMP_BYTES} bytes"
            )
        return struct.pack(">I", instant)

    @staticmethod
    def decode_timestamp(raw: bytes) -> int:
        value = struct.unpack(">I", raw)[0]
        if value == TIMESTAMP_FOREVER:
            return FOREVER
        return value

    # ------------------------------------------------------------------
    # Whole records
    # ------------------------------------------------------------------

    def encode(self, row: TemporalTuple) -> bytes:
        """One tuple -> ``record_bytes`` bytes."""
        parts: List[bytes] = []
        for attribute, value in zip(self.schema.attributes, row.values):
            if attribute.type == "str":
                # The record must decode back to this very string.
                try:
                    raw = value.encode("utf-8")
                except UnicodeEncodeError as error:
                    raise CodecError(
                        f"string {value!r} has no UTF-8: {error.reason}"
                    ) from None
                if raw.endswith(b"\x00"):
                    raise CodecError(
                        f"string {value!r} ends in NUL, which decode strips"
                    )
                if len(raw) > attribute.width:
                    raise CodecError(
                        f"string {value!r} exceeds the {attribute.width}-byte "
                        f"width of attribute {attribute.name!r}"
                    )
                parts.append(raw.ljust(attribute.width, b"\x00"))
            elif attribute.type == "int":
                try:
                    parts.append(struct.pack(">i", value))
                except struct.error as exc:
                    raise CodecError(
                        f"int {value!r} does not fit attribute {attribute.name!r}"
                    ) from exc
            else:  # float
                parts.append(struct.pack(">d", value))
        parts.append(self.encode_timestamp(row.start))
        parts.append(self.encode_timestamp(row.end))
        parts.append(b"\x00" * self.schema.padding)
        record = b"".join(parts)
        if len(record) != self.record_bytes:
            raise CodecError(
                f"encoded {len(record)} bytes for a {self.record_bytes}-byte record"
            )
        return record

    def decode(self, record: bytes) -> TemporalTuple:
        """``record_bytes`` bytes -> one tuple."""
        if len(record) != self.record_bytes:
            raise CodecError(
                f"expected {self.record_bytes}-byte record, got {len(record)}"
            )
        values: List[Any] = []
        offset = 0
        for attribute in self.schema.attributes:
            raw = record[offset : offset + attribute.width]
            offset += attribute.width
            if attribute.type == "str":
                values.append(raw.rstrip(b"\x00").decode("utf-8"))
            elif attribute.type == "int":
                values.append(struct.unpack(">i", raw)[0])
            else:
                values.append(struct.unpack(">d", raw)[0])
        start = self.decode_timestamp(record[offset : offset + TIMESTAMP_BYTES])
        offset += TIMESTAMP_BYTES
        end = self.decode_timestamp(record[offset : offset + TIMESTAMP_BYTES])
        return TemporalTuple(tuple(values), start, end)

    def decode_timestamps_only(self, record: bytes) -> Tuple[int, int]:
        """Just the valid-time bounds (fast path for time-only scans).

        Length-validates up front: a truncated record raises a typed
        :class:`~repro.exec.errors.StorageCorruption` instead of a bare
        ``struct.error`` from halfway through the unpack.
        """
        if len(record) != self.record_bytes:
            raise StorageCorruption(
                f"truncated record: expected {self.record_bytes} bytes, "
                f"got {len(record)}"
            )
        offset = sum(a.width for a in self.schema.attributes)
        start = self.decode_timestamp(record[offset : offset + TIMESTAMP_BYTES])
        end = self.decode_timestamp(
            record[offset + TIMESTAMP_BYTES : offset + 2 * TIMESTAMP_BYTES]
        )
        return start, end

    # ------------------------------------------------------------------
    # Batch column decode (the page-to-row zero-tuple pipeline)
    # ------------------------------------------------------------------

    def _column_unit(self, position: Optional[int]) -> str:
        """One record's struct codes for a column decode.

        Everything the decode does not need is a pad run (``x`` codes),
        so a whole page unpacks in a single C call with no intermediate
        per-record objects: ``position=None`` reads just the two
        timestamps, an attribute position additionally reads that one
        attribute and skips its neighbours.
        """
        widths = [a.width for a in self.schema.attributes]
        padding = self.schema.padding
        if position is None:
            before = sum(widths)
            value_code = ""
            after = 0
        else:
            attribute = self.schema.attributes[position]
            before = sum(widths[:position])
            after = sum(widths[position + 1 :])
            if attribute.type == "int":
                value_code = "i"
            elif attribute.type == "float":
                value_code = "d"
            else:
                value_code = f"{attribute.width}s"
        parts = []
        if before:
            parts.append(f"{before}x")
        parts.append(value_code)
        if after:
            parts.append(f"{after}x")
        parts.append("II")
        if padding:
            parts.append(f"{padding}x")
        return "".join(parts)

    def _column_struct(self, position: Optional[int], count: int) -> struct.Struct:
        key = (position, count)
        compiled = self._column_structs.get(key)
        if compiled is None:
            compiled = struct.Struct(">" + self._column_unit(position) * count)
            self._column_structs[key] = compiled
        return compiled

    def decode_page_columns(
        self,
        region: "bytes | bytearray | memoryview",
        count: int,
        position: Optional[int] = None,
    ) -> Tuple["array[int]", "array[int]", Optional[List[Any]]]:
        """Batch-decode ``count`` records into flat columns.

        ``region`` holds exactly the packed records of one page (header
        and footer already sliced off).  One ``struct`` call unpacks
        the whole page; the flat result is strided into ``array('q')``
        start/end columns plus an optional value column — zero
        intermediate per-record tuples or TemporalTuple objects.
        Saturated on-disk timestamps (``0xFFFF_FFFF``) are widened back
        to :data:`~repro.core.interval.FOREVER` in place.
        """
        values: Optional[List[Any]]
        if count == 0:
            return array("q"), array("q"), ([] if position is not None else None)
        if len(region) != count * self.record_bytes:
            raise StorageCorruption(
                f"page region holds {len(region)} bytes, expected "
                f"{count} x {self.record_bytes}-byte records"
            )
        flat = self._column_struct(position, count).unpack(region)
        if position is None:
            starts = array("q", flat[0::2])
            ends = array("q", flat[1::2])
            values = None
        else:
            raw_values = flat[0::3]
            starts = array("q", flat[1::3])
            ends = array("q", flat[2::3])
            if self.schema.attributes[position].type == "str":
                values = [v.rstrip(b"\x00").decode("utf-8") for v in raw_values]
            else:
                values = list(raw_values)
        # `in` scans at C speed; the per-element widen loop only runs
        # on pages that actually store a saturated timestamp.
        if TIMESTAMP_FOREVER in starts:
            for index, value in enumerate(starts):  # ta: hot
                if value == TIMESTAMP_FOREVER:
                    starts[index] = FOREVER
        if TIMESTAMP_FOREVER in ends:
            for index, value in enumerate(ends):  # ta: hot
                if value == TIMESTAMP_FOREVER:
                    ends[index] = FOREVER
        return starts, ends, values
