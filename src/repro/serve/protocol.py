"""The wire format: length-prefixed frames, JSON or typed columns.

Every message in either direction is one *frame*: a 4-byte big-endian
unsigned length followed by exactly that many bytes of *body*.  The
format has to be implementable from this docstring alone:

* length ``0`` is invalid (every frame carries a message);
* lengths above :data:`MAX_FRAME_BYTES` (8 MiB) are refused *before*
  reading the body, so a garbage header cannot make a peer allocate
  gigabytes.

A body is one of two kinds, told apart by its first byte.

**JSON frames.**  The body is UTF-8 JSON encoding one object.  Every
request is a JSON frame (the server answers anything else with a typed
``FrameError``), and so is every reply except a successful ``query``
reply: the hello, error replies, ``stats``, ``append``, ``pong``,
``closed`` and the replication ``rep.*`` ops.

**Column frames.**  A successful ``query`` reply carries its answer as
typed columns instead of JSON rows::

    0x00           marker byte (no JSON text starts with it)
    header length  4 bytes, big-endian unsigned
    header         that many bytes of UTF-8 JSON, one object
    column bytes   the packed columns, back to back, in column order

The header holds every reply field but the rows (``ok``, ``op``,
``columns`` with the column names, ``pinned``, ``role``,
``elapsed_ms``), plus ``layout``: ``{"rows": N, "columns": [...]}``
with one descriptor per name in ``columns``:

* ``{"kind": "q", "bytes": 8N}`` -- N signed 64-bit integers, for a
  column whose non-null values are all integers in int64 range;
* ``{"kind": "d", "bytes": 8N}`` -- N IEEE 754 binary64 floats, for a
  column whose non-null values are all floats;
* ``{"kind": "json", "values": [...]}`` -- the N values as JSON: any
  other column (strings, booleans, integers past int64, mixed types,
  no non-null value);
* ``{"kind": "gapless", "first": s}`` -- ``valid_start`` left off the
  wire, because every row starts at the previous row's ``valid_end``
  plus 1: row 0 starts at ``s``, row i at row i-1's ``valid_end`` + 1.
  Only ``valid_start`` takes this kind, and only beside a
  ``valid_end`` column of kind ``q`` without nulls.

Packed values are little-endian.  A ``q`` or ``d`` descriptor may
carry ``"nulls": [i, ...]``, the row positions whose value is null;
the packed slot at such a position holds zero and is not read.  The
``bytes`` of the packed columns add up to the rest of the body
exactly.

A column frame decodes to the object the JSON frame of the same reply
decodes to: the header's fields, with ``layout`` replaced by
``"rows"``, one list per row in column order.  Malformed frames of
either kind raise :class:`FrameError`; a clean end-of-stream before a
complete header raises :class:`ConnectionClosed` so callers can tell a
departed peer from a misbehaving one.

Requests carry ``{"op": ...}`` plus op-specific fields (``query``,
``append``, ``stats``, ``ping``, ``close``); replies carry
``{"ok": true, ...}`` or ``{"ok": false, "error": {"type", "message",
"hint", ...}}``.  The op vocabulary lives in
:mod:`repro.serve.server`; this module only moves frames.  A reply
payload with a ``data`` field (one sequence per name in ``columns``)
is encoded as a column frame; ``data`` itself never crosses the wire.

Both a blocking-socket flavor (client library, tests) and an asyncio
flavor (server) are provided over the same encode/decode core.
"""

from __future__ import annotations

import asyncio
import json
import operator
import socket
import struct
import sys
from array import array
from itertools import islice
from typing import Any, Dict, List, Sequence

from repro.exec.errors import TemporalAggregateError

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "ConnectionClosed",
    "encode_frame",
    "decode_body",
    "send_frame",
    "recv_frame",
    "write_frame",
    "read_frame",
]

#: Hard ceiling on one frame's body.  A gapless one-aggregate answer
#: takes 16 bytes a row in a column frame, so about 524K rows fit;
#: small enough that a hostile length header cannot balloon memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: First byte of a column frame's body, and the bytes before its JSON
#: header (the marker and the header length).
_COLUMN_MARKER = b"\x00"
_PREFIX = len(_COLUMN_MARKER) + _HEADER.size

#: Bytes per packed value, for both packed kinds.
_WORD = 8

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Packing byte-swaps on a big-endian host: the wire is little-endian.
_SWAP = sys.byteorder != "little"


class FrameError(TemporalAggregateError):
    """A malformed frame: bad length, bad UTF-8, bad JSON, a non-object
    body, or a column body whose layout does not hold.  The peer that
    sent it is not speaking the protocol; the server answers once (when
    it can) and hangs up."""


class ConnectionClosed(Exception):
    """The peer closed the connection at a frame boundary (clean EOF),
    or mid-frame (the message carries which)."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame's bytes: length header plus a JSON body, or a column
    body when ``payload`` has a ``data`` field."""
    data = payload.get("data")
    body = _json_body(payload) if data is None else _column_body(payload, data)
    return _HEADER.pack(len(body)) + body


def _json_body(payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return body


class _Column:
    """One column's wire kind, decided before anything is packed."""

    __slots__ = ("values", "kind", "nulls")

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values
        self.nulls: List[int] = []
        if isinstance(values, array) and values.typecode in ("q", "d"):
            self.kind = values.typecode
            return
        types = set(map(type, values))
        if type(None) in types:
            types.discard(type(None))
            self.nulls = [i for i, value in enumerate(values) if value is None]
        if types == {int}:
            present = [v for v in values if v is not None] if self.nulls else values
            fits = _INT64_MIN <= min(present) and max(present) <= _INT64_MAX
            self.kind = "q" if fits else "json"
        else:
            self.kind = "d" if types == {float} else "json"

    def descriptor(self, rows: int) -> Dict[str, Any]:
        if self.kind == "json":
            return {"kind": "json", "values": list(self.values)}
        if self.kind == "gapless":
            return {"kind": "gapless", "first": self.values[0]}
        descriptor: Dict[str, Any] = {"kind": self.kind, "bytes": _WORD * rows}
        if self.nulls:
            descriptor["nulls"] = self.nulls
        return descriptor

    def packed(self) -> bytes:
        values = self.values
        if self.nulls:
            patched = list(values)
            zero = 0 if self.kind == "q" else 0.0
            for position in self.nulls:
                patched[position] = zero
            values = patched
        if isinstance(values, array) and values.typecode == self.kind and not _SWAP:
            return values.tobytes()
        column = array(self.kind, values)
        if _SWAP:
            column.byteswap()
        return column.tobytes()


def _gapless(starts: Sequence[int], ends: Sequence[int]) -> bool:
    """Whether each row starts at the previous row's end + 1."""
    return all(
        map(operator.eq, islice(starts, 1, None), map((1).__add__, ends))
    )


def _column_body(payload: Dict[str, Any], data: Sequence[Sequence[Any]]) -> bytes:
    """A column frame's body; the size is checked against the cap from
    the row count and the column kinds, before any column is packed."""
    names = list(payload.get("columns") or ())
    if len(names) != len(data):
        raise FrameError(
            f"{len(data)} data columns for {len(names)} column names"
        )
    rows = len(data[0]) if data else 0
    if any(len(values) != rows for values in data):
        raise FrameError("data columns differ in length")
    columns = [_Column(values) for values in data]
    if rows and "valid_start" in names and "valid_end" in names:
        start = columns[names.index("valid_start")]
        end = columns[names.index("valid_end")]
        if (
            start.kind == end.kind == "q"
            and not start.nulls
            and not end.nulls
            and _gapless(start.values, end.values)
        ):
            start.kind = "gapless"
    header = dict(payload)
    del header["data"]
    header["layout"] = {
        "rows": rows,
        "columns": [column.descriptor(rows) for column in columns],
    }
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    packed = [column for column in columns if column.kind in ("q", "d")]
    size = _PREFIX + len(encoded) + _WORD * rows * len(packed)
    if size > MAX_FRAME_BYTES:
        raise FrameError(
            f"a reply of {rows} rows needs {size} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return b"".join(
        [_COLUMN_MARKER, _HEADER.pack(len(encoded)), encoded]
        + [column.packed() for column in packed]
    )


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one frame body of either kind; raises :class:`FrameError`
    on garbage."""
    if body[:1] == _COLUMN_MARKER:
        return _decode_columns(body)
    return _decode_json(body)


def _decode_json(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise FrameError(f"frame body is not UTF-8 JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _is_count(value: Any) -> bool:
    return type(value) is int and bool(value >= 0)


def _decode_columns(body: bytes) -> Dict[str, Any]:
    offset = _PREFIX
    if len(body) < offset:
        raise FrameError("column frame ends inside its header length")
    (length,) = _HEADER.unpack_from(body, len(_COLUMN_MARKER))
    if offset + length > len(body):
        raise FrameError(
            f"column frame header of {length} bytes runs past the "
            f"{len(body)}-byte body"
        )
    header = _decode_json(body[offset : offset + length])
    offset += length
    layout = header.pop("layout", None)
    names = header.get("columns")
    if (
        not isinstance(layout, dict)
        or not _is_count(layout.get("rows"))
        or not isinstance(layout.get("columns"), list)
        or not isinstance(names, list)
        or len(names) != len(layout["columns"])
    ):
        raise FrameError(
            "column frame header needs 'columns' and a 'layout' with 'rows' "
            "and one descriptor per column"
        )
    rows: int = layout["rows"]
    descriptors: List[Any] = layout["columns"]
    if not names and rows:
        raise FrameError(f"column frame declares {rows} rows but no columns")
    declared = 0
    for name, descriptor in zip(names, descriptors):
        declared += _check_descriptor(name, descriptor, rows)
    kinds = [descriptor["kind"] for descriptor in descriptors]
    gapless = kinds.index("gapless") if "gapless" in kinds else None
    if gapless is not None:
        end = names.index("valid_end") if "valid_end" in names else None
        if (
            kinds.count("gapless") > 1
            or end is None
            or kinds[end] != "q"
            or descriptors[end].get("nulls")
        ):
            raise FrameError(
                "one gapless valid_start needs a valid_end column of kind "
                "'q' without nulls"
            )
    if declared != len(body) - offset:
        raise FrameError(
            f"column byte counts add up to {declared}, but "
            f"{len(body) - offset} bytes follow the header"
        )
    view = memoryview(body)
    values: List[List[Any]] = []
    for descriptor, kind in zip(descriptors, kinds):
        if kind == "json":
            values.append(descriptor["values"])
        elif kind == "gapless":
            values.append([])  # built from valid_end below
        else:
            column = array(kind)
            column.frombytes(view[offset : offset + descriptor["bytes"]])
            offset += descriptor["bytes"]
            if _SWAP:
                column.byteswap()
            cells = column.tolist()
            for position in descriptor.get("nulls", ()):
                cells[position] = None
            values.append(cells)
    if gapless is not None and rows:
        ends = values[names.index("valid_end")]
        first = descriptors[gapless]["first"]
        values[gapless] = [first] + [stop + 1 for stop in ends[:-1]]
    header["rows"] = list(map(list, zip(*values)))
    return header


def _check_descriptor(name: Any, descriptor: Any, rows: int) -> int:
    """Validate one column descriptor; returns its packed byte count."""
    if not isinstance(descriptor, dict):
        raise FrameError(f"column {name!r}: descriptor is not an object")
    kind = descriptor.get("kind")
    if kind == "json":
        column = descriptor.get("values")
        if not isinstance(column, list) or len(column) != rows:
            raise FrameError(f"column {name!r}: 'values' must list {rows} values")
        return 0
    if kind == "gapless":
        if name != "valid_start" or type(descriptor.get("first")) is not int:
            raise FrameError(
                f"column {name!r}: only valid_start may be gapless, with an "
                f"integer 'first'"
            )
        return 0
    if kind not in ("q", "d"):
        raise FrameError(f"column {name!r}: unknown column kind {kind!r}")
    size = descriptor.get("bytes")
    if not _is_count(size) or size != _WORD * rows:
        raise FrameError(
            f"column {name!r}: byte count {size!r}, but {rows} rows of "
            f"{_WORD} bytes take {_WORD * rows}"
        )
    nulls = descriptor.get("nulls", [])
    if not isinstance(nulls, list) or not all(
        _is_count(position) and position < rows for position in nulls
    ):
        raise FrameError(f"column {name!r}: a null position is out of range")
    return _WORD * rows


def _checked_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


# ---------------------------------------------------------------------------
# Blocking sockets (client library, tests)
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Encode and send one frame over a blocking socket."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int, context: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and context == "header":
                raise ConnectionClosed("peer closed at a frame boundary")
            raise ConnectionClosed(f"peer closed mid-{context}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one complete frame of either kind from a blocking socket."""
    header = _recv_exact(sock, _HEADER.size, "header")
    length = _checked_length(header)
    return decode_body(_recv_exact(sock, length, "body"))


# ---------------------------------------------------------------------------
# asyncio streams (server)
# ---------------------------------------------------------------------------


def write_frame(writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
    """Queue one frame on an asyncio transport (caller drains)."""
    writer.write(encode_frame(payload))


async def read_frame(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one request frame from an asyncio stream: JSON only."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise ConnectionClosed("peer closed at a frame boundary") from None
        raise ConnectionClosed("peer closed mid-header") from None
    length = _checked_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("peer closed mid-body") from None
    if body[:1] == _COLUMN_MARKER:
        raise FrameError("column frames carry query replies; requests are JSON")
    return _decode_json(body)
