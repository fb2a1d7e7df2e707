"""Frame protocol unit tests: the boring format, enforced precisely."""

from __future__ import annotations

import json
import socket
import struct
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameError,
    decode_body,
    encode_frame,
    recv_frame,
    send_frame,
)


def pair():
    return socket.socketpair()


class TestEncodeDecode:
    def test_roundtrip(self):
        payload = {"op": "query", "text": "SELECT COUNT(x) FROM t", "n": 3}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_body_is_compact_json(self):
        frame = encode_frame({"a": 1})
        assert frame[4:] == b'{"a":1}'

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_body_refused(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_body(b"[1,2,3]")

    def test_garbage_body_refused(self):
        with pytest.raises(FrameError, match="not UTF-8 JSON"):
            decode_body(b"\xff\xfe not json \x00")


class TestBlockingSockets:
    def test_send_recv_roundtrip(self):
        a, b = pair()
        try:
            send_frame(a, {"op": "ping"})
            assert recv_frame(b) == {"op": "ping"}
        finally:
            a.close()
            b.close()

    def test_many_frames_in_sequence(self):
        a, b = pair()
        try:
            for i in range(10):
                send_frame(a, {"i": i})
            for i in range(10):
                assert recv_frame(b) == {"i": i}
        finally:
            a.close()
            b.close()

    def test_clean_eof_raises_connection_closed(self):
        a, b = pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed, match="frame boundary"):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_mid_header_is_distinguished(self):
        a, b = pair()
        try:
            a.sendall(b"\x00\x00")  # half a header, then hang up
            a.close()
            with pytest.raises(ConnectionClosed, match="mid-header"):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_mid_body_is_distinguished(self):
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only a little")
            a.close()
            with pytest.raises(ConnectionClosed, match="mid-body"):
                recv_frame(b)
        finally:
            b.close()

    def test_zero_length_header_refused(self):
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(FrameError, match="zero-length"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_hostile_length_refused_before_allocation(self):
        """A header announcing 4 GiB must fail from the header alone —
        the body is never read."""
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 0xFFFFFFFF))
            with pytest.raises(FrameError, match="over the"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_partial_sends_reassemble(self):
        """recv_frame must loop: one frame delivered a byte at a time."""
        a, b = pair()
        frame = encode_frame({"op": "stats", "detail": "x" * 100})
        received = {}

        def reader():
            received.update(recv_frame(b))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(len(frame)):
                a.sendall(frame[i : i + 1])
            thread.join(timeout=10.0)
            assert received["op"] == "stats"
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Column frames
# ---------------------------------------------------------------------------

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Cell values: int64 extremes, ints past int64, bools, fractional
#: floats, -0.0 and infinities, strings.  NaN is left out only because
#: it never equals itself.
int64s = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MAX, -1, 0, 1]),
    st.integers(INT64_MIN, INT64_MAX),
)
wide_ints = st.integers(-(1 << 80), 1 << 80)
floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.5, float("inf"), float("-inf")]),
    st.floats(allow_nan=False),
)
cells = st.one_of(int64s, wide_ints, st.booleans(), floats, st.text(max_size=5))


def reply_of(names, data):
    return {
        "ok": True,
        "op": "query",
        "columns": names,
        "data": data,
        "pinned": {"table": "jobs", "version": 3, "row_count": 9},
        "role": "primary",
        "elapsed_ms": 0.25,
    }


def json_round_trip(reply):
    """What the JSON frame of ``reply``, with its rows, decodes to."""
    payload = {key: value for key, value in reply.items() if key != "data"}
    payload["rows"] = [list(row) for row in zip(*reply["data"])]
    return json.loads(json.dumps(payload))


def exactly(payload):
    """A form that tells 1 from 1.0 from True, and -0.0 from 0.0."""
    return repr(sorted(payload.items()))


@st.composite
def value_columns(draw, rows):
    """One value column: its cells drawn from one kind (or mixed), then
    None at no, all, the first, the last or random positions; a list,
    or an array when the cells allow it."""
    kind = draw(st.sampled_from(["q", "d", "wide", "bool", "str", "mixed"]))
    strategy = {
        "q": int64s, "d": floats, "wide": wide_ints, "bool": st.booleans(),
        "str": st.text(max_size=5), "mixed": cells,
    }[kind]
    column = draw(st.lists(strategy, min_size=rows, max_size=rows))
    nulls = draw(st.sampled_from(["none", "all", "first", "last", "random"]))
    if rows and nulls != "none":
        if nulls == "all":
            positions = range(rows)
        elif nulls == "random":
            positions = draw(st.sets(st.integers(0, rows - 1)))
        else:
            positions = [0 if nulls == "first" else rows - 1]
        for position in positions:
            column[position] = None
    if kind in ("q", "d") and None not in column and draw(st.booleans()):
        return array(kind, column)
    return column


@st.composite
def column_replies(draw):
    rows = draw(st.integers(0, 24))
    data = [draw(value_columns(rows)) for _ in range(draw(st.integers(1, 3)))]
    names = [f"v{i}" for i in range(len(data))]
    if draw(st.booleans()):
        ends = draw(st.lists(int64s, min_size=rows, max_size=rows))
        if draw(st.booleans()):  # gapless, unless an end is INT64_MAX
            starts = ([draw(int64s)] + [end + 1 for end in ends[:-1]])[:rows]
        else:
            starts = draw(st.lists(int64s, min_size=rows, max_size=rows))
        if all(INT64_MIN <= start <= INT64_MAX for start in starts):
            starts = array("q", starts)
        names = ["valid_start", "valid_end"] + names
        data = [starts, array("q", ends)] + data
    return reply_of(names, data)


class TestColumnFrames:
    @settings(max_examples=300, deadline=None)
    @given(column_replies())
    def test_decodes_to_the_json_frame_of_the_same_reply(self, reply):
        frame = encode_frame(reply)
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
        decoded = decode_body(frame[4:])
        assert exactly(decoded) == exactly(json_round_trip(reply))

    def test_gapless_answer_leaves_valid_start_off_the_wire(self):
        ends = array("q", range(9, 16_000, 10))
        starts = array("q", [0] + [end + 1 for end in ends[:-1]])
        counts = list(range(len(ends)))
        body = encode_frame(
            reply_of(["valid_start", "valid_end", "COUNT(x)"], [starts, ends, counts])
        )[4:]
        # 16 bytes a row: valid_end and the count, plus the header.
        assert 16 * len(ends) < len(body) < 16 * len(ends) + 400
        gapped = array("q", starts)
        gapped[5] += 1
        body = encode_frame(
            reply_of(["valid_start", "valid_end", "COUNT(x)"], [gapped, ends, counts])
        )[4:]
        assert len(body) > 24 * len(ends)
        assert decode_body(body)["rows"][5] == [gapped[5], ends[5], 5]

    def test_over_cap_reply_is_refused_before_packing(self, monkeypatch):
        rows = 1_000
        cap = 8 * 1024
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", cap)

        def packed(_column):
            raise AssertionError("a column was packed for an over-cap reply")

        monkeypatch.setattr(protocol._Column, "packed", packed)
        reply = reply_of(["v"], [list(range(rows))])
        with pytest.raises(FrameError) as info:
            encode_frame(reply)
        message = str(info.value)
        assert f"{rows} rows" in message and f"{cap}-byte" in message
        needed = int(message.split(" needs ")[1].split()[0])
        assert needed > 8 * rows


def column_body(rows=4):
    ends = array("q", range(10, 10 * rows + 1, 10))
    starts = array("q", [0] + [end + 1 for end in ends[:-1]])[:rows]
    values = [1.5] * rows
    if rows > 1:
        values[1] = None
    return encode_frame(
        reply_of(["valid_start", "valid_end", "AVG(x)"], [starts, ends, values])
    )[4:]


def with_header(body, mutate):
    """``body`` with its JSON header rewritten by ``mutate``."""
    (length,) = struct.unpack(">I", body[1:5])
    header = json.loads(body[5 : 5 + length])
    mutate(header)
    encoded = json.dumps(header).encode()
    return b"\x00" + struct.pack(">I", len(encoded)) + encoded + body[5 + length :]


def set_layout(key, value, column=None):
    def mutate(header):
        target = header["layout"]
        if column is not None:
            target = target["columns"][column]
        target[key] = value

    return mutate


class TestMalformedColumnFrames:
    @pytest.mark.parametrize(
        "body",
        [
            b"\x00",
            b"\x00\x00\x00",
            b"\x00\x00\x00\x01\x00{}",  # header length runs past the end
            b"\x00\x00\x00\x00\x02[]",  # header is not an object
            b"\x00\x00\x00\x00\x02{}",  # no layout
            b"\x00\x00\x01\x00\x00" + b"[" * 65536,  # nested past the stack
            column_body()[:-1],  # truncated column bytes
            column_body() + b"\x00" * 8,  # trailing bytes
            with_header(column_body(), set_layout("kind", "z", column=2)),
            with_header(column_body(), set_layout("bytes", 31, column=2)),
            with_header(column_body(), set_layout("bytes", 40, column=2)),
            with_header(column_body(), set_layout("nulls", [4], column=2)),
            with_header(column_body(), set_layout("nulls", [-1], column=2)),
            with_header(column_body(), set_layout("nulls", ["1"], column=2)),
            with_header(column_body(), set_layout("rows", 5)),
            with_header(column_body(), set_layout("rows", -1)),
            with_header(column_body(), set_layout("columns", {})),
            with_header(  # a JSON column with 3 values for 4 rows
                column_body()[:-32],
                lambda h: h["layout"]["columns"].__setitem__(
                    2, {"kind": "json", "values": [1, 2, 3]}
                ),
            ),
            with_header(column_body(), set_layout("first", "0", column=0)),
            with_header(column_body(), set_layout("kind", "gapless", column=1)),
            with_header(column_body(), lambda h: h["columns"].pop()),
            with_header(column_body(), lambda h: h.update(columns=["a", "b", "c"])),
        ],
    )
    def test_is_a_frame_error(self, body):
        with pytest.raises(FrameError):
            decode_body(body)

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        st.sampled_from(["truncate", "flip", "append"]),
    )
    def test_damage_raises_frame_error_and_nothing_else(self, data, damage):
        body = bytearray(column_body(data.draw(st.integers(0, 6))))
        if damage == "truncate":
            del body[data.draw(st.integers(0, len(body) - 1)) :]
        elif damage == "flip":
            position = data.draw(st.integers(0, len(body) - 1))
            body[position] ^= data.draw(st.integers(1, 255))
        else:
            body += data.draw(st.binary(min_size=1, max_size=16))
        try:
            decode_body(bytes(body))
        except FrameError:
            pass
