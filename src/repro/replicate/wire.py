"""Wire format for journal shipping.

Replication reuses the serving layer's length-prefixed JSON frame
protocol (:mod:`repro.serve.protocol`) — the shipper is just another
client of the replica's query server, speaking ``rep.*`` ops that the
replication node handles next to ``query``/``append``.  This module
pins down the frame bodies so the shipper, the applier, and the tests
agree on one schema:

``rep.hello``
    Shipper handshake.  Carries the shipper's epoch and, per table,
    its :func:`schema_spec`, which must equal the replica's.  The
    replica answers with its own epoch and per-table
    ``(applied_count, applied_version, fingerprint)`` — the cursor the
    shipper resumes from — or refuses a lower epoch with a typed
    ``StaleEpoch`` (the split-brain fence).
``rep.sync``
    Catch-up: chunks of :func:`sync_chunk_rows` rows bringing a behind
    replica from ``base_count`` rows to the primary's current
    ``(version, row_count, fingerprint)``, plus the retained
    dedup-ledger entries so exactly-once survives the bootstrap.
``rep.ship``
    One committed append batch, shipped synchronously before the
    primary acknowledges its client: rows, the batch's
    ``(version, row_count)`` identity, the statement id, and the
    chained fingerprint after the batch (the replica verifies it
    *before* mutating anything).
``rep.heartbeat``
    Primary liveness, stamped with the epoch.  The replica's failover
    monitor watches the gap since the last one.
``rep.promote`` / ``rep.status``
    Admin: promote this replica now (the deterministic path the chaos
    harness uses instead of waiting out a lease), and inspect
    role/epoch/cursors.

Rows cross the wire as an ``append`` request sends them, one JSON
list ``[value..., valid_start, valid_end]`` per row; the replica
parses them with the ``append`` op's helper
(:func:`repro.serve.server.append_rows`), and validates and encodes
them as an append would, so the storage layout never crosses it.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exec.errors import ReplicationError
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.protocol import MAX_FRAME_BYTES

__all__ = [
    "ShipBatch",
    "wire_rows",
    "schema_spec",
    "sync_chunk_rows",
    "hello_frame",
    "sync_frame",
    "ship_frame",
    "heartbeat_frame",
    "require_int",
    "optional_str",
]

#: The longest JSON text of an int (``-2147483648``) and a float
#: (``-2.2250738585072014e-308``) value, and of a timestamp
#: (``FOREVER`` is 2**62, 19 digits).
_TEXT_BYTES = {"int": 11, "float": 24, "timestamp": 19}


def wire_rows(rows: Sequence[TemporalTuple]) -> List[List[Any]]:
    """Rows as ``[value..., valid_start, valid_end]`` lists."""
    return [[*row.values, row.start, row.end] for row in rows]


def schema_spec(schema: Schema) -> Dict[str, Any]:
    """A schema as the handshake compares it: every attribute's name,
    type and width, in order, and the padding."""
    return {
        "attributes": [[a.name, a.type, a.width] for a in schema.attributes],
        "padding": schema.padding,
    }


def sync_chunk_rows(schema: Schema, reserved: int) -> int:
    """Rows per ``rep.sync`` chunk: as many of the schema's worst-case
    JSON rows as fit ``MAX_FRAME_BYTES`` beside ``reserved`` bytes of
    the frame's other fields.  A str value escapes each declared byte
    as ``\\u00XX`` between quotes; a row adds its brackets and a comma
    after each value, the last one's parting it from the next row."""
    values = [
        6 * a.width + 2 if a.type == "str" else _TEXT_BYTES[a.type]
        for a in schema.attributes
    ] + [_TEXT_BYTES["timestamp"]] * 2
    row = sum(values) + 2 + len(values)
    return max(1, (MAX_FRAME_BYTES - reserved) // row)


class ShipBatch(NamedTuple):
    """One committed append batch as the shipper sends it."""

    table: str
    version: int
    row_count: int
    base_count: int
    fingerprint: int
    sid: str
    rows: List[List[Any]]


def hello_frame(
    epoch: int,
    tables: Dict[str, Dict[str, Any]],
    endpoint: Optional[str] = None,
) -> Dict[str, Any]:
    """The shipper's handshake frame.  ``endpoint`` is the primary's
    *serving* address — replicas hand it to redirected clients as the
    ``NotPrimary`` hint."""
    frame: Dict[str, Any] = {"op": "rep.hello", "epoch": epoch, "tables": tables}
    if endpoint:
        frame["endpoint"] = endpoint
    return frame


def ship_frame(epoch: int, batch: ShipBatch) -> Dict[str, Any]:
    """One incremental append batch."""
    return {"op": "rep.ship", "epoch": epoch, **batch._asdict()}


def sync_frame(
    epoch: int,
    table: str,
    *,
    base_count: int,
    version: int,
    row_count: int,
    fingerprint: int,
    rows: List[List[Any]],
    statements: Sequence[Tuple[str, int, int]],
    final: bool,
) -> Dict[str, Any]:
    """One catch-up chunk; ``final`` marks the last chunk of the sync
    (only then does the replica adopt ``version`` and verify the
    fingerprint)."""
    return {
        "op": "rep.sync",
        "epoch": epoch,
        "table": table,
        "base_count": base_count,
        "version": version,
        "row_count": row_count,
        "fingerprint": fingerprint,
        "rows": rows,
        "statements": [list(entry) for entry in statements],
        "final": final,
    }


def heartbeat_frame(epoch: int) -> Dict[str, Any]:
    """Primary liveness beacon."""
    return {"op": "rep.heartbeat", "epoch": epoch}


def require_int(frame: Dict[str, Any], key: str) -> int:
    """A mandatory integer field, typed-refused when absent/malformed."""
    value = frame.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReplicationError(f"replication frame needs integer {key!r}")
    return value


def optional_str(frame: Dict[str, Any], key: str) -> Optional[str]:
    value = frame.get(key)
    return value if isinstance(value, str) and value else None
