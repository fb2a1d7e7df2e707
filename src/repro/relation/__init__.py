"""Temporal relation substrate: schemas, tuples, in-memory relations."""

from repro.relation.io import (
    RelationIOError,
    from_csv_text,
    read_csv,
    to_csv_text,
    write_csv,
)
from repro.relation.relation import RelationStatistics, TemporalRelation
from repro.relation.schema import (
    EMPLOYED_SCHEMA,
    Attribute,
    Schema,
    SchemaError,
)
from repro.relation.tuples import TemporalTuple, timestamp_sort_key

__all__ = [
    "Attribute",
    "Schema",
    "SchemaError",
    "EMPLOYED_SCHEMA",
    "TemporalTuple",
    "timestamp_sort_key",
    "TemporalRelation",
    "RelationStatistics",
    "read_csv",
    "write_csv",
    "to_csv_text",
    "from_csv_text",
    "RelationIOError",
]
