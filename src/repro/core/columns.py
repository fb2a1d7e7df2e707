"""Flat column snapshots: the native layout of the columnar hot path.

A :class:`ColumnSet` is the page-to-row pipeline's unit of exchange:
two parallel ``array('q')`` timestamp columns plus an optional value
column, with *no* per-row tuple objects anywhere.  Producers are the
batch page decoder (:meth:`repro.storage.heapfile.HeapFile.scan_columns`)
and the in-memory snapshot (:meth:`repro.relation.relation.
TemporalRelation.columns`); consumers are the specialized sweep kernels
(:mod:`repro.core.columnar_sweep`), the time-domain shard workers
(:mod:`repro.core.parallel`) and the shard-result cache's re-sweeps
(:mod:`repro.cache.evaluator`).

``values is None`` means the columns were decoded without touching any
attribute bytes — the COUNT fast path, where the aggregate ignores
values entirely.  ``batches`` records how many batch decodes produced
the columns (one per storage page, or one for a whole in-memory
relation); evaluators fold it into
:attr:`~repro.metrics.counters.OperationCounters.column_batches` so the
flat-column shape claim is checkable next to the
``tuple_materializations`` counter it replaces.

``uid``/``version``/``column_key`` are the snapshot's *identity*: the
producing relation's uid, the relation version the columns were cut
at, and the attribute the value column came from.  They are optional
(anonymous column sets still evaluate everywhere) but required for the
resident execution backend (:mod:`repro.exec.pool`) — a shared-memory
publication is keyed by exactly this triple, so an unidentified
ColumnSet can never be published (its shards sweep in process) rather
than risking a stale-snapshot reuse.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional

__all__ = ["ColumnSet"]


class ColumnSet:
    """Parallel (starts, ends, values) columns for one relation snapshot."""

    __slots__ = (
        "starts",
        "ends",
        "values",
        "batches",
        "uid",
        "version",
        "column_key",
        # Weak-referenceable so the resident execution backend can tie
        # a shared-memory publication's lifetime to this snapshot: when
        # the ColumnSet is garbage collected (superseded version, or
        # its relation died), the segments unlink themselves.
        "__weakref__",
    )

    def __init__(
        self,
        starts: "array[int]",
        ends: "array[int]",
        values: Optional[List[Any]] = None,
        *,
        batches: int = 1,
        uid: Optional[int] = None,
        version: Optional[int] = None,
        column_key: str = "",
    ) -> None:
        if values is not None and len(values) != len(starts):
            raise ValueError(
                f"value column length {len(values)} does not match "
                f"{len(starts)} timestamps"
            )
        if len(ends) != len(starts):
            raise ValueError(
                f"end column length {len(ends)} does not match "
                f"{len(starts)} starts"
            )
        self.starts = starts
        self.ends = ends
        self.values = values
        self.batches = batches
        self.uid = uid
        self.version = version
        self.column_key = column_key

    def __len__(self) -> int:
        return len(self.starts)

    def __repr__(self) -> str:
        kind = "timestamps-only" if self.values is None else "valued"
        return (
            f"ColumnSet({len(self.starts)} rows, {kind}, "
            f"batches={self.batches})"
        )

