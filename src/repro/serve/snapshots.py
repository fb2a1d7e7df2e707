"""Snapshot isolation for served relations.

A reader evaluating a statement while other sessions append must see a
*consistent* relation: either all of an append batch or none of it,
and never rows appearing mid-scan.  Served relations get this from the
append-only discipline plus prefix pinning:

* :class:`ServedRelation` is the single append point.  Appends go
  through one lock and map one client operation to exactly one version
  bump (:meth:`~repro.relation.relation.TemporalRelation.append_batch`),
  so a version number identifies an exact prefix of append batches.
* :meth:`ServedRelation.pin` captures ``(version, row_count,
  fingerprint)`` under that lock and wraps them in a
  :class:`SnapshotView` — a read-only view of the first ``row_count``
  rows.  Existing rows are immutable and appends only grow the row
  list, so the view's prefix stays byte-identical no matter how many
  appends land after the pin (CPython's list append never moves
  already-published elements under readers).

A :class:`SnapshotView` speaks the full result-cache protocol with the
**base relation's uid** and its own pinned version/fingerprint.  That
is what makes the shared server cache work across concurrent appends:
a result computed at version ``v`` pure-hits any later statement
pinned at ``v``, and a statement pinned at ``v+k`` append-delta
refreshes it over exactly the ``k`` batches in between
(:meth:`SnapshotView.verify_append_chain` operates on the pinned
prefix).  No locks are held while evaluating — pinning is the only
synchronized step.

Snapshot correctness relies on the served base being append-only;
:class:`ServedRelation` exposes no reorder operation for exactly that
reason.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Tuple

from repro.relation.relation import RelationStatistics, TemporalRelation
from repro.relation.tuples import TemporalTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columns import ColumnSet
    from repro.core.interval import Interval

__all__ = ["SnapshotView", "ServedRelation", "PIN_MEMO_LIMIT"]

#: Snapshot views memoized per served relation (LRU by version).  Small:
#: under steady appends only the newest couple of versions are pinned.
PIN_MEMO_LIMIT = 8


class SnapshotView:
    """A read-only prefix of a relation, pinned at one version.

    Presents enough of the :class:`TemporalRelation` surface for the
    executor and the engine (scan, statistics, columns, sort) plus the
    full result-cache protocol, all restricted to the pinned prefix.
    Views are shared across worker threads — every method is safe to
    call concurrently.
    """

    supports_result_cache = True

    def __init__(
        self,
        base: TemporalRelation,
        version: int,
        row_count: int,
        fingerprint: int,
    ) -> None:
        self._base = base
        self.schema = base.schema
        self.name = f"{base.name}@v{version}"
        #: The *base* relation's uid: snapshots of one relation share
        #: cache entries, which is the whole point of pinning.
        self.uid = base.uid
        self.version = version
        self.fingerprint = fingerprint
        self._row_count = row_count
        self._stats_lock = threading.Lock()
        self.scan_count = 0  # ta: guarded-by(self._stats_lock)
        self._materialize_lock = threading.Lock()
        # Deliberately lock-free on the read side (double-checked
        # publication): _working() reads it unlocked on the fast path
        # and only takes _materialize_lock to build-and-publish once.
        # Safe under the GIL — the reference assignment is atomic and
        # the relation is fully built before it is published.
        self._materialized: Optional[TemporalRelation] = None  # ta: unguarded

    # ------------------------------------------------------------------
    # Row access (prefix-limited, copy-free)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._row_count

    def __iter__(self) -> Iterator[TemporalTuple]:
        return self._base.iter_prefix(self._row_count)

    def rows(self) -> List[TemporalTuple]:
        return list(self._base.iter_prefix(self._row_count))

    def scan(self) -> Iterator[TemporalTuple]:
        # Views are shared across worker threads; the unlocked += here
        # was a lost-update race between concurrent statements.
        with self._stats_lock:
            self.scan_count += 1
        return self._base.iter_prefix(self._row_count)

    def scan_triples(
        self, attribute: Optional[str] = None
    ) -> Iterator[Tuple[int, int, Any]]:
        extractor = self.value_extractor(attribute)
        with self._stats_lock:
            self.scan_count += 1
        for row in self._base.iter_prefix(self._row_count):
            yield (row.start, row.end, extractor(row))

    def value_extractor(
        self, attribute: Optional[str]
    ) -> Callable[[TemporalTuple], Any]:
        return self._base.value_extractor(attribute)

    # ------------------------------------------------------------------
    # Result-cache protocol (prefix-limited)
    # ------------------------------------------------------------------

    @property
    def append_watermark(self) -> int:
        # Served bases are append-only, so this is always 0 — delegated
        # rather than hard-coded so a reordered base (which would
        # invalidate every pinned prefix) poisons cache validity checks
        # instead of silently serving stale rows.
        return self._base.append_watermark

    def verify_append_chain(self, row_count: int, fingerprint: int) -> bool:
        """Is this view's pinned fingerprint reachable by appending rows
        ``row_count:`` of the pinned prefix onto ``fingerprint``?"""
        from repro.relation.relation import fingerprint_rows

        if row_count > self._row_count:
            return False
        tail = islice(self._base.iter_prefix(self._row_count), row_count, None)
        return fingerprint_rows(tail, fingerprint) == self.fingerprint

    # ------------------------------------------------------------------
    # Derived structures (via a lazily materialized private copy)
    # ------------------------------------------------------------------

    def _working(self) -> TemporalRelation:
        """A private materialized copy of the pinned prefix.

        Statistics, column snapshots, and sort-first plans want a plain
        relation; building one per view (not per statement — views are
        memoized per version) keeps those paths unchanged.  Lazy and
        double-checked: concurrent statements sharing the view build it
        once.
        """
        materialized = self._materialized
        if materialized is None:
            with self._materialize_lock:
                materialized = self._materialized
                if materialized is None:
                    materialized = TemporalRelation(
                        self.schema,
                        self._base.iter_prefix(self._row_count),
                        name=self.name,
                    )
                    self._materialized = materialized
        return materialized

    def statistics(self) -> RelationStatistics:
        return self._working().statistics()

    def sorted_by_time(self, name: Optional[str] = None) -> TemporalRelation:
        return self._working().sorted_by_time(name)

    def columns(self, attribute: Optional[str] = None) -> "ColumnSet":
        return self._working().columns(attribute)

    @property
    def lifespan(self) -> Optional["Interval"]:
        return self._working().lifespan

    def __repr__(self) -> str:
        return (
            f"SnapshotView({self._base.name!r} uid={self.uid} "
            f"v{self.version}, {self._row_count} rows)"
        )


class ServedRelation:
    """One relation behind the server: locked appends, memoized pins."""

    def __init__(self, base: TemporalRelation, name: Optional[str] = None) -> None:
        self.base = base
        self.name = name or base.name
        self._lock = threading.Lock()
        self._pins: "OrderedDict[int, SnapshotView]" = OrderedDict()

    def pin(self) -> SnapshotView:
        """A snapshot view of the relation as of right now.

        The (version, row_count, fingerprint) triple is read under the
        append lock, so a pin can never observe a half-applied batch.
        Views are memoized per version: concurrent statements at the
        same version share one view (and its materialized copy).
        """
        with self._lock:
            version = self.base.version
            view = self._pins.get(version)
            if view is None:
                view = SnapshotView(
                    self.base, version, len(self.base), self.base.fingerprint
                )
                self._pins[version] = view
                while len(self._pins) > PIN_MEMO_LIMIT:
                    self._pins.popitem(last=False)
            else:
                self._pins.move_to_end(version)
            return view

    def stats(self) -> Tuple[int, int]:
        """``(version, row_count)`` read atomically under the append
        lock.

        The stats frame used to read ``base.version`` and
        ``len(base)`` separately without the lock — a concurrent
        append between the two reads produced a torn pair (version v
        with v+1's row count).
        """
        with self._lock:
            return self.base.version, len(self.base)

    def append_batch(self, rows: Any) -> Tuple[int, int]:
        """Append one batch of ``(values, start, end)`` rows atomically.

        Returns ``(version, row_count)`` after the append — the batch's
        identity in the version order every reader pins against.
        Validation failures reject the whole batch (the relation is
        untouched and the version does not move).
        """
        with self._lock:
            appended = self.base.append_batch(rows)
            if appended == 0:
                raise ValueError("append batch must contain at least one row")
            return self.base.version, len(self.base)

    def adopt_version(self, version: int) -> None:
        """Fast-forward the version counter without rows.

        Replica bootstrap edge case: the rows already match the
        primary but the locally-counted version lags the shipped one
        (e.g. after a restart whose ledger window was shorter than the
        batch history).  Only ever moves forward.
        """
        with self._lock:
            base = self.base
            if version > base.version:
                base.version = version

    def validate_batch(self, rows: Any) -> List[TemporalTuple]:
        """Validate ``(values, start, end)`` rows without appending.

        The replication primary validates *before* journaling — a
        malformed row must reject the whole batch before any byte of
        it becomes durable or ships.  Uses the relation's own row
        validation so accept/reject semantics match a plain append.
        """
        return [
            self.base._validated_row(values, start, end)
            for values, start, end in rows
        ]

    def append_replicated(self, rows: Any, version: int) -> Tuple[int, int]:
        """Apply one primary-shipped batch, adopting the primary's
        version number.

        A replica must hand out the *primary's* version order —
        read tokens and pinned snapshots compare versions across
        nodes, so a locally-counted version would break
        read-your-writes after failover.  ``append_batch`` bumps the
        local counter by one; the explicit assignment then aligns it
        with the shipped version (monotonicity enforced: replication
        never moves a version backwards).
        """
        with self._lock:
            base = self.base
            if version <= base.version:
                raise ValueError(
                    f"replicated version {version} must exceed the applied "
                    f"version {base.version}"
                )
            appended = base.append_batch(rows)
            if appended == 0:
                raise ValueError("append batch must contain at least one row")
            base.version = version
            return base.version, len(base)

    def __repr__(self) -> str:
        return f"ServedRelation({self.name!r}, v{self.base.version})"
