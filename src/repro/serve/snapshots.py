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
  rows.  The view cuts the prefix's columns once, when it is made: it
  keeps the base relation's stored columns themselves, and the base
  copies them before its next append writes (copy on write), so the
  view's columns stay byte-identical no matter how many appends land
  after the pin.  No relation copy and no row object is built.

A :class:`SnapshotView` speaks the full result-cache protocol with the
**base relation's uid** and its own pinned version/fingerprint.  That
is what makes the shared server cache work across concurrent appends:
a result computed at version ``v`` pure-hits any later statement
pinned at ``v``, and a statement pinned at ``v+k`` append-delta
refreshes it over exactly the ``k`` batches in between
(:meth:`SnapshotView.verify_append_chain` operates on the pinned
prefix).  No locks are held while evaluating — pinning is the only
synchronized step.

Snapshot correctness relies on the served base being append-only,
and relations are: no operation rewrites stored rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.relation.relation import ColumnarRows
from repro.relation.tuples import TemporalTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation.relation import TemporalRelation

__all__ = ["SnapshotView", "ServedRelation", "PIN_MEMO_LIMIT"]

#: Snapshot views memoized per served relation (LRU by version).  Small:
#: under steady appends only the newest couple of versions are pinned.
PIN_MEMO_LIMIT = 8


class SnapshotView(ColumnarRows):
    """A read-only prefix of a relation, pinned at one version.

    Presents the relation protocol of
    :class:`~repro.relation.relation.ColumnarRows` (rows, scans,
    statistics, column snapshots, sorting) plus the full result-cache
    protocol, all over the pinned prefix's columns.  Views are shared
    across worker threads — every method is safe to call concurrently.
    """

    supports_result_cache = True

    def __init__(
        self,
        base: "TemporalRelation",
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
        starts, ends, values = base._share()
        if len(starts) != row_count:
            starts, ends = starts[:row_count], ends[:row_count]
            values = [column[:row_count] for column in values]
        self._starts, self._ends, self._values = starts, ends, values
        self._stats_lock = threading.Lock()
        self.scan_count = 0  # ta: guarded-by(self._stats_lock)
        # One snapshot per attribute, published with dict.setdefault so
        # concurrent statements share one object (the resident pool ties
        # a shared-memory publication's lifetime to it).
        self._column_sets = {}
        self._statistics_cache = None

    def _count_scan(self) -> None:
        # Views are shared across worker threads; an unlocked += here
        # was a lost-update race between concurrent statements.
        with self._stats_lock:
            self.scan_count += 1

    def __repr__(self) -> str:
        return (
            f"SnapshotView({self._base.name!r} uid={self.uid} "
            f"v{self.version}, {len(self)} rows)"
        )


class ServedRelation:
    """One relation behind the server: locked appends, memoized pins."""

    def __init__(self, base: "TemporalRelation", name: Optional[str] = None) -> None:
        self.base = base
        self.name = name or base.name
        self._lock = threading.Lock()
        self._pins: "OrderedDict[int, SnapshotView]" = OrderedDict()

    def pin(self) -> SnapshotView:
        """A snapshot view of the relation as of right now.

        The (version, row_count, fingerprint) triple is read under the
        append lock, so a pin can never observe a half-applied batch.
        Views are memoized per version: concurrent statements at the
        same version share one view (and its column snapshots).
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

        A replicated table validates *before* journaling — a malformed
        row must reject the whole batch before any byte of it becomes
        durable or ships.  Uses the relation's own row validation so
        accept/reject semantics match a plain append.
        """
        return [
            self.base._validated_row(values, start, end)
            for values, start, end in rows
        ]

    def append_replicated(
        self, rows: List[TemporalTuple], version: int
    ) -> Tuple[int, int]:
        """Apply one replicated batch, rows :meth:`validate_batch`
        returned, adopting the primary's version number.

        A replica must hand out the *primary's* version order —
        read tokens and pinned snapshots compare versions across
        nodes, so a locally-counted version would break
        read-your-writes after failover.  ``extend`` bumps the
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
            if not rows:
                raise ValueError("append batch must contain at least one row")
            base.extend(rows)
            base.version = version
            return base.version, len(base)

    def __repr__(self) -> str:
        return f"ServedRelation({self.name!r}, v{self.base.version})"
