"""In-memory temporal relations.

A :class:`TemporalRelation` is the substrate every algorithm in this
package consumes: an ordered bag of :class:`TemporalTuple` rows sharing
a :class:`~repro.relation.schema.Schema`, each stamped with a closed
valid-time interval.

Two design points mirror the paper:

* **Scan accounting.**  All of the paper's algorithms read the relation
  exactly once; Tuma's earlier implementation read it twice (Section 4.1
  / Section 6).  :meth:`TemporalRelation.scan` counts the number of full
  scans so tests and benches can assert the 1-scan/2-scan distinction.
* **Order statistics.**  The choice of algorithm depends on whether the
  relation is sorted and, if nearly sorted, on its k-orderedness
  (Sections 5.2, 6.3).  :func:`statistics_from_columns` computes the
  numbers the query optimizer needs from a relation's start and end
  columns; :meth:`TemporalRelation.statistics` caches them per version.
  Under a memory budget, :func:`space_counts` adds the counts the
  planner bounds each plan's tracked memory by.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b
from operator import add, ge, sub
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columns import ColumnSet

from repro.core.interval import FOREVER, ORIGIN, Interval, InvalidIntervalError
from repro.exec.errors import InvalidInput
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple, timestamp_sort_key

__all__ = [
    "TemporalRelation",
    "RelationStatistics",
    "next_relation_uid",
    "fingerprint_rows",
    "partition_relation",
    "SpaceCounts",
    "space_counts",
    "statistics_from_columns",
]

#: Process-wide uid source shared by every cacheable relation container
#: (in-memory relations and heap files draw from the same sequence, so
#: a cache keyed by uid can never confuse the two).
_UID_COUNTER = itertools.count(1)

#: Mask keeping the chained fingerprint in one unsigned machine word.
_FINGERPRINT_MASK = (1 << 64) - 1


def next_relation_uid() -> int:
    """The next process-unique relation identifier."""
    return next(_UID_COUNTER)


def _stable_value_repr(value: Any) -> str:
    """One value's repr, with address-bearing default object reprs
    replaced by a type-only placeholder.

    ``str``/``bytes`` reprs are always value-determined, so a string
    that merely *contains* ``" at 0x"`` keeps its full contribution;
    anything else whose repr carries the substring (a default object
    repr, or a container holding one) is not stable across processes
    and degrades to its type name.
    """
    payload = repr(value)
    if " at 0x" in payload and not isinstance(value, (str, bytes)):
        return f"<{type(value).__name__}>"
    return payload


def fingerprint_rows(rows: Iterable[TemporalTuple], fingerprint: int = 0) -> int:
    """Fold ``rows``, in order, onto the chained content ``fingerprint``
    (0 starts a chain from scratch).

    The one fold loop behind every chain: each
    :class:`TemporalRelation`, heap file and snapshot extends its
    fingerprint with this as rows are appended.  The chain is
    order-sensitive (hash mixing, not XOR), so the same rows appended
    in a different order fingerprint differently — exactly the property
    an append-only cache validity check needs.  The fingerprint is a
    cheap guard on top of (uid, version), not a cryptographic identity.
    Crash recovery recomputes it from scratch over a full scan of the
    restored file (:func:`repro.storage.recovery.recover`): it agrees
    with the journal's COMMIT records only if the exact acknowledged
    rows were restored in the exact acknowledged order.

    A row's contribution must be **process-stable**: journal recovery
    verifies a chain written by a *previous* interpreter, and
    replication compares chains across *different* machines — so the
    per-process salt of built-in ``str`` hashing (PYTHONHASHSEED) is
    unusable here.  A short BLAKE2 digest over the canonical repr of
    ``(start, end, values)`` gives the same 64-bit contribution in
    every process.  Individual values whose repr is not
    value-determined (default object reprs embed addresses) degrade to
    a type-only placeholder; the timestamps and every other value still
    contribute, and string values are never degraded (their reprs are
    value-determined even when they contain an address-like substring).
    """
    from_bytes = int.from_bytes
    for values, start, end in rows:
        try:
            # Spelled out, this is exactly repr((start, end, values)).
            payload = f"({start!r}, {end!r}, {values!r})"
        except Exception:  # pragma: no cover - pathological __repr__
            payload = repr((start, end))
        else:
            if " at 0x" in payload:
                # Rebuild per value so only the address-bearing elements
                # lose their contribution.  The "!canon" prefix keeps
                # this payload shape disjoint from the fast path.
                stable = ", ".join(_stable_value_repr(v) for v in values)
                payload = f"!canon({start!r}, {end!r}, [{stable}])"
        digest = blake2b(payload.encode("utf-8"), digest_size=8).digest()
        fingerprint = (
            (fingerprint * 1_000_003) ^ from_bytes(digest, "big")
        ) & _FINGERPRINT_MASK
    return fingerprint


@dataclass(frozen=True)
class RelationStatistics:
    """Optimizer-facing summary of a relation (Sections 5.2 and 6.3)."""

    tuple_count: int
    unique_timestamps: int
    long_lived_count: int
    lifespan: Optional[Interval]
    is_totally_ordered: bool
    k: int
    k_ordered_percentage: float

    @property
    def long_lived_fraction(self) -> float:
        if self.tuple_count == 0:
            return 0.0
        return self.long_lived_count / self.tuple_count


def statistics_from_columns(
    starts: Sequence[int], ends: Sequence[int]
) -> RelationStatistics:
    """Planner statistics from a relation's start and end columns.

    Every field but ``k`` is one or two C-speed passes over the arrays.
    ``k`` and the k-ordered-percentage (Section 5.2) measure each row's
    distance from its place in the stable sort by ``(start, end)``;
    that order is one C sort of the row indices by start, preceded by a
    sort by end only when two rows share a start.
    """
    n = len(starts)
    if not n:
        return RelationStatistics(0, 0, 0, None, True, 0, 0.0)
    lifespan = Interval(min(starts), max(ends))
    # A long-lived tuple lasts at least 20% of the lifespan (Section 6).
    durations = map(add, map(sub, ends, starts), itertools.repeat(1))
    threshold = itertools.repeat(0.2 * lifespan.duration)
    long_lived = sum(map(ge, durations, threshold))
    stamps = set(starts)
    distinct_starts = len(stamps)
    stamps.update(ends)
    stamps.discard(FOREVER)
    order = list(range(n))
    if distinct_starts < n:
        order.sort(key=ends.__getitem__)
    order.sort(key=starts.__getitem__)
    displacements = list(map(abs, map(sub, order, range(n))))
    k = max(displacements)
    return RelationStatistics(
        tuple_count=n,
        unique_timestamps=len(stamps),
        long_lived_count=long_lived,
        lifespan=lifespan,
        is_totally_ordered=(k == 0),
        k=k,
        k_ordered_percentage=sum(displacements) / (k * n) if k else 0.0,
    )


@dataclass(frozen=True)
class SpaceCounts:
    """The counts a plan's tracked memory is bounded by (Section 6.2).

    ``split_points`` is B, the instants where a constant interval can
    begin after the origin: every start past ``ORIGIN`` and every
    ``end + 1`` short of ``FOREVER``.  ``max_open`` is c, the most
    tuples valid at one instant.  ``events`` is what a sweep sorts:
    one per start and one per finite end.
    """

    split_points: int
    max_open: int
    events: int


def space_counts(starts: Sequence[int], ends: Sequence[int]) -> SpaceCounts:
    """:class:`SpaceCounts` from a relation's start and end columns, in
    C-speed passes: the tuples open at a start instant ``s`` are those
    started by ``s`` less those ended before it."""
    n = len(starts)
    points = set(starts).union(map(add, ends, itertools.repeat(1)))
    points -= {ORIGIN, FOREVER + 1}
    ended = map(bisect_left, itertools.repeat(sorted(ends)), sorted(starts))
    return SpaceCounts(
        split_points=len(points),
        max_open=max(map(sub, range(1, n + 1), ended), default=0),
        events=2 * n - ends.count(FOREVER),
    )


class TemporalRelation:
    """An ordered, in-memory bag of temporal tuples over one schema."""

    #: Relations carry the version/fingerprint protocol the shard-result
    #: cache (:mod:`repro.cache`) keys its entries by.
    supports_result_cache = True

    def __init__(
        self,
        schema: Schema,
        rows: Optional[Iterable[TemporalTuple]] = None,
        name: str = "relation",
    ) -> None:
        self.schema = schema
        self.name = name
        self._rows: List[TemporalTuple] = list(rows) if rows is not None else []
        self.scan_count = 0
        self.uid = next_relation_uid()
        #: Monotonically increasing mutation counter; every insert,
        #: extend, and in-place reorder bumps it, so anything derived
        #: from the rows (statistics, cached results) can key on it.
        #: A relation built from rows starts at 0.
        self.version = 0
        self._reorder_version = 0
        self._fingerprint = fingerprint_rows(self._rows)
        self._statistics_cache: Optional[Tuple[int, RelationStatistics]] = None
        #: Version-keyed flat-column snapshots per attribute (None =
        #: timestamps only); served until the next mutation bumps
        #: :attr:`version`.
        self._columns_cache: dict = {}
        #: The version's start/end arrays, which every column snapshot
        #: and the statistics of that version share.
        self._timestamps_cache: Optional[
            Tuple[int, "array[int]", "array[int]"]
        ] = None
        #: Set by ``read_csv(on_error="quarantine")`` to the load's
        #: :class:`~repro.relation.io.QuarantineReport`; None otherwise.
        self.quarantine: Optional[Any] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Tuple[Sequence[Any], int, int]],
        name: str = "relation",
    ) -> "TemporalRelation":
        """Build a relation from ``(values, start, end)`` triples,
        validating every row against the schema."""
        relation = cls(schema, name=name)
        for values, start, end in rows:
            relation.insert(values, start, end)
        return relation

    def insert(self, values: Sequence[Any], start: int, end: int) -> TemporalTuple:
        """Validate and append one tuple; returns the stored row.

        Endpoints must be plain integers (a float or bool endpoint
        silently corrupts sweep ordering downstream) and NaN attribute
        values are rejected — both raise
        :class:`~repro.exec.errors.InvalidInput`, which remains an
        ``InvalidIntervalError``/``ValueError`` for older callers.
        """
        row = self._validated_row(values, start, end)
        self._rows.append(row)
        self._note_appended([row])
        return row

    def _validated_row(
        self, values: Sequence[Any], start: int, end: int
    ) -> TemporalTuple:
        """Validate one ``(values, start, end)`` row without storing it."""
        if type(start) is not int or type(end) is not int:
            raise InvalidInput(
                f"valid-time endpoints must be plain integers, got "
                f"({start!r}, {end!r})"
            )
        if start < 0 or end < start:
            raise InvalidIntervalError(
                f"invalid valid-time bounds [{start}, {end}]"
            )
        if end > FOREVER:
            raise InvalidIntervalError(
                f"valid-time end {end} exceeds FOREVER"
            )
        for value in values:
            if isinstance(value, float) and value != value:
                raise InvalidInput(
                    f"NaN attribute value in tuple valid at [{start}, {end}]; "
                    "NaN does not order and would corrupt aggregate results"
                )
        return TemporalTuple(self.schema.validate_values(values), start, end)

    def append_batch(
        self, rows: Iterable[Tuple[Sequence[Any], int, int]]
    ) -> int:
        """Validate and append a batch of ``(values, start, end)`` rows
        as **one** mutation: a single version bump covers the whole
        batch, whatever its size.

        This is the serving layer's append unit — one client append
        operation maps to exactly one relation version, so a reader's
        pinned version identifies an exact prefix of append batches.
        Validation runs for *every* row before any row is stored; a
        malformed row rejects the whole batch, leaving the relation
        untouched.  Returns the number of rows appended (an empty batch
        appends nothing and does not bump the version).
        """
        validated = [
            self._validated_row(values, start, end)
            for values, start, end in rows
        ]
        if not validated:
            return 0
        self._rows.extend(validated)
        self._note_appended(validated)
        return len(validated)

    def extend(self, rows: Iterable[TemporalTuple]) -> None:
        """Append already-validated rows (e.g. from another relation)."""
        added = list(rows)
        if not added:
            return
        self._rows.extend(added)
        self._note_appended(added)

    def _note_appended(self, rows: Sequence[TemporalTuple]) -> None:
        """Account one append batch: version bump + fingerprint fold."""
        self._fingerprint = fingerprint_rows(rows, self._fingerprint)
        self.version += 1
        self._statistics_cache = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> TemporalTuple:
        return self._rows[index]

    def rows(self) -> List[TemporalTuple]:
        """A copy of the row list (mutating it does not affect the relation)."""
        return list(self._rows)

    def iter_prefix(self, count: int) -> Iterator[TemporalTuple]:
        """Yield the first ``count`` rows without copying the row list.

        The serving layer's snapshot views read a pinned prefix of a
        relation other sessions keep appending to.  Appends only ever
        grow the underlying list (rows are immutable and never move),
        so iterating the first ``count`` positions is consistent even
        while concurrent appends land past them.
        """
        return itertools.islice(self._rows, count)

    def scan(self) -> Iterator[TemporalTuple]:
        """One sequential scan of the relation, counted for accounting.

        The paper's algorithms all make a single segmented scan of the
        input (Section 6); Tuma's baseline makes two.  Tests assert on
        :attr:`scan_count` to verify that property.
        """
        self.scan_count += 1
        return iter(self._rows)

    def scan_triples(
        self, attribute: Optional[str] = None
    ) -> Iterator[Tuple[int, int, Any]]:
        """One counted scan yielding ``(start, end, value)`` triples.

        ``attribute`` selects which explicit attribute feeds the
        aggregate; ``None`` yields ``value=None`` (sufficient for
        COUNT, which ignores values).
        """
        if attribute is None:
            extractor: Callable[[TemporalTuple], Any] = lambda row: None
        else:
            position = self.schema.position_of(attribute)
            extractor = lambda row: row.values[position]
        self.scan_count += 1
        for row in self._rows:
            yield (row.start, row.end, extractor(row))

    def value_extractor(self, attribute: Optional[str]) -> Callable[[TemporalTuple], Any]:
        """A fast accessor for one attribute (None for value-less COUNT)."""
        if attribute is None:
            return lambda row: None
        position = self.schema.position_of(attribute)
        return lambda row: row.values[position]

    def _timestamps(self) -> Tuple["array[int]", "array[int]"]:
        """This version's start and end columns (uncounted: a column
        snapshot counts its scan, statistics count none)."""
        cached = self._timestamps_cache
        if cached is not None and cached[0] == self.version:
            return cached[1], cached[2]
        rows = self._rows
        starts = array("q", [row.start for row in rows])
        ends = array("q", [row.end for row in rows])
        self._timestamps_cache = (self.version, starts, ends)
        return starts, ends

    def columns(self, attribute: Optional[str] = None) -> "ColumnSet":
        """A version-keyed flat-column snapshot of the relation.

        The columnar evaluators' feed: parallel ``array('q')``
        start/end columns plus the selected attribute's value column
        (``None`` keeps the snapshot timestamps-only for COUNT).
        Building the snapshot counts as one scan; repeat queries at the
        same version share it without rescanning — the column-layout
        analogue of the cached :meth:`statistics`.  Every snapshot of
        one version shares the same start/end arrays.  Callers must
        treat the snapshot as read-only.
        """
        from repro.core.columns import ColumnSet

        cached = self._columns_cache.get(attribute)
        if cached is not None and cached[0] == self.version:
            snapshot: ColumnSet = cached[1]
            return snapshot
        self.scan_count += 1
        starts, ends = self._timestamps()
        values: Optional[List[Any]] = None
        if attribute is not None:
            position = self.schema.position_of(attribute)
            values = [row.values[position] for row in self._rows]
        snapshot = ColumnSet(
            starts,
            ends,
            values,
            batches=1,
            uid=self.uid,
            version=self.version,
            column_key=attribute or "",
        )
        self._columns_cache[attribute] = (self.version, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------

    @property
    def is_totally_ordered(self) -> bool:
        """True when rows are sorted by (start, end) — Section 5.2."""
        rows = self._rows
        return all(
            timestamp_sort_key(rows[i]) <= timestamp_sort_key(rows[i + 1])
            for i in range(len(rows) - 1)
        )

    def sorted_by_time(self, name: Optional[str] = None) -> "TemporalRelation":
        """A new relation with rows totally ordered by time.

        Sorting is the paper's recommended preprocessing step before the
        k-ordered tree with k=1 (Section 7).
        """
        ordered = sorted(self._rows, key=timestamp_sort_key)
        return TemporalRelation(
            self.schema, ordered, name=name or f"{self.name}_sorted"
        )

    def sort_in_place(self) -> None:
        """Sort this relation's rows by (start, end).

        An in-place reorder is *not* an append: the fingerprint is
        rebuilt from scratch and the append watermark advances, so
        cached results computed against the old row order can neither
        pure-hit nor delta-refresh — they must recompute.
        """
        self._rows.sort(key=timestamp_sort_key)
        self._fingerprint = fingerprint_rows(self._rows)
        self.version += 1
        self._reorder_version = self.version
        self._statistics_cache = None

    # ------------------------------------------------------------------
    # Result-cache protocol
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> int:
        """Chained content fingerprint over the rows, in row order."""
        return self._fingerprint

    @property
    def append_watermark(self) -> int:
        """Version of the last non-append mutation (in-place reorder).

        A cached result whose version is at least this watermark saw
        every row it covers in the current order; anything between its
        version and :attr:`version` is purely appended rows, which the
        cache can fold in incrementally.
        """
        return self._reorder_version

    def verify_append_chain(self, row_count: int, fingerprint: int) -> bool:
        """Is the current content ``fingerprint`` reachable by appending
        rows ``row_count:`` onto a prefix fingerprinting ``fingerprint``?

        The cache's delta path trusts (uid, version, watermark) for the
        fast decision and calls this as the content-level guard: a
        relation whose prefix was edited in place behind the version
        counter's back fails the chain and falls back to a full
        recompute instead of serving stale rows.
        """
        if row_count > len(self._rows):
            return False
        tail = self._rows[row_count:]
        return fingerprint_rows(tail, fingerprint) == self._fingerprint

    def reordered(
        self, permutation: Sequence[int], name: Optional[str] = None
    ) -> "TemporalRelation":
        """A new relation with rows permuted by ``permutation``."""
        if sorted(permutation) != list(range(len(self._rows))):
            raise ValueError("not a permutation of the row positions")
        rows = [self._rows[i] for i in permutation]
        return TemporalRelation(
            self.schema, rows, name=name or f"{self.name}_permuted"
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def lifespan(self) -> Optional[Interval]:
        """Hull of all valid-time intervals; None for an empty relation."""
        if not self._rows:
            return None
        start = min(row.start for row in self._rows)
        end = max(row.end for row in self._rows)
        return Interval(start, end)

    def statistics(self) -> RelationStatistics:
        """Summary statistics used by the query planner (Section 6.3).

        Computed from the version's start/end columns
        (:func:`statistics_from_columns`) without counting a scan, and
        cached keyed by :attr:`version` — any mutation (insert, extend,
        or in-place reorder) moves the version and invalidates, even if
        a future mutation path forgets to clear the cache explicitly.
        """
        if (
            self._statistics_cache is not None
            and self._statistics_cache[0] == self.version
        ):
            return self._statistics_cache[1]
        statistics = statistics_from_columns(*self._timestamps())
        self._statistics_cache = (self.version, statistics)
        return statistics

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TemporalRelation({self.name!r}, {len(self._rows)} tuples, "
            f"schema={self.schema.names()})"
        )

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = " | ".join(self.schema.names()) + " | valid"
        lines = [header, "-" * len(header)]
        for row in self._rows[:limit]:
            rendered = " | ".join(str(v) for v in row.values)
            lines.append(f"{rendered} | {row.interval}")
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more)")
        return "\n".join(lines)


def partition_relation(
    relation: Any, attributes: Sequence[str]
) -> Iterator[Tuple[Tuple[Any, ...], TemporalRelation]]:
    """GROUP BY ``attributes``: one scan, then one new relation per group.

    ``relation`` is anything with a ``schema`` and a ``scan()``, such
    as a relation or a served snapshot view.  Yields ``(key, part)``
    with ``key`` the tuple of grouping values, in ``repr`` order of the
    keys.  Each part keeps its rows in input order, so a k-ordered
    relation yields k-ordered parts; a part is built only when it is
    reached.
    """
    schema = relation.schema
    positions = [schema.position_of(name) for name in attributes]
    parts: Dict[Tuple[Any, ...], List[TemporalTuple]] = {}
    for row in relation.scan():
        values = row.values
        parts.setdefault(tuple([values[p] for p in positions]), []).append(row)
    for key in sorted(parts, key=repr):
        yield key, TemporalRelation(schema, parts.pop(key), name="group")
