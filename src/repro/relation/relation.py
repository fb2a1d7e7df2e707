"""In-memory temporal relations, stored as typed columns.

A :class:`TemporalRelation` is the substrate every algorithm in this
package consumes: an ordered bag of temporal tuples sharing a
:class:`~repro.relation.schema.Schema`, each stamped with a closed
valid-time interval.  The paper's evaluators read only each tuple's
start, end and one attribute, in one scan (Sections 4–6), so the
relation stores exactly that shape: ``array('q')`` start and end
columns and one column per attribute — ``array('q')`` for exact
int64 values, ``array('d')`` for floats, a list otherwise.
:class:`~repro.relation.tuples.TemporalTuple` rows are built only at
the row API (iteration, indexing, :meth:`~ColumnarRows.rows`,
:meth:`~ColumnarRows.scan`, CSV output); the planner, the kernels,
the TSQL2 filter and GROUP BY read the columns.

Columns are append-only.  A column snapshot handed out at one version
(:meth:`~ColumnarRows.columns`, or a served snapshot view's pinned
prefix) keeps the stored columns themselves, and the next mutation
copies them before it writes, so a snapshot never changes.

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
from itertools import islice, repeat
from operator import add, ge, le, sub
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
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columns import ColumnSet

from repro.core.interval import FOREVER, ORIGIN, Interval, InvalidIntervalError
from repro.exec.errors import InvalidInput
from repro.relation.schema import Attribute, Schema
from repro.relation.tuples import TemporalTuple

__all__ = [
    "ColumnarRows",
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

    The one fold loop behind every chain: a heap file extends its
    fingerprint with this as rows are appended, and a
    :class:`TemporalRelation` folds the rows of its columns with it
    when the fingerprint is read.  The chain is
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


#: A stored attribute column: ``array('q')``, ``array('d')`` or a list.
Column = Union["array[int]", "array[float]", List[Any]]

#: The exact Python type each typed column stores, by typecode.
_SCALAR_TYPES = {"q": int, "d": float}


def _typed_column(values: Sequence[Any]) -> Column:
    """``values`` as one stored column.

    ``array('q')`` when every value is an exact ``int`` in int64 range,
    ``array('d')`` when every value is an exact ``float``, and a list
    otherwise: strings, and any column holding an ``int`` subclass, a
    value past int64 or a mix.  A list keeps each value itself, so its
    repr, and with it the fingerprint, is the value's own.  A typed
    array or a list is adopted without a copy.
    """
    if isinstance(values, array) and values.typecode in _SCALAR_TYPES:
        return values
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return array("q", values)
        except OverflowError:
            pass
    elif kinds == {float}:
        return array("d", values)
    return values if isinstance(values, list) else list(values)


def _as_array(times: Sequence[int]) -> "array[int]":
    if isinstance(times, array) and times.typecode == "q":
        return times
    return array("q", times)


def _empty_column(attribute: Attribute) -> Column:
    if attribute.type == "int":
        return array("q")
    if attribute.type == "float":
        return array("d")
    return []


def _extended(column: Column, added: Sequence[Any]) -> Column:
    """``column`` with ``added`` appended: extended in place while its
    type holds the new values, else a new list holding both."""
    if isinstance(column, list):
        column.extend(added)
        return column
    if set(map(type, added)) <= {_SCALAR_TYPES[column.typecode]}:
        try:
            column.extend(array(column.typecode, added))
            return column
        except OverflowError:
            pass
    return column.tolist() + list(added)


def _taken(column: Column, indices: Iterable[int]) -> Column:
    """The cells of ``column`` at ``indices``, in that order, as a
    column of the same type."""
    picked = map(column.__getitem__, indices)
    if isinstance(column, array):
        return array(column.typecode, picked)
    return list(picked)


class ColumnarRows:
    """The relation protocol over typed columns, shared by
    :class:`TemporalRelation` and the serving layer's snapshot views.

    A subclass sets ``schema``, ``name``, ``uid``, ``version``,
    ``fingerprint``, the columns ``_starts``, ``_ends`` (``array('q')``)
    and ``_values`` (one :data:`Column` per attribute, schema order),
    and the memos ``_column_sets`` (a dict) and ``_statistics_cache``
    (None).  Row objects are built only by the row API: iteration,
    indexing, :meth:`rows`, :meth:`scan` and :meth:`pretty`.
    """

    schema: Schema
    name: str
    uid: int
    version: int
    fingerprint: int
    scan_count: int
    _starts: "array[int]"
    _ends: "array[int]"
    _values: List[Column]
    _column_sets: Dict[Tuple[int, Optional[str]], "ColumnSet"]
    _statistics_cache: Optional[Tuple[int, RelationStatistics]]

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _count_scan(self) -> None:
        self.scan_count += 1

    def _share(self) -> Tuple["array[int]", "array[int]", List[Column]]:
        """The stored columns, for a snapshot that keeps them: they
        must not change while it lives."""
        return self._starts, self._ends, self._values

    # ------------------------------------------------------------------
    # Row API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def _row_tuples(
        self, first: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[Tuple[Any, ...], int, int]]:
        """Rows ``first:stop`` as plain ``(values, start, end)`` tuples."""
        starts, ends, values = self._starts, self._ends, self._values
        if first or (stop is not None and stop != len(starts)):
            starts, ends = starts[first:stop], ends[first:stop]
            values = [column[first:stop] for column in values]
        return zip(zip(*values), starts, ends)

    def __iter__(self) -> Iterator[TemporalTuple]:
        # tuple.__new__ builds each TemporalTuple without a Python-level call.
        return map(tuple.__new__, repeat(TemporalTuple), self._row_tuples())

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return self.rows()[index]
        start = self._starts[index]
        values = tuple([column[index] for column in self._values])
        return TemporalTuple(values, start, self._ends[index])

    def rows(self) -> List[TemporalTuple]:
        """The rows as a new list (mutating it does not affect the relation)."""
        return list(self)

    def scan(self) -> Iterator[TemporalTuple]:
        """One sequential scan of the relation, counted for accounting.

        The paper's algorithms all make a single segmented scan of the
        input (Section 6); Tuma's baseline makes two.  Tests assert on
        :attr:`scan_count` to verify that property.
        """
        self._count_scan()
        return iter(self)

    def _column(self, attribute: str) -> Column:
        return self._values[self.schema.position_of(attribute)]

    def scan_triples(
        self, attribute: Optional[str] = None
    ) -> Iterator[Tuple[int, int, Any]]:
        """One counted scan yielding ``(start, end, value)`` triples,
        zipped from the columns.

        ``attribute`` selects which explicit attribute feeds the
        aggregate; ``None`` yields ``value=None`` (sufficient for
        COUNT, which ignores values).
        """
        values = repeat(None) if attribute is None else self._column(attribute)
        self._count_scan()
        return zip(self._starts, self._ends, values)

    def value_extractor(self, attribute: Optional[str]) -> Callable[[TemporalTuple], Any]:
        """A fast row accessor for one attribute (None for value-less COUNT)."""
        if attribute is None:
            return lambda row: None
        position = self.schema.position_of(attribute)
        return lambda row: row.values[position]

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = " | ".join(self.schema.names()) + " | valid"
        lines = [header, "-" * len(header)]
        for row in islice(self, limit):
            rendered = " | ".join(str(v) for v in row.values)
            lines.append(f"{rendered} | {row.interval}")
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Columns and statistics
    # ------------------------------------------------------------------

    def columns(self, attribute: Optional[str] = None) -> "ColumnSet":
        """This version's flat-column snapshot for ``attribute``.

        The columnar evaluators' feed: the stored start/end columns
        plus the selected attribute's column (``None`` keeps the
        snapshot timestamps-only for COUNT), with no copy.  One
        snapshot per (version, attribute) is memoized, and building it
        counts as one scan.  A snapshot never changes: appends leave
        the columns it holds alone.  Callers must treat it as
        read-only.  The resident pool's shared-memory copy of a
        snapshot lives as long as the snapshot, so this memo decides
        how long it stays published.
        """
        from repro.core.columns import ColumnSet

        key = (self.version, attribute)
        snapshot = self._column_sets.get(key)
        if snapshot is None:
            position = None if attribute is None else self.schema.position_of(attribute)
            starts, ends, values = self._share()
            built = ColumnSet(
                starts,
                ends,
                None if position is None else values[position],
                batches=1,
                uid=self.uid,
                version=self.version,
            )
            snapshot = self._column_sets.setdefault(key, built)
            # Threads racing to build the first snapshot each build one;
            # only the published one counts as the scan.
            if snapshot is built:
                self._count_scan()
        return snapshot

    def statistics(self) -> RelationStatistics:
        """Summary statistics used by the query planner (Section 6.3).

        Computed from the start/end columns
        (:func:`statistics_from_columns`) without counting a scan, and
        cached keyed by :attr:`version`, so any mutation invalidates.
        """
        cached = self._statistics_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        statistics = statistics_from_columns(self._starts, self._ends)
        self._statistics_cache = (self.version, statistics)
        return statistics

    @property
    def lifespan(self) -> Optional[Interval]:
        """Hull of all valid-time intervals; None for an empty relation."""
        if not len(self._starts):
            return None
        return Interval(min(self._starts), max(self._ends))

    # ------------------------------------------------------------------
    # Ordering and selection
    # ------------------------------------------------------------------

    @property
    def is_totally_ordered(self) -> bool:
        """True when rows are sorted by (start, end) — Section 5.2."""
        keys = list(zip(self._starts, self._ends))
        return all(map(le, keys, islice(keys, 1, None)))

    def _time_order(self) -> List[int]:
        """Row positions in the stable sort by ``(start, end)``."""
        order = list(range(len(self._starts)))
        order.sort(key=self._ends.__getitem__)
        order.sort(key=self._starts.__getitem__)
        return order

    def take(self, indices: Sequence[int], name: str) -> "TemporalRelation":
        """A new relation of the rows at ``indices``, in that order."""
        return TemporalRelation.from_columns(
            self.schema,
            _taken(self._starts, indices),
            _taken(self._ends, indices),
            [_taken(column, indices) for column in self._values],
            name=name,
        )

    def sorted_by_time(self, name: Optional[str] = None) -> "TemporalRelation":
        """A new relation with rows totally ordered by time.

        Sorting is the paper's recommended preprocessing step before the
        k-ordered tree with k=1 (Section 7).
        """
        return self.take(self._time_order(), name or f"{self.name}_sorted")

    def verify_append_chain(self, row_count: int, fingerprint: int) -> bool:
        """Is :attr:`fingerprint` reachable by appending rows
        ``row_count:`` onto a prefix fingerprinting ``fingerprint``?

        The cache's delta path calls this as the content-level guard:
        relations are append-only, and a relation whose first
        ``row_count`` rows are not the ones the cached entry saw fails
        the chain and falls back to a full recompute instead of serving
        stale rows.
        """
        if row_count > len(self._starts):
            return False
        tail = self._row_tuples(row_count)
        return fingerprint_rows(tail, fingerprint) == self.fingerprint


class TemporalRelation(ColumnarRows):
    """An ordered, in-memory bag of temporal tuples over one schema,
    stored as typed append-only columns."""

    #: Relations carry the version/fingerprint protocol the shard-result
    #: cache (:mod:`repro.cache`) keys its entries by.
    supports_result_cache = True

    def __init__(
        self,
        schema: Schema,
        rows: Optional[Iterable[TemporalTuple]] = None,
        name: str = "relation",
    ) -> None:
        """A relation of already-validated ``(values, start, end)``
        rows (use :meth:`from_rows` to validate them)."""
        self.schema = schema
        self.name = name
        self.scan_count = 0
        self.uid = next_relation_uid()
        #: Monotonically increasing mutation counter; every insert,
        #: extend and append batch bumps it, so anything derived from
        #: the rows (statistics, cached results) can key on it.  A
        #: relation built in one piece starts at 0.
        self.version = 0
        self._starts: "array[int]" = array("q")
        self._ends: "array[int]" = array("q")
        self._values: List[Column] = [_empty_column(a) for a in schema.attributes]
        #: ``(rows folded, fingerprint)``: the chained fingerprint is
        #: folded when first read and extended over new rows on later
        #: reads, so relations nobody fingerprints never pay for it.
        self._fold: Tuple[int, int] = (0, 0)
        #: True while a snapshot holds the stored columns: the next
        #: mutation copies them first, so the snapshot never changes.
        self._shared = False
        #: Memoized :meth:`columns` snapshots, keyed (version, attribute).
        self._column_sets: Dict[Tuple[int, Optional[str]], "ColumnSet"] = {}
        self._statistics_cache: Optional[Tuple[int, RelationStatistics]] = None
        #: Set by ``read_csv(on_error="quarantine")`` to the load's
        #: :class:`~repro.relation.io.QuarantineReport`; None otherwise.
        self.quarantine: Optional[Any] = None
        if rows is not None:
            added = list(rows)
            if added:
                self._append_rows(added)

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

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Sequence[Sequence[Any]],
        name: str = "relation",
    ) -> "TemporalRelation":
        """A relation over columns whose rows already pass
        :meth:`insert`'s checks (they are not re-checked): start and
        end columns plus one value column per attribute, in schema
        order, each typed by :func:`_typed_column`."""
        if len(values) != len(schema):
            raise ValueError(
                f"{len(values)} value columns for {len(schema)} attributes"
            )
        lengths = {len(starts), len(ends), *map(len, values)}
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
        relation = cls(schema, name=name)
        relation._starts = _as_array(starts)
        relation._ends = _as_array(ends)
        relation._values = [_typed_column(column) for column in values]
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
        self._append_rows([row])
        self._mutated()
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
        if validated:
            self._append_rows(validated)
            self._mutated()
        return len(validated)

    def extend(self, rows: Iterable[TemporalTuple]) -> None:
        """Append already-validated rows (e.g. from another relation)."""
        added = list(rows)
        if added:
            self._append_rows(added)
            self._mutated()

    def _append_rows(self, rows: Sequence[Tuple[Sequence[Any], int, int]]) -> None:
        """Append rows to the columns; the caller accounts the mutation."""
        values, starts, ends = zip(*rows)
        added_starts, added_ends = array("q", starts), array("q", ends)
        added = list(zip(*values))
        if len(added) != len(self._values):
            raise ValueError(
                f"rows of {len(added)} values for {len(self._values)} attributes"
            )
        if self._shared:
            self._unshare()
        self._values = [
            _extended(column, new) for column, new in zip(self._values, added)
        ]
        self._starts.extend(added_starts)
        self._ends.extend(added_ends)

    def _share(self) -> Tuple["array[int]", "array[int]", List[Column]]:
        self._shared = True
        return self._starts, self._ends, self._values

    def _unshare(self) -> None:
        """Copy the stored columns, leaving the old ones to the
        snapshots that hold them."""
        self._starts = self._starts[:]
        self._ends = self._ends[:]
        self._values = [column[:] for column in self._values]
        self._shared = False

    def _mutated(self) -> None:
        self.version += 1
        self._column_sets = {}
        self._statistics_cache = None

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------

    def reordered(
        self, permutation: Sequence[int], name: Optional[str] = None
    ) -> "TemporalRelation":
        """A new relation with rows permuted by ``permutation``."""
        if sorted(permutation) != list(range(len(self._starts))):
            raise ValueError("not a permutation of the row positions")
        return self.take(permutation, name or f"{self.name}_permuted")

    # ------------------------------------------------------------------
    # Result-cache protocol
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> int:
        """Chained content fingerprint over the rows, in row order
        (:func:`fingerprint_rows`), folded on read over the rows not
        yet folded."""
        folded, fingerprint = self._fold
        count = len(self._starts)
        if folded < count:
            fingerprint = fingerprint_rows(
                self._row_tuples(folded, count), fingerprint
            )
            self._fold = (count, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TemporalRelation({self.name!r}, {len(self)} tuples, "
            f"schema={self.schema.names()})"
        )


def partition_relation(
    relation: ColumnarRows, attributes: Sequence[str]
) -> Iterator[Tuple[Tuple[Any, ...], TemporalRelation]]:
    """GROUP BY ``attributes``: one scan, then one new relation per group.

    ``relation`` is a relation or a served snapshot view.  Yields
    ``(key, part)`` with ``key`` the tuple of grouping values, in
    ``repr`` order of the keys.  The scan groups row indices by key;
    each part takes its rows in input order, so a k-ordered relation
    yields k-ordered parts, and is built only when it is reached.
    """
    relation._count_scan()
    keys = zip(*[relation._column(name) for name in attributes])
    parts: Dict[Tuple[Any, ...], List[int]] = {}
    for index, key in enumerate(keys):
        parts.setdefault(key, []).append(index)
    for key in sorted(parts, key=repr):
        yield key, relation.take(parts.pop(key), name="group")
