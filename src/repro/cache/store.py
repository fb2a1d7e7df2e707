"""The mergeable shard-result cache: versioned entries, LRU, byte budget.

A :class:`ShardResultCache` remembers, per ``(relation uid, aggregate,
attribute, shard count)``, the per-time-shard partial answers of one
``temporal_aggregate`` evaluation — held once, as columns, with the
seam merges decided when they were stitched — stamped with the
relation's version and content fingerprint at compute time.
The evaluation logic that decides hit / append-delta / miss lives in
:mod:`repro.cache.evaluator`; this module is pure storage policy:

* **Validity stamps** — an entry records ``version`` and
  ``fingerprint``; the relation side of the handshake lives on
  :class:`~repro.relation.relation.TemporalRelation` (version counter,
  append watermark, chained fingerprint).
* **Byte budget** — each entry is charged the bytes of its column
  buffers (:attr:`CachedEntry.charged_bytes`).  Inserting past the
  budget evicts least-recently-used entries first; an entry larger
  than the whole budget is simply not admitted.
* **Shedding** — :func:`shed_default_cache` empties the process-default
  cache and reports the charged bytes released; the memory-budget
  guard (:mod:`repro.exec.budget`) calls it before degrading an
  evaluation, making cached results the first memory to go.
* **Repeat detection** — :meth:`note_query` keeps a bounded set of
  recent query signatures so the planner can auto-select the cached
  strategy only for relations that are actually queried repeatedly.

The default budget is :data:`DEFAULT_BUDGET_BYTES`, overridable with
the ``REPRO_CACHE_BUDGET_BYTES`` environment variable (read when the
cache is constructed, so tests can swap it per-process).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.columns import ColumnSet
from repro.core.partition import stitch_columns
from repro.core.result import Columns
from repro.metrics.counters import OperationCounters

__all__ = [
    "ENV_BUDGET",
    "DEFAULT_BUDGET_BYTES",
    "CacheKey",
    "CachedEntry",
    "ShardResultCache",
    "cacheable_relation",
    "default_cache",
    "set_default_cache",
    "shed_default_cache",
]


def cacheable_relation(relation: Any) -> bool:
    """Does ``relation`` carry the result-cache protocol?

    True exactly for containers declaring ``supports_result_cache``
    (and thereby uid / version / append watermark / fingerprint /
    ``verify_append_chain``).  Raw triple streams
    and storage containers without the protocol evaluate uncached.
    """
    return bool(getattr(relation, "supports_result_cache", False))

#: Environment variable naming the default cache's byte budget.
ENV_BUDGET = "REPRO_CACHE_BUDGET_BYTES"

#: Default byte budget — roughly 1.4M cached answer rows at 24 charged
#: bytes per row, far above any test workload and far below a
#: workstation's memory.
DEFAULT_BUDGET_BYTES = 32 * 1024 * 1024

#: Recent query signatures remembered for repeat detection.
RECENT_QUERY_LIMIT = 256


class CacheKey(NamedTuple):
    """Identity of one cacheable evaluation."""

    relation_uid: int
    aggregate: str
    attribute: Optional[str]
    shards: int


class CachedEntry:
    """One evaluation's shard partials, held once as columns.

    ``parts`` holds one :class:`~repro.core.columns.ColumnSet` per
    window of ``windows``: the window's pre-stitch rows as ``array('q')``
    starts and ends plus a plain value list — what the append-delta
    path re-sweeps shard by shard.  ``merges[i]`` records the stitching
    decided when the entry was built: True when part ``i``'s first row
    continues the previous part's last row across an artificial seam.
    There is no stitched copy; :meth:`columns` concatenates the parts
    at C speed on every hit.

    ``charged_bytes`` is what the cache budget counts: the
    ``sys.getsizeof`` of every part's three column buffers.  It leaves
    out the value objects the value lists point at — for MIN and MAX
    the relation's own values, for COUNT mostly cached small ints, for
    SUM and AVG computed ints and floats that can add as many bytes
    again — and the fixed per-entry overhead of this object, its window
    list and the ``ColumnSet`` headers.  An entry is never mutated once
    stored: the refresh path builds a new one.
    """

    __slots__ = (
        "version",
        "fingerprint",
        "row_count",
        "windows",
        "parts",
        "merges",
        "charged_bytes",
    )

    def __init__(
        self,
        version: int,
        fingerprint: int,
        row_count: int,
        windows: List[Tuple[int, int]],
        parts: List[ColumnSet],
        merges: Sequence[bool],
    ) -> None:
        if len(merges) != len(parts):
            raise ValueError(
                f"{len(merges)} seam merges for {len(parts)} shard parts"
            )
        self.version = version
        self.fingerprint = fingerprint
        #: Relation row count at compute time; rows past this index are
        #: the append delta the refresh path folds in.
        self.row_count = row_count
        self.windows = windows
        self.parts = parts
        self.merges = list(merges)
        self.charged_bytes = sum(
            sys.getsizeof(part.starts)
            + sys.getsizeof(part.ends)
            + sys.getsizeof(part.values)
            for part in parts
        )

    def __len__(self) -> int:
        """Rows of the stitched answer."""
        return sum(len(part) for part in self.parts) - sum(self.merges)

    def columns(self) -> Columns:
        """The stitched answer as fresh ``(starts, ends, values)`` columns."""
        return stitch_columns(self.parts, self.merges)


class ShardResultCache:
    """Memory-bounded LRU store of versioned shard-result entries."""

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        *,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        if budget_bytes is None:
            env = os.environ.get(ENV_BUDGET, "").strip()
            budget_bytes = int(env) if env else DEFAULT_BUDGET_BYTES
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self.counters = counters if counters is not None else OperationCounters()
        self._live_bytes = 0  # ta: guarded-by(self.lock)
        self._entries: "OrderedDict[CacheKey, CachedEntry]" = OrderedDict()  # ta: guarded-by(self.lock)
        self._recent: "OrderedDict[Tuple[int, str, Optional[str]], bool]" = (
            OrderedDict()
        )  # ta: guarded-by(self.lock)
        #: Guards every structural operation (and the shared counter
        #: tallies) so one cache instance can serve many sessions on
        #: threads — the serving layer's shared server cache.  Re-entrant
        #: because store() calls discard() internally.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self.lock:
            return key in self._entries

    @property
    def live_bytes(self) -> int:
        """Charged bytes (:attr:`CachedEntry.charged_bytes`) of the
        entries currently held."""
        with self.lock:
            return self._live_bytes

    def tally(self, **deltas: int) -> None:
        """Add ``deltas`` to the cache's shared counters, atomically.

        Concurrent sessions share one counter object on the cache;
        bare ``cache.counters.x += 1`` from many threads would race
        (read-modify-write), so the evaluator routes its shared-side
        tallies through here.
        """
        with self.lock:
            for name, delta in deltas.items():
                setattr(self.counters, name, getattr(self.counters, name) + delta)

    def lookup(self, key: CacheKey) -> Optional[CachedEntry]:
        """The entry under ``key`` (refreshing its recency), or None.

        Validity against the relation's current version/fingerprint is
        the *evaluator's* decision — the store only remembers.
        """
        with self.lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def store(self, key: CacheKey, entry: CachedEntry) -> bool:
        """Insert (or replace) ``entry``, evicting LRU peers past the
        budget.  Returns False when the entry alone outweighs the whole
        budget and was not admitted."""
        with self.lock:
            self.discard(key)
            if entry.charged_bytes > self.budget_bytes:
                return False
            self._entries[key] = entry
            self._live_bytes += entry.charged_bytes
            self._evict_over_budget_locked(keep=key)
            return True

    def discard(self, key: CacheKey) -> None:
        """Drop one entry (no-op when absent)."""
        with self.lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._live_bytes -= entry.charged_bytes

    def _evict_over_budget_locked(self, keep: CacheKey) -> None:
        """Evict least-recently-used entries until under budget.

        The ``_locked`` suffix is the repo's caller-holds-the-lock
        convention: ``store()`` already holds ``self.lock`` around the
        insert + eviction, so this helper takes none itself.

        ``keep`` (the entry just inserted at the MRU end) survives even
        when it alone is what crossed the line — admission already
        rejected entries bigger than the whole budget.
        """
        while self._live_bytes > self.budget_bytes and len(self._entries) > 1:
            victim_key = next(iter(self._entries))
            if victim_key == keep:  # pragma: no cover - keep is MRU
                break
            victim = self._entries.pop(victim_key)
            self._live_bytes -= victim.charged_bytes
            self.counters.cache_evictions += 1

    def shed(self) -> int:
        """Evict everything; returns the charged bytes released.

        This is the memory-pressure hook: under a tripped memory
        budget, cached results are the first allocation to go — they
        are always recomputable.
        """
        with self.lock:
            released = self._live_bytes
            self.counters.cache_evictions += len(self._entries)
            self._entries.clear()
            self._live_bytes = 0
            return released

    def reset(self) -> None:
        """Drop entries, recency, and counters (test isolation)."""
        with self.lock:
            self.shed()
            self._recent.clear()
            self.counters.reset()

    # ------------------------------------------------------------------
    # Repeat detection
    # ------------------------------------------------------------------

    def note_query(
        self, relation_uid: int, aggregate: str, attribute: Optional[str]
    ) -> bool:
        """Record one query signature; True when it was seen before.

        The planner treats "seen before" as the repeated-workload
        signal that justifies paying the cache's first-miss overhead.
        The signature set is bounded (LRU, :data:`RECENT_QUERY_LIMIT`)
        so a scan over thousands of distinct relations cannot grow it.
        """
        signature = (relation_uid, aggregate, attribute)
        with self.lock:
            seen = signature in self._recent
            if seen:
                self._recent.move_to_end(signature)
            else:
                self._recent[signature] = True
                while len(self._recent) > RECENT_QUERY_LIMIT:
                    self._recent.popitem(last=False)
            return seen


# ---------------------------------------------------------------------------
# The process-default cache
# ---------------------------------------------------------------------------

_default: Optional[ShardResultCache] = None

#: Guards first-touch construction of the default cache.  Double-checked:
#: the fast path reads the module global without locking (an attribute
#: read of an already-published object is safe under the GIL); only the
#: None case takes the lock and re-checks, so two sessions racing the
#: first query cannot each build (and then split traffic across) their
#: own cache.
_default_lock = threading.Lock()


def default_cache() -> ShardResultCache:
    """The process-wide cache ``temporal_aggregate`` uses by default."""
    global _default
    cache = _default
    if cache is None:
        with _default_lock:
            cache = _default
            if cache is None:
                cache = _default = ShardResultCache()
    return cache


def set_default_cache(cache: Optional[ShardResultCache]) -> None:
    """Replace the process-default cache (None resets to lazy-new)."""
    global _default
    _default = cache


def shed_default_cache() -> int:
    """Empty the default cache if one exists; returns bytes released.

    Deliberately does *not* construct a cache: a process that never
    cached anything sheds zero bytes at zero cost.
    """
    if _default is None:
        return 0
    return _default.shed()
