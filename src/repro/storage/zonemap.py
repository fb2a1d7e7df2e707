"""Zone maps: per-page time bounds for windowed scans.

Section 6.3 notes the linked list "would have quite adequate
performance" when only a small window of the timeline is of interest
(the single-year example).  The storage-side complement of that
observation is *page skipping*: if each page's minimum start and
maximum end timestamps are known, a windowed query need only read the
pages whose time bounds overlap the window.  After the paper's
recommended external sort the relation's pages are time-clustered and
a narrow window touches a handful of them.

:class:`ZoneMap` materialises those bounds in one sequential pass (or
incrementally, page by page) and then serves:

* :meth:`pages_overlapping` — the page ids a window must read,
* :meth:`scan_window_triples` — a scan that skips every other page
  (skips are counted, so benches can report the saved I/O),
* :func:`windowed_aggregate` — a convenience that evaluates any core
  algorithm over just the qualifying tuples (through
  :func:`~repro.core.engine.evaluate_triples`, so the engine's input
  validation and invariant hook apply) and clips the result.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import evaluate_triples
from repro.core.interval import Interval
from repro.core.result import TemporalAggregateResult
from repro.storage.heapfile import HeapFile

__all__ = ["ZoneMap", "windowed_aggregate"]


class ZoneMap:
    """Per-page ``(min_start, max_end)`` bounds over one heap file."""

    def __init__(self, heap: HeapFile) -> None:
        self.heap = heap
        self._bounds: Dict[int, Tuple[int, int]] = {}
        self.pages_skipped = 0
        self.pages_scanned = 0
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)compute bounds with one sequential pass."""
        self._bounds.clear()
        timestamps_only = self.heap.codec.decode_timestamps_only
        for page_id in range(self.heap.buffer.page_count()):
            page = self.heap.buffer.get(page_id)
            low: Optional[int] = None
            high: Optional[int] = None
            for record in page.records():
                start, end = timestamps_only(record)
                low = start if low is None else min(low, start)
                high = end if high is None else max(high, end)
            if low is not None and high is not None:
                self._bounds[page_id] = (low, high)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def page_bounds(self, page_id: int) -> Optional[Tuple[int, int]]:
        """Bounds for one page, or None for an empty page."""
        return self._bounds.get(page_id)

    def pages_overlapping(self, window: Interval) -> List[int]:
        """Page ids whose time bounds intersect ``window``."""
        return [
            page_id
            for page_id, (low, high) in sorted(self._bounds.items())
            if low <= window.end and window.start <= high
        ]

    # ------------------------------------------------------------------
    # Windowed scanning
    # ------------------------------------------------------------------

    def scan_window_triples(
        self, window: Interval, attribute: Optional[str] = None
    ) -> Iterator[Tuple[int, int, Any]]:
        """Triples of tuples overlapping ``window``; other pages skipped.

        Resets and accumulates :attr:`pages_skipped` /
        :attr:`pages_scanned` for the scan.
        """
        heap = self.heap
        if attribute is None:
            position = None
        else:
            position = heap.schema.position_of(attribute)
        qualifying = set(self.pages_overlapping(window))
        self.pages_skipped = len(self._bounds) - len(qualifying)
        self.pages_scanned = len(qualifying)
        decode = heap.codec.decode
        timestamps_only = heap.codec.decode_timestamps_only
        for page_id in sorted(qualifying):
            page = heap.buffer.get(page_id)
            for record in page.records():
                start, end = timestamps_only(record)
                if start > window.end or end < window.start:
                    continue
                if position is None:
                    yield (start, end, None)
                else:
                    yield (start, end, decode(record).values[position])

    def __repr__(self) -> str:
        return f"ZoneMap({len(self._bounds)} pages over {self.heap.path or 'memory'})"


def windowed_aggregate(
    heap: HeapFile,
    aggregate,
    window: Interval,
    attribute: Optional[str] = None,
    *,
    zone_map: Optional[ZoneMap] = None,
    strategy: str = "aggregation_tree",
) -> TemporalAggregateResult:
    """Aggregate over ``window`` only, reading only qualifying pages.

    Equivalent to evaluating the whole relation and
    :meth:`~repro.core.result.TemporalAggregateResult.restrict`-ing,
    but touching just the pages the zone map admits.
    """
    zone_map = zone_map if zone_map is not None else ZoneMap(heap)
    triples = list(zone_map.scan_window_triples(window, attribute))
    return evaluate_triples(triples, aggregate, strategy).restrict(window)
