"""Time-domain partitioning for parallel evaluation.

The constant-interval result is a partition of the timeline, so the
*time domain* — not the tuple set — is the natural axis to parallelise
along: split ``[ORIGIN, FOREVER]`` into ``P`` consecutive windows, clip
every tuple into the windows it overlaps, evaluate each window
independently, and concatenate.  Clipping preserves the multiset of
tuples valid at every instant inside a window, so *any* aggregate —
COUNT, SUM, MIN, MAX, AVG, and every other decomposable aggregate —
stays exact, unlike tuple-set partitioning, whose value-level merge
cannot reconstruct AVG.

The one artefact clipping introduces is the shard seam itself: a cut
instant ``c`` forces a row boundary at ``c`` even when no tuple starts
at ``c`` or ends at ``c - 1``.  :func:`seam_merges` finds exactly those
*artificial* seams (the aggregate value is provably identical on both
sides, because the valid tuple multiset is) and :func:`stitch_columns`
heals them, restoring the same row boundaries a single-shard
evaluation emits.

Everything here is pure and deterministic, which is what the property
tests lean on; the fan-out lives in :mod:`repro.core.parallel`.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.columns import ColumnSet
from repro.core.interval import FOREVER, ORIGIN
from repro.core.result import Columns

__all__ = [
    "PARALLEL_MIN_TUPLES",
    "available_workers",
    "shard_bounds",
    "clip_columns",
    "is_real_boundary",
    "seam_merges",
    "stitch_columns",
]

#: Hard cap on the shard fan-out; beyond this the per-shard clip and
#: stitch overhead outgrows any realistic core count.
MAX_SHARDS = 8

#: From this many tuples on, sharded work fans out: the planner picks
#: ``parallel_sweep`` on a multi-core host, and sharded sweeps run on
#: the resident worker pool (:mod:`repro.exec.pool`).  Below it the
#: fan-out's fixed costs outweigh the sweep and shards run in process
#: (measured in ``results/BENCH_planner.json``).
PARALLEL_MIN_TUPLES = 32_768


def available_workers(cap: int = MAX_SHARDS) -> int:
    """Usable parallel workers on this machine (at least 1)."""
    return max(1, min(cap, os.cpu_count() or 1))


def shard_bounds(
    starts: Sequence[int], ends: Sequence[int], shards: int
) -> List[Tuple[int, int]]:
    """Split the timeline into ``shards`` closed windows.

    The windows are consecutive, disjoint, and cover ``[ORIGIN,
    FOREVER]`` exactly.  Cuts are spread uniformly over the populated
    span (from the earliest start to one past the latest finite
    endpoint) so each window sees a comparable share of the events; a
    degenerate span yields fewer (possibly one) windows.
    """
    if shards <= 1 or not starts:
        return [(ORIGIN, FOREVER)]
    lo = min(starts)
    hi = max(max(starts), max((e + 1 for e in ends if e < FOREVER), default=0))
    span = hi - lo
    cuts = sorted(
        {lo + (span * i) // shards for i in range(1, shards)} - {lo}
    )
    cuts = [c for c in cuts if ORIGIN < c <= FOREVER]
    bounds: List[Tuple[int, int]] = []
    window_start = ORIGIN
    for cut in cuts:
        bounds.append((window_start, cut - 1))
        window_start = cut
    bounds.append((window_start, FOREVER))
    return bounds


def clip_columns(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    lo: int,
    hi: int,
) -> Tuple["array[int]", "array[int]", Optional[List[Any]]]:
    """Column-layout clipping: flat columns in, flat columns out.

    Keeps the tuples overlapping ``[lo, hi]``, clipped to the window.
    Clipping keeps the per-instant valid multiset inside the window
    identical to the unclipped relation's, which is the exactness
    argument for every decomposable aggregate.  The clipped rows land
    directly in fresh ``array('q')`` columns, so shard workers and
    cache re-sweeps never materialize row objects.  ``values=None``
    (the value-less COUNT feed) clips just the two timestamp
    columns.
    """
    clipped_starts = array("q")
    clipped_ends = array("q")
    append_start = clipped_starts.append
    append_end = clipped_ends.append
    if values is None:
        for start, end in zip(starts, ends):  # ta: hot
            if start <= hi and end >= lo:
                append_start(start if start > lo else lo)
                append_end(end if end < hi else hi)
        return clipped_starts, clipped_ends, None
    clipped_values: List[Any] = []
    append_value = clipped_values.append
    for start, end, value in zip(starts, ends, values):  # ta: hot
        if start <= hi and end >= lo:
            append_start(start if start > lo else lo)
            append_end(end if end < hi else hi)
            append_value(value)
    return clipped_starts, clipped_ends, clipped_values


def is_real_boundary(cut: int, start_instants: Set[int], end_instants: Set[int]) -> bool:
    """Would a single-shard evaluation emit a row boundary at ``cut``?

    Yes iff some tuple starts at ``cut`` or ends at ``cut - 1`` — the
    aggregate value can only change there.  Any other cut is an
    artificial shard seam.
    """
    return cut in start_instants or (cut - 1) in end_instants


def seam_merges(
    parts: Sequence[ColumnSet], starts: Iterable[int], ends: Iterable[int]
) -> List[bool]:
    """Which seams between per-window answers are artificial.

    ``parts`` hold the rows of consecutive windows as columns;
    ``starts`` and ``ends`` are the relation's interval endpoints.
    Returns one flag per part: True when the part's first row heals
    into the previous non-empty part's last row — the seam is
    artificial and the values agree, so a single evaluation would never
    have split them.  Real boundaries stay split even when values
    coincide, matching the reference evaluator's (and every core
    evaluator's) output.  Only the seam instants are looked up, so no
    set of every endpoint is built.
    """
    cuts = [part.starts[0] for part in parts[1:] if len(part)]
    starting = set(cuts).intersection(starts)
    ending = {cut - 1 for cut in cuts}.intersection(ends)
    merges: List[bool] = []
    previous: Optional[List[Any]] = None  # the last non-empty part's values
    for part in parts:
        values = part.values
        if not len(part):
            merges.append(False)
            continue
        assert values is not None  # cached parts carry values
        merges.append(
            previous is not None
            and not is_real_boundary(part.starts[0], starting, ending)
            and previous[-1] == values[0]
        )
        previous = values
    return merges


def stitch_columns(parts: Sequence[ColumnSet], merges: Sequence[bool]) -> Columns:
    """Concatenate per-window answer columns into fresh columns,
    healing the seams :func:`seam_merges` flagged."""
    starts: "array[int]" = array("q")
    ends: "array[int]" = array("q")
    values: List[Any] = []
    for part, merged in zip(parts, merges):
        part_values = part.values
        assert part_values is not None  # answer parts carry values
        if merged:
            # The previous row runs on to this part's first row's end.
            ends[-1] = part.ends[0]
            starts += part.starts[1:]
            ends += part.ends[1:]
            values += part_values[1:]
        else:
            starts += part.starts
            ends += part.ends
            values += part_values
    return starts, ends, values
