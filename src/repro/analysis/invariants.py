"""Runtime invariant verifier (``REPRO_CHECK_INVARIANTS=1``).

The engine's failure mode is not a crash — it is a *wrong row*: a
partial aggregate that no longer re-sums, a k-ordered node freed while
its interval could still change, a shard seam stitched into a gap.
This module re-checks, at runtime and against independent shadow
computations, the properties every evaluator silently relies on:

* **Partition** — the constant intervals of a result exactly partition
  ``[ORIGIN, FOREVER]``: time-ordered, no gaps, no overlaps.
* **Snapshot agreement** (snapshot reducibility) — at sampled instants
  the reported value equals a brute-force per-instant evaluation of
  the input triples, the definition the paper starts from.
* **Tree partials re-sum** — for sampled leaves of an aggregation
  tree, folding the node states along the root-to-leaf path equals the
  brute-force fold of the tuples overlapping that leaf.
* **GC safety** — the k-ordered tree never frees a node whose interval
  can still change: a shadow sliding window recomputes the safe
  threshold independently of the evaluator's own bookkeeping, so a
  corrupted ``_threshold`` is caught rather than trusted.
* **Space accounting** — live structure matches
  :class:`~repro.metrics.space.SpaceTracker` (checked after paged-tree
  evictions and at the end of every tree evaluation).
* **Space bound** — the tracked peak is at most the bound the planner
  charges the plan that ran (:func:`repro.core.planner.node_bound`),
  recomputed from the input triples.

Verification is off by default and costs one module-flag check per
engine call.  Enable it with the ``REPRO_CHECK_INVARIANTS=1``
environment variable (read at import), :func:`enable`, or the
``invariant_checks`` pytest fixture; with the flag set the entire
existing test suite doubles as an invariant stress test.  A failed
check raises :class:`InvariantViolation` (an ``AssertionError``: these
are bugs, not request errors).
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Any, Deque, Iterator, List, Optional, Sequence, Tuple

from repro.core.interval import FOREVER, ORIGIN

__all__ = [
    "ENV_FLAG",
    "InvariantViolation",
    "GCShadow",
    "invariants_enabled",
    "enable",
    "disable",
    "reset_to_env",
    "verify_result_partition",
    "verify_snapshot_agreement",
    "verify_tree_partials",
    "verify_space_accounting",
    "verify_space_bound",
    "verify_cached_shards",
    "verify_recovered_relation",
    "verify_evaluation",
]

#: Environment variable that switches the verifier on (read at import).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"

#: Instants sampled for the snapshot-agreement check per evaluation.
SNAPSHOT_SAMPLES = 48

#: Leaves sampled for the partial-resummation check per evaluation.
LEAF_SAMPLES = 32


class InvariantViolation(AssertionError):
    """An engine invariant failed at runtime — a bug, not a bad request."""


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() not in {
        "",
        "0",
        "false",
        "no",
        "off",
    }


_enabled: bool = _env_enabled()


def invariants_enabled() -> bool:
    """Is runtime invariant verification currently on?"""
    return _enabled


def enable() -> None:
    """Switch verification on for this process (overrides the env)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch verification off for this process (overrides the env)."""
    global _enabled
    _enabled = False


def reset_to_env() -> None:
    """Restore the import-time, environment-driven setting."""
    global _enabled
    _enabled = _env_enabled()


# ---------------------------------------------------------------------------
# Independent brute-force computation (deliberately naive)
# ---------------------------------------------------------------------------


def _brute_fold(
    triples: Sequence[Tuple[int, int, Any]], aggregate: Any, lo: int, hi: int
) -> Any:
    """Finalized aggregate over every tuple overlapping ``[lo, hi]``.

    Correct for any span lying inside one constant interval (every
    overlapping tuple then covers the whole span) — which is exactly
    how the checks below use it.
    """
    state = aggregate.identity()
    for start, end, value in triples:
        if start <= hi and end >= lo:
            state = aggregate.absorb(state, value)
    return aggregate.finalize(state)


def _values_agree(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        return math.isclose(float(left), float(right), rel_tol=1e-9, abs_tol=1e-9)
    return bool(left == right)


def _sample_indices(count: int, limit: int) -> Iterator[int]:
    """Deterministic spread of at most ``limit`` indices over ``count``."""
    if count <= limit:
        yield from range(count)
        return
    stride = count / limit
    yield from sorted({min(count - 1, int(i * stride)) for i in range(limit)})


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def verify_result_partition(result: Any, *, what: str = "result") -> None:
    """Constant intervals must exactly partition ``[ORIGIN, FOREVER]``."""
    rows = result.rows
    if not rows:
        raise InvariantViolation(f"{what}: empty result cannot cover the timeline")
    if rows[0].start != ORIGIN:
        raise InvariantViolation(
            f"{what}: first row starts at {rows[0].start}, not the origin "
            f"{ORIGIN}"
        )
    previous_end = None
    for row in rows:
        if row.start > row.end:
            raise InvariantViolation(f"{what}: inverted row {row!r}")
        if previous_end is not None:
            if row.start <= previous_end:
                raise InvariantViolation(
                    f"{what}: row {row!r} overlaps the previous row ending "
                    f"at {previous_end}"
                )
            if row.start != previous_end + 1:
                raise InvariantViolation(
                    f"{what}: gap between {previous_end} and row {row!r}"
                )
        previous_end = row.end
    if previous_end != FOREVER:
        raise InvariantViolation(
            f"{what}: last row ends at {previous_end}, not FOREVER"
        )


def verify_snapshot_agreement(
    result: Any,
    triples: Sequence[Tuple[int, int, Any]],
    aggregate: Any,
    *,
    max_samples: int = SNAPSHOT_SAMPLES,
) -> None:
    """Sampled rows agree with per-instant brute-force evaluation.

    Snapshot reducibility: the value over a constant interval must
    equal the snapshot evaluation at any instant inside it.  We sample
    rows deterministically and check their start instants.
    """
    rows = result.rows
    for index in _sample_indices(len(rows), max_samples):
        row = rows[index]
        expected = _brute_fold(triples, aggregate, row.start, row.start)
        if not _values_agree(row.value, expected):
            raise InvariantViolation(
                f"snapshot disagreement at instant {row.start}: result row "
                f"{row!r} but brute-force per-instant evaluation gives "
                f"{expected!r}"
            )


def _leaf_states(root: Any, aggregate: Any) -> Iterator[Tuple[Any, Any]]:
    """(leaf, folded root-to-leaf state) pairs, in time order."""
    stack: List[Tuple[Any, Any]] = [(root, aggregate.identity())]
    while stack:
        node, inherited = stack.pop()
        state = aggregate.merge(inherited, node.state)
        if node.left is None:
            yield node, state
            continue
        stack.append((node.right, state))
        stack.append((node.left, state))


def verify_tree_partials(
    evaluator: Any,
    triples: Sequence[Tuple[int, int, Any]],
    *,
    max_leaves: int = LEAF_SAMPLES,
) -> None:
    """Sampled tree leaves re-sum to the brute-force per-leaf value.

    Folds the node states along each sampled leaf's root-to-leaf path
    and compares against an independent fold of every input tuple
    overlapping the leaf's interval.  A corrupted partial anywhere on
    the path surfaces here.
    """
    root = getattr(evaluator, "root", None)
    if root is None:
        return
    aggregate = evaluator.aggregate
    leaves = list(_leaf_states(root, aggregate))
    for index in _sample_indices(len(leaves), max_leaves):
        leaf, state = leaves[index]
        folded = aggregate.finalize(state)
        expected = _brute_fold(triples, aggregate, leaf.start, leaf.end)
        if not _values_agree(folded, expected):
            raise InvariantViolation(
                f"aggregation-tree partials do not re-sum over leaf "
                f"[{leaf.start}, {leaf.end}]: path fold gives {folded!r}, "
                f"brute force over the input gives {expected!r}"
            )


def verify_space_accounting(evaluator: Any, *, when: str = "evaluation") -> None:
    """Live structure must match the ``SpaceTracker``'s ledger.

    Applies to evaluators exposing ``node_count()`` (the aggregation
    tree family, including the paged and k-ordered variants): every
    allocate/free must have been mirrored, or the peak the space-bound
    check compares is meaningless.
    """
    node_count = getattr(evaluator, "node_count", None)
    space = getattr(evaluator, "space", None)
    if node_count is None or space is None:
        return
    actual = node_count()
    if actual != space.live_nodes:
        raise InvariantViolation(
            f"space accounting diverged after {when}: {actual} live nodes "
            f"in the structure but SpaceTracker records {space.live_nodes}"
        )


def verify_space_bound(
    evaluator: Any, triples: Sequence[Tuple[int, int, Any]]
) -> None:
    """The tracked peak stays within the plan's bound over ``triples``:
    the bound the planner admits the plan under a memory budget by.
    Plans without a bound are skipped."""
    # Lazy imports: the engine imports this module.
    from repro.core.planner import node_bound
    from repro.relation.relation import space_counts

    counts = space_counts([t[0] for t in triples], [t[1] for t in triples])
    bound = node_bound(evaluator.name, counts, getattr(evaluator, "k", None))
    space = evaluator.space
    if bound is not None and space.peak_nodes > bound:
        raise InvariantViolation(
            f"{evaluator.name} tracked a peak of {space.peak_nodes} nodes "
            f"over its bound of {bound} ({counts})"
        )


def verify_cached_shards(
    relation: Any,
    attribute: Optional[str],
    aggregate: Any,
    windows: Sequence[Tuple[int, int]],
    parts: Sequence[Any],
) -> None:
    """One sampled cached shard re-sweeps to the same rows from scratch.

    The shard-result cache's pure-hit path returns rows computed in the
    past; this check recomputes one window — sampled deterministically
    from the relation's version so repeated hits rotate through the
    shards — against the *live* relation and compares row for row.
    ``parts`` are the cached per-window columns
    (:class:`~repro.core.columns.ColumnSet`).  A cache serving stale or
    corrupted partials surfaces here instead of in downstream answers.
    """
    if not windows:
        return
    # Lazy import: the engine imports this module, and the kernel sits
    # below the engine — importing it at call time keeps imports acyclic.
    from repro.core.columnar_sweep import window_rows

    index = getattr(relation, "version", 0) % len(windows)
    lo, hi = windows[index]
    triples = list(relation.scan_triples(attribute))
    if not triples:
        return
    starts, ends, values = zip(*triples)
    answer, _events = window_rows(starts, ends, values, aggregate, lo, hi)
    expected = list(zip(*answer))
    part = parts[index]
    cached = list(zip(part.starts, part.ends, part.values))
    if len(cached) != len(expected):
        raise InvariantViolation(
            f"cached shard {index} over [{lo}, {hi}] holds {len(cached)} "
            f"rows but a fresh sweep produces {len(expected)}"
        )
    for have, want in zip(cached, expected):
        if (
            have[0] != want[0]
            or have[1] != want[1]
            or not _values_agree(have[2], want[2])
        ):
            raise InvariantViolation(
                f"cached shard {index} over [{lo}, {hi}] diverged: cached "
                f"row {tuple(have)!r} but a fresh sweep gives {tuple(want)!r}"
            )


def verify_recovered_relation(recovered: Any, reference: Any) -> None:
    """A recovered relation must be row-for-row the acknowledged prefix.

    ``recovered`` and ``reference`` are anything iterable over
    :class:`~repro.relation.tuples.TemporalTuple` (heap files,
    relations, plain lists); ``reference`` holds every acknowledged row
    in append order.  Row counts, per-row content at sampled positions,
    and the full chained fingerprint must all agree — the fingerprint
    catches reorderings and substitutions sampling would miss.
    """
    # Lazy import, same reason as above: relation sits below analysis.
    from repro.relation.relation import fingerprint_rows

    recovered_rows = list(recovered)
    reference_rows = list(reference)
    if len(recovered_rows) != len(reference_rows):
        raise InvariantViolation(
            f"recovery returned {len(recovered_rows)} rows but "
            f"{len(reference_rows)} were acknowledged"
        )
    for index in _sample_indices(len(recovered_rows), LEAF_SAMPLES):
        if recovered_rows[index] != reference_rows[index]:
            raise InvariantViolation(
                f"recovered row {index} is {recovered_rows[index]!r}, "
                f"acknowledged row was {reference_rows[index]!r}"
            )
    have = fingerprint_rows(recovered_rows)
    want = fingerprint_rows(reference_rows)
    if have != want:
        raise InvariantViolation(
            f"recovered relation fingerprint {have:#x} differs from the "
            f"acknowledged fingerprint {want:#x} despite equal cardinality "
            "— rows were reordered or substituted"
        )


class GCShadow:
    """Independent recomputation of the k-ordered gc-threshold.

    Mirrors the paper's Section 5.3 argument from scratch: keep the
    last ``2k + 1`` tuple start times; the running max of *expired*
    starts is the earliest instant any future tuple can start, so a
    node whose interval reaches that instant may still change and must
    not be freed.  Because the shadow never reads the evaluator's own
    ``_threshold``, a corrupted threshold is detected instead of
    trusted.
    """

    __slots__ = ("capacity", "window", "threshold")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.window: Deque[int] = deque()
        self.threshold = ORIGIN

    def observe(self, start: int) -> None:
        """Record one consumed tuple's start time."""
        self.window.append(start)
        if len(self.window) > self.capacity:
            expired = self.window.popleft()
            if expired > self.threshold:
                self.threshold = expired

    def check_free(self, node: Any) -> None:
        """A node about to be freed must be final under the *shadow*
        threshold."""
        if node.end >= self.threshold:
            raise InvariantViolation(
                f"k-ordered gc freed node [{node.start}, {node.end}] but "
                f"future tuples may still start at {self.threshold} or "
                "later — its interval can still change"
            )


def verify_evaluation(
    evaluator: Any,
    result: Any,
    triples: Sequence[Tuple[int, int, Any]],
    aggregate: Any,
) -> None:
    """The engine-boundary hook: run every applicable post-hoc check."""
    verify_result_partition(result)
    verify_snapshot_agreement(result, triples, aggregate)
    verify_tree_partials(evaluator, triples)
    verify_space_accounting(evaluator)
    verify_space_bound(evaluator, triples)
