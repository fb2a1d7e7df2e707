"""The k-ordered aggregation tree (paper Section 5.3).

A variation of the aggregation tree for *k-ordered* input — relations
where every tuple sits at most ``k`` positions from its place in the
start-time-sorted order (Section 5.2).  Retroactively bounded
relations, common in practice, are k-ordered for the corresponding
``k``; a fully sorted relation is 0-ordered and the paper's recommended
strategy is "sort, then k-ordered tree with k = 1".

The observation that enables garbage collection: when processing tuple
number ``j``, the tuple ``2k+1`` positions back could have been at most
``k`` positions late, and tuple ``j`` at most ``k`` positions early, so
*every* future tuple starts at or after that old tuple's start time.
Constant intervals ending before it are therefore final: they can be
**emitted immediately, in time order, and their nodes freed**.

Mechanically the evaluator keeps:

* a sliding window of the last ``2k+1`` tuple start times; when a
  start time falls out of the window it becomes (the running maximum
  of) the *gc-threshold*;
* the aggregation tree itself, whose leftmost leaves are repeatedly
  emitted and spliced out while they end before the threshold —
  removing a leaf also removes its parent, exactly the paper's
  "replace the parent with the remaining leaf" step, and collapsing
  the root when its whole left subtree is gone.

The evaluator **streams**: results come out incrementally during the
scan and the remaining tree is flushed at the end.  Peak memory is
bounded by the window rather than the relation — the Figure 9 effect —
at the cost of being *wrong* if the input is not actually k-ordered.
A strict frontier check turns that silent wrongness into a
:class:`KOrderViolationError`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Iterable, List, Optional

from repro.core.aggregation_tree import AggregationTreeEvaluator
from repro.core.base import CHECKPOINT_INTERVAL, Triple
from repro.core.interval import ORIGIN
from repro.core.result import ConstantInterval, TemporalAggregateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.invariants import GCShadow
    from repro.core.aggregates import Aggregate
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = ["KOrderedTreeEvaluator", "KOrderViolationError"]


class KOrderViolationError(ValueError):
    """The input broke its k-ordering promise.

    Raised when a tuple starts inside a region whose constant intervals
    were already emitted and garbage collected — which can only happen
    if some tuple was more than ``k`` positions out of order.
    """


class KOrderedTreeEvaluator(AggregationTreeEvaluator):
    """Aggregation tree with window-driven garbage collection."""

    name = "kordered_tree"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        k: int = 1,
        *,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        super().__init__(aggregate, counters=counters, space=space)
        self.k = k
        self._window: Deque[int] = deque()
        self._threshold = ORIGIN  # running max of expired window starts
        self._frontier = ORIGIN  # first instant not yet emitted
        self._emitted: List[ConstantInterval] = []
        self._consumed = 0  # triples folded in since begin()
        #: Shadow gc-threshold recomputation, attached only while the
        #: runtime invariant verifier is enabled.
        self._gc_shadow: "Optional[GCShadow]" = None

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        """Emit and free the leading constant intervals that are final.

        Walks the leftmost path, and while the leftmost leaf ends
        before the gc-threshold: emits it (folding the states on its
        path), splices out its parent, and pushes the parent's partial
        state into the surviving sibling.
        """
        aggregate = self.aggregate
        counters = self.counters
        threshold = self._threshold
        collected_any = False
        while self.root is not None:
            node = self.root
            inherited = aggregate.identity()
            path: List[Any] = []
            while node.left is not None:
                counters.node_visits += 1
                inherited = aggregate.merge(inherited, node.state)
                path.append(node)
                node = node.left
            if node.end >= threshold:
                break
            collected_any = True
            if self._gc_shadow is not None:
                # Invariant verifier: the shadow recomputes the safe
                # threshold independently, so a corrupted _threshold is
                # caught here instead of trusted.
                self._gc_shadow.check_free(node)
            value = aggregate.finalize(aggregate.merge(inherited, node.state))
            self._emitted.append(ConstantInterval(node.start, node.end, value))
            counters.emitted += 1
            self._frontier = node.end + 1
            if not path:
                # A lone root leaf always extends to FOREVER, so this
                # cannot happen while the threshold is finite; guard
                # anyway to keep the loop total.
                break
            parent = path[-1]
            sibling = parent.right
            sibling.state = aggregate.merge(parent.state, sibling.state)
            if len(path) >= 2:
                path[-2].left = sibling
            else:
                self.root = sibling
            self.space.free(2)  # the emitted leaf and its spliced parent
            counters.nodes_collected += 2
        if collected_any:
            counters.gc_passes += 1

    # ------------------------------------------------------------------
    # Evaluation — split into begin/step/finish so a checkpointing
    # driver (:mod:`repro.storage.checkpoint`) can interleave state
    # capture with consumption; plain evaluate() composes the three.
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Reset all streaming state ahead of a fresh evaluation."""
        self.root = None
        self.space.reset()
        self._window.clear()
        self._threshold = ORIGIN
        self._frontier = ORIGIN
        self._emitted = []
        self._consumed = 0
        self._gc_shadow = None
        from repro.analysis import invariants  # deferred: avoid import cycle

        if invariants.invariants_enabled():
            self._gc_shadow = invariants.GCShadow(self.window_capacity)

    def step(self, start: int, end: int, value: Any) -> None:
        """Consume one ``(start, end, value)`` triple."""
        self._check_triple(start, end)
        self.counters.tuples += 1
        self._consumed += 1
        if self._consumed % CHECKPOINT_INTERVAL == 0:
            self._checkpoint(self._consumed)
        if start < self._frontier:
            raise KOrderViolationError(
                f"tuple starting at {start} arrived after instants up to "
                f"{self._frontier - 1} were already emitted; the input "
                f"is not {self.k}-ordered"
            )
        self.insert(start, end, value)
        if self._gc_shadow is not None:
            self._gc_shadow.observe(start)
        window = self._window
        window.append(start)
        if len(window) > self.window_capacity:
            expired = window.popleft()
            if expired > self._threshold:
                self._threshold = expired
            self._collect()

    def finish(self) -> TemporalAggregateResult:
        """Flush the remaining tree and assemble the full result."""
        trailing = self.traverse()
        rows = self._emitted + trailing.rows
        self._emitted = []
        return TemporalAggregateResult(rows, check=False)

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        self.begin()
        for start, end, value in triples:
            self.step(start, end, value)
        return self.finish()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """A picklable snapshot of the mid-stream evaluator state.

        Everything :meth:`restore_state` needs to resume consumption at
        triple ``consumed``: the live tree (preorder-encoded, the same
        codec the paged tree spills with), the k-window, the
        gc-threshold, the emission frontier, and the rows already
        emitted by garbage collection.
        """
        from repro.core.paged_tree import encode_subtree

        return {
            "evaluator": self.name,
            "k": self.k,
            "consumed": self._consumed,
            "window": list(self._window),
            "threshold": self._threshold,
            "frontier": self._frontier,
            "emitted": [(r.start, r.end, r.value) for r in self._emitted],
            "tree": encode_subtree(self.root) if self.root is not None else None,
        }

    def restore_state(self, state: dict) -> int:
        """Rebuild mid-stream state from :meth:`capture_state` output.

        Returns the number of triples already consumed — the caller
        must skip exactly that many before feeding :meth:`step` again.
        """
        from repro.core.paged_tree import decode_subtree, subtree_size

        if state.get("k") != self.k:
            raise ValueError(
                f"checkpoint was taken with k={state.get('k')}, "
                f"this evaluator has k={self.k}"
            )
        self.begin()
        if state["tree"] is not None:
            self.root = decode_subtree(state["tree"])
            self.space.allocate(subtree_size(self.root))
        self._window = deque(state["window"])
        self._threshold = state["threshold"]
        self._frontier = state["frontier"]
        self._emitted = [
            ConstantInterval(start, end, value)
            for start, end, value in state["emitted"]
        ]
        self._consumed = int(state["consumed"])
        if self._gc_shadow is not None:
            # The shadow re-derives future thresholds independently from
            # the restored window; seed it with the same history.
            self._gc_shadow.window = deque(self._window)
            self._gc_shadow.threshold = self._threshold
        return self._consumed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def window_capacity(self) -> int:
        """Tuples of history retained: ``2k + 1`` (paper Section 5.3)."""
        return 2 * self.k + 1

    @property
    def gc_threshold(self) -> int:
        """Current gc-threshold (running max of expired window starts)."""
        return self._threshold
