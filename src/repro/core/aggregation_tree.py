"""The aggregation tree (paper Section 5.1).

The aggregation tree is an *unbalanced*, incrementally built binary
tree over the timeline — the paper's segment-tree-like structure for
computing a temporal aggregate in one scan.  Invariants:

* every node carries a closed interval; the root starts as
  ``[ORIGIN, FOREVER]``;
* a node is either a leaf, or has exactly two children whose intervals
  partition the node's interval;
* the in-order sequence of **leaf** intervals is exactly the current
  set of constant intervals;
* every node carries a partial aggregate state that applies to *all*
  instants under it.  The true value over a leaf is the fold of the
  states along its root-to-leaf path.

Inserting a tuple ``[s, e]`` descends from the root:

* a node whose interval lies completely inside ``[s, e]`` absorbs the
  tuple's value into its state and the descent stops there — the key
  optimisation that spares the tree from touching its leaves for
  long-lived tuples;
* a partially overlapped leaf is split in two (at the start boundary
  ``s`` or the end boundary ``e``, closed-interval arithmetic); the
  leaf's state stays on the now-internal node and both children start
  empty;
* descent continues into the children that overlap ``[s, e]``.

After the scan, a depth-first traversal folds states from the root
down and emits ``(leaf interval, value)`` in time order.

Because the tree is shaped by insertion order, a *sorted* relation
degrades it into a right-deep linear list — O(n²), the pathology
Figures 7 and 8 show — while randomly ordered input keeps it bushy and
fast.  Both insertion and traversal below are iterative (explicit
stacks) precisely because the degenerate tree is thousands of levels
deep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.core.base import CHECKPOINT_INTERVAL, Evaluator, Triple
from repro.core.interval import FOREVER, ORIGIN
from repro.core.result import ConstantInterval, TemporalAggregateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = ["AggregationTreeEvaluator", "TreeNode"]


class TreeNode:
    """One aggregation-tree node.

    The paper's implementation packs a node into 16 bytes (two child
    pointers, one split timestamp, one aggregate value); we store the
    full interval for clarity and keep the 16-byte figure in the
    space model (:mod:`repro.metrics.space`).
    """

    __slots__ = ("start", "end", "state", "left", "right")

    def __init__(self, start: int, end: int, state: Any) -> None:
        self.start = start
        self.end = end
        self.state = state
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} [{self.start}, {self.end}] state={self.state!r}>"


class AggregationTreeEvaluator(Evaluator):
    """Single-scan aggregation tree; fast on unordered input."""

    name = "aggregation_tree"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.root: Optional[TreeNode] = None

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------

    def _new_root(self) -> TreeNode:
        root = TreeNode(ORIGIN, FOREVER, self.aggregate.identity())
        self.space.allocate()
        return root

    def _split_leaf(self, leaf: TreeNode, start: int, end: int) -> None:
        """Split a partially overlapped leaf at the tuple boundary inside it.

        Exactly one of the tuple's two boundaries falls strictly inside
        a partially overlapped leaf on any given visit; if both do, the
        descent re-splits the relevant child on the next step.
        """
        identity = self.aggregate.identity()
        if leaf.start < start <= leaf.end:
            # Start boundary: [a, b] -> [a, s-1] | [s, b].
            leaf.left = TreeNode(leaf.start, start - 1, identity)
            leaf.right = TreeNode(start, leaf.end, identity)
        else:
            # End boundary: [a, b] -> [a, e] | [e+1, b].
            leaf.left = TreeNode(leaf.start, end, identity)
            leaf.right = TreeNode(end + 1, leaf.end, identity)
        self.counters.splits += 1
        self.space.allocate(2)

    def insert(self, start: int, end: int, value: Any) -> None:
        """Fold one tuple into the tree (iterative descent)."""
        if self.root is None:
            self.root = self._new_root()
        aggregate = self.aggregate
        counters = self.counters
        stack: List[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            counters.node_visits += 1
            if start <= node.start and node.end <= end:
                # Complete overlap: record here, never descend (the
                # paper's shortcut for long-lived tuples).
                node.state = aggregate.absorb(node.state, value)
                counters.aggregate_updates += 1
                continue
            if node.left is None:
                self._split_leaf(node, start, end)
            # Descend into whichever children overlap the tuple.
            left = node.left
            right = node.right
            if right is not None and right.start <= end and start <= right.end:
                stack.append(right)
            if left is not None and left.start <= end and start <= left.end:
                stack.append(left)

    def build(self, triples: Iterable[Triple]) -> None:
        """Insert a whole stream of tuples.

        When a deadline is attached, the loop checks it every
        :data:`CHECKPOINT_INTERVAL` tuples.  Memory is bounded before
        the run (:mod:`repro.core.planner`): 2B + 1 nodes at most.
        """
        guarded = self.deadline is not None
        consumed = 0
        for start, end, value in triples:
            self._check_triple(start, end)
            self.counters.tuples += 1
            self.insert(start, end, value)
            consumed += 1
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------

    def traverse(self) -> TemporalAggregateResult:
        """Depth-first fold producing constant intervals in time order."""
        aggregate = self.aggregate
        counters = self.counters
        rows: List[ConstantInterval] = []
        if self.root is None:
            # An empty input still has one constant interval; keep the
            # root so the structure matches the space it was charged.
            self.root = self._new_root()
        stack: List[tuple] = [(self.root, aggregate.identity())]
        while stack:
            node, inherited = stack.pop()
            state = aggregate.merge(inherited, node.state)
            if node.left is None:
                rows.append(
                    ConstantInterval(node.start, node.end, aggregate.finalize(state))
                )
                counters.emitted += 1
                continue
            # Right pushed first so the left child pops (and emits) first.
            stack.append((node.right, state))
            stack.append((node.left, state))
        return TemporalAggregateResult(rows, check=False)

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        self.root = None
        self.space.reset()
        self.build(triples)
        return self.traverse()

    # ------------------------------------------------------------------
    # Introspection (tests and the memory experiments)
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of live nodes (equals ``space.live_nodes``)."""
        count = 0
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node is None:
                continue
            count += 1
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def depth(self) -> int:
        """Height of the tree (1 for a single leaf); shows the
        sorted-input degeneration."""
        if self.root is None:
            return 0
        deepest = 0
        stack = [(self.root, 1)]
        while stack:
            node, level = stack.pop()
            deepest = max(deepest, level)
            if node.left is not None:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    def leaf_intervals(self) -> List[Tuple[int, int]]:
        """The current constant intervals, in time order (for tests)."""
        rows: List[Tuple[int, int]] = []
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node.left is None:
                rows.append((node.start, node.end))
            else:
                stack.append(node.right)
                stack.append(node.left)
        return rows
