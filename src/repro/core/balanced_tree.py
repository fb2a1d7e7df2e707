"""Balanced aggregation tree (the paper's Section 7 future work).

The aggregation tree's weakness is that *insertion order* shapes it: a
sorted relation degrades it into a linear list with O(n²) behaviour.
The paper suggests a balanced variant as future work.  This evaluator
implements the natural version: buffer the input, derive the
elementary (constant) intervals exactly as the two-pass baseline does,
build a **perfectly balanced** binary tree whose leaves are those
elementary intervals, and then insert every tuple with the usual
complete-overlap shortcut — which is now a textbook segment-tree
update costing O(log n) per tuple regardless of input order.

Trade-offs relative to the unbalanced tree, which the ablation bench
(``benchmarks/test_ablation_balanced_tree.py``) quantifies:

* time becomes O(n·log n) even on sorted input (fixing Figures 7/8's
  pathology), but
* the input must be buffered (or scanned twice) to learn the
  boundaries first, and
* all ``2m - 1`` nodes exist up front, so peak memory matches the
  plain tree's worst case and never benefits from garbage collection.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.aggregation_tree import AggregationTreeEvaluator, TreeNode
from repro.core.base import CHECKPOINT_INTERVAL, Triple
from repro.core.interval import FOREVER
from repro.core.reference import constant_interval_boundaries
from repro.core.result import TemporalAggregateResult

__all__ = ["BalancedTreeEvaluator"]


class BalancedTreeEvaluator(AggregationTreeEvaluator):
    """Pre-balanced aggregation tree; order-insensitive O(n·log n)."""

    name = "balanced_tree"

    def _build_balanced(self, boundaries: List[int]) -> Optional[TreeNode]:
        """Balanced tree over the elementary intervals given by
        ``boundaries`` (each boundary starts one elementary interval;
        the last runs to FOREVER)."""
        identity = self.aggregate.identity()
        spans = []
        for index, start in enumerate(boundaries):
            if index + 1 < len(boundaries):
                spans.append((start, boundaries[index + 1] - 1))
            else:
                spans.append((start, FOREVER))

        def build(low: int, high: int) -> TreeNode:
            # Builds over spans[low:high]; recursion depth is O(log n).
            if high - low == 1:
                node = TreeNode(spans[low][0], spans[low][1], identity)
                self.space.allocate()
                return node
            middle = (low + high) // 2
            node = TreeNode(spans[low][0], spans[high - 1][1], identity)
            self.space.allocate()
            node.left = build(low, middle)
            node.right = build(middle, high)
            return node

        if not spans:
            return None
        return build(0, len(spans))

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        self.root = None
        self.space.reset()

        guarded = self.deadline is not None
        buffered: List[Triple] = []
        for start, end, value in triples:
            self._check_triple(start, end)
            buffered.append((start, end, value))
            if guarded and len(buffered) % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(len(buffered))
        boundaries = constant_interval_boundaries(buffered)
        self.root = self._build_balanced(boundaries)

        for consumed, (start, end, value) in enumerate(buffered, 1):
            self.counters.tuples += 1
            self.insert(start, end, value)
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)
        return self.traverse()
