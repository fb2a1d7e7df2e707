"""Limited-main-memory aggregation tree (paper Sections 5.1 and 7).

The plain aggregation tree holds every constant interval in memory,
which Section 7 calls "excessive" for large unordered relations.  The
paper sketches the fix: *"it is simple to mark a parent as pointing to
a subtree not currently in memory.  Simply accumulate the tuples which
would overlap this region and process them later"* — and names limited
main memory implementations an area for future research.  This module
implements that design:

* the evaluator builds a normal aggregation tree until its live node
  count would exceed ``node_budget``;
* it then **evicts** a large subtree: the subtree is serialised to a
  spill file and replaced by a 1-node *stub* that remembers the
  region's interval and carries a partial state of its own;
* later tuples that completely cover a stub fold into the stub's state
  as usual; tuples that partially overlap it are **accumulated** —
  clipped to the region and appended to the stub's pending list, which
  itself spills to disk in chunks;
* the final traversal materialises each stub *in time order*: the
  spilled subtree is reloaded, its pending tuples are replayed into it
  (still under the budget, so a huge region spills again into
  sub-regions), and the replayed subtree is pushed back onto the same
  explicit traversal stack.  Traversal **consumes** nodes — each is
  freed as it is popped — so peak live nodes stay near the budget even
  while regions are being rematerialised.

The output is exactly the plain tree's; ``metrics`` records evictions,
spilled bytes, reloads and replay depth so benchmarks can weigh the
memory/IO trade discussed in Section 6.3.

``node_budget`` steers evictions but does not bound the tracked peak
(replays have been measured holding up to 1.9x it), so the planner
refuses this plan under a memory budget; it runs when named without one.
"""

from __future__ import annotations

import pickle
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.core.aggregation_tree import AggregationTreeEvaluator, TreeNode
from repro.core.base import Triple
from repro.core.result import ConstantInterval, TemporalAggregateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = [
    "PagedAggregationTreeEvaluator",
    "SpillMetrics",
    "MIN_NODE_BUDGET",
    "encode_subtree",
    "decode_subtree",
    "subtree_size",
]

#: Below this the tree cannot do useful work between evictions.
MIN_NODE_BUDGET = 16

#: Pending tuples buffered in memory per stub before a chunk spills.
_PENDING_CHUNK = 256


@dataclass(slots=True)
class SpillMetrics:
    """Disk activity of one paged evaluation (all replay levels)."""

    evictions: int = 0
    spilled_subtree_nodes: int = 0
    spilled_bytes: int = 0
    spilled_tuples: int = 0
    reloads: int = 0
    replayed_tuples: int = 0
    deepest_replay: int = 0


class _SpillFile:
    """Append-only blob store on an anonymous temporary file."""

    __slots__ = ("_handle", "_offset")

    def __init__(self) -> None:
        self._handle = tempfile.TemporaryFile(prefix="repro_spill_")
        self._offset = 0

    def save(self, payload: Any) -> Tuple[int, int]:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.seek(self._offset)
        self._handle.write(blob)
        ref = (self._offset, len(blob))
        self._offset += len(blob)
        return ref

    def load(self, ref: Tuple[int, int]) -> Any:
        offset, length = ref
        self._handle.seek(offset)
        return pickle.loads(self._handle.read(length))


class _StubNode(TreeNode):
    """A leaf standing in for an evicted (spilled) subtree.

    Carries its own spill-file reference so any traversal can
    rematerialise it, and a replay depth for the metrics.
    """

    __slots__ = ("spill", "subtree_ref", "pending_refs", "pending_buffer", "depth")

    def __init__(
        self, start: int, end: int, state: Any, spill: _SpillFile, subtree_ref, depth: int
    ) -> None:
        super().__init__(start, end, state)
        self.spill = spill
        self.subtree_ref = subtree_ref
        self.pending_refs: List[Tuple[int, int]] = []
        self.pending_buffer: List[Triple] = []
        self.depth = depth


def _encode_subtree(node: TreeNode) -> List[tuple]:
    """Preorder encoding of a subtree as (start, end, state, internal)
    records.  Iterative: degenerate (sorted-input) subtrees are
    thousands of levels deep.  Stubs cannot occur inside: eviction only
    targets stub-free subtrees."""
    out: List[tuple] = []
    stack = [node]
    while stack:
        current = stack.pop()
        internal = current.left is not None
        out.append((current.start, current.end, current.state, internal))
        if internal:
            stack.append(current.right)
            stack.append(current.left)
    return out


def _decode_subtree(encoded: List[tuple]) -> TreeNode:
    """Rebuild a subtree from its preorder encoding (iterative)."""
    items = iter(encoded)
    start, end, state, internal = next(items)
    root = TreeNode(start, end, state)
    # Stack of (parent, which-child-comes-next) slots awaiting nodes.
    slots: List[tuple] = [(root, 0)] if internal else []
    while slots:
        parent, which = slots.pop()
        start, end, state, internal = next(items)
        node = TreeNode(start, end, state)
        if which == 0:
            parent.left = node
            slots.append((parent, 1))
        else:
            parent.right = node
        if internal:
            slots.append((node, 0))
    return root


def _subtree_size(node: Optional[TreeNode]) -> int:
    count = 0
    stack = [node] if node is not None else []
    while stack:
        current = stack.pop()
        count += 1
        if current.left is not None:
            stack.append(current.left)
            stack.append(current.right)
    return count


#: Public aliases: the checkpoint layer (:mod:`repro.storage.checkpoint`)
#: serialises evaluator trees with exactly the spill codec, so a
#: journaled checkpoint and a spilled subtree share one wire format.
encode_subtree = _encode_subtree
decode_subtree = _decode_subtree
subtree_size = _subtree_size


def _contains_stub(node: TreeNode) -> bool:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, _StubNode):
            return True
        if current.left is not None:
            stack.append(current.left)
            stack.append(current.right)
    return False


class PagedAggregationTreeEvaluator(AggregationTreeEvaluator):
    """Aggregation tree under a hard node budget, spilling to disk."""

    name = "paged_tree"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        node_budget: int = 4096,
        *,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
        metrics: Optional[SpillMetrics] = None,
        _depth: int = 0,
    ) -> None:
        if node_budget < MIN_NODE_BUDGET:
            raise ValueError(f"node budget must be at least {MIN_NODE_BUDGET}")
        super().__init__(aggregate, counters=counters, space=space)
        self.node_budget = node_budget
        self.metrics = metrics if metrics is not None else SpillMetrics()
        self._depth = _depth
        self._spill: Optional[_SpillFile] = None

    # ------------------------------------------------------------------
    # Insertion under the budget
    # ------------------------------------------------------------------

    def insert(self, start: int, end: int, value: Any) -> None:
        """Insert with the plain-tree descent, diverted at stubs."""
        if self.root is None:
            self.root = self._new_root()
        aggregate = self.aggregate
        counters = self.counters
        stack: List[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            counters.node_visits += 1
            if start <= node.start and node.end <= end:
                node.state = aggregate.absorb(node.state, value)
                counters.aggregate_updates += 1
                continue
            if isinstance(node, _StubNode):
                # Partial overlap with an evicted region: accumulate the
                # clipped tuple for later replay (the paper's sketch).
                clipped = (max(start, node.start), min(end, node.end), value)
                node.pending_buffer.append(clipped)
                self.metrics.spilled_tuples += 1
                if len(node.pending_buffer) >= _PENDING_CHUNK:
                    self._flush_pending(node)
                continue
            if node.left is None:
                self._split_leaf(node, start, end)
            left = node.left
            right = node.right
            if right is not None and right.start <= end and start <= right.end:
                stack.append(right)
            if left is not None and left.start <= end and start <= left.end:
                stack.append(left)
        if self.space.live_nodes > self.node_budget:
            self._evict()

    def _flush_pending(self, stub: _StubNode) -> None:
        ref = stub.spill.save(stub.pending_buffer)
        stub.pending_refs.append(ref)
        self.metrics.spilled_bytes += ref[1]
        stub.pending_buffer = []

    def _spill_file(self) -> _SpillFile:
        if self._spill is None:
            self._spill = _SpillFile()
        return self._spill

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _evict(self) -> None:
        """Replace the root's larger stub-free child with a stub."""
        root = self.root
        if root is None or root.left is None:
            return
        victims = []
        for child_name in ("left", "right"):
            child = getattr(root, child_name)
            if not _contains_stub(child):
                size = _subtree_size(child)
                if size > 1:
                    victims.append((size, child_name, child))
        if not victims:
            # Both children are stubs (or single leaves): the tree can
            # no longer grow past the root split, so nothing to evict.
            return
        size, child_name, child = max(victims, key=lambda v: v[0])
        spill = self._spill_file()
        ref = spill.save(_encode_subtree(child))
        stub = _StubNode(
            child.start,
            child.end,
            self.aggregate.identity(),
            spill,
            ref,
            depth=self._depth + 1,
        )
        setattr(root, child_name, stub)
        self.space.free(size - 1)  # the stub itself stays live
        self.metrics.evictions += 1
        self.metrics.spilled_subtree_nodes += size
        self.metrics.spilled_bytes += ref[1]
        from repro.analysis import invariants  # deferred: avoid import cycle

        if invariants.invariants_enabled() and self._depth == 0:
            # Page accounting must match the tracker after every
            # eviction, or budget enforcement is built on sand.  Only
            # the top-level evaluator owns the tracker exclusively:
            # replayers share it while the outer traversal still holds
            # live nodes, so their structure is a strict subset.
            invariants.verify_space_accounting(self, when="eviction")

    # ------------------------------------------------------------------
    # Traversal with iterative rematerialisation
    # ------------------------------------------------------------------

    def _replay_stub(self, stub: _StubNode) -> TreeNode:
        """Reload a spilled region and fold its pending tuples back in.

        Returns the replayed subtree root (which may itself contain
        fresh, deeper stubs if the region spilled again under the
        budget).  Nodes are accounted in the shared space tracker.
        """
        self.metrics.reloads += 1
        self.metrics.deepest_replay = max(self.metrics.deepest_replay, stub.depth)
        subtree = _decode_subtree(stub.spill.load(stub.subtree_ref))
        replayer = PagedAggregationTreeEvaluator(
            self.aggregate,
            self.node_budget,
            counters=self.counters,
            space=self.space,
            metrics=self.metrics,
            _depth=stub.depth,
        )
        replayer.root = subtree
        self.space.allocate(_subtree_size(subtree))
        for ref in stub.pending_refs:
            for start, end, value in stub.spill.load(ref):
                self.metrics.replayed_tuples += 1
                replayer.insert(start, end, value)
        for start, end, value in stub.pending_buffer:
            self.metrics.replayed_tuples += 1
            replayer.insert(start, end, value)
        return replayer.root

    def _traverse_consuming(self, inherited: Any) -> List[ConstantInterval]:
        """In-order emission; frees each node as it is consumed and
        rematerialises stubs onto the same explicit stack (no
        recursion: degenerate regions can nest thousands deep)."""
        aggregate = self.aggregate
        rows: List[ConstantInterval] = []
        root = self.root if self.root is not None else self._new_root()
        stack: List[tuple] = [(root, inherited)]
        while stack:
            node, acc = stack.pop()
            state = aggregate.merge(acc, node.state)
            self.space.free(1)
            if isinstance(node, _StubNode):
                replayed = self._replay_stub(node)
                stack.append((replayed, state))
                continue
            if node.left is None:
                rows.append(
                    ConstantInterval(node.start, node.end, aggregate.finalize(state))
                )
                self.counters.emitted += 1
                continue
            stack.append((node.right, state))
            stack.append((node.left, state))
        self.root = None  # the tree was consumed
        return rows

    def traverse(self) -> TemporalAggregateResult:
        """Emit all constant intervals.  Unlike the in-memory tree this
        CONSUMES the structure (nodes are freed as they are emitted)."""
        rows = self._traverse_consuming(self.aggregate.identity())
        return TemporalAggregateResult(rows, check=False)

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        self.root = None
        self.space.reset()
        self._spill = None
        self.build(triples)
        return self.traverse()
