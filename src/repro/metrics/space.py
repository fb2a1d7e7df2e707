"""Main-memory accounting under the paper's node model (Section 6.2).

The paper measures each algorithm's space as *bytes of allocated
nodes*: both aggregation-tree variants and the linked list use 16 bytes
of structure per node (two child pointers + split timestamp for the
single-timestamp tree variant; two timestamps for a list cell), plus
the bytes of one partial aggregate state (COUNT 4 bytes, SUM/MIN/MAX 4,
AVG 8).

:class:`SpaceTracker` reproduces that accounting deterministically:
evaluators call :meth:`allocate` and :meth:`free` as they build and
garbage-collect structure, and the tracker maintains the live and peak
node counts.  Figure 9 plots ``peak_bytes``, which the planner
(:mod:`repro.core.planner`) bounds for each plan before it runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.aggregates import Aggregate

__all__ = ["NODE_OVERHEAD_BYTES", "SpaceTracker"]

#: Structural bytes per node in the paper's model (Section 6.2).
NODE_OVERHEAD_BYTES = 16


class SpaceTracker:
    """Live/peak node accounting for one evaluation.

    ``aggregate`` fixes the per-node state size; pass the same
    aggregate the evaluator uses so ``peak_bytes`` matches the paper's
    model for that aggregate.
    """

    __slots__ = (
        "node_bytes",
        "live_nodes",
        "peak_nodes",
        "allocated_total",
    )

    def __init__(self, aggregate: Optional[Aggregate] = None) -> None:
        state_bytes = aggregate.state_bytes if aggregate is not None else 4
        self.node_bytes = NODE_OVERHEAD_BYTES + state_bytes
        self.reset()

    def reset(self) -> None:
        self.live_nodes = 0
        self.peak_nodes = 0
        self.allocated_total = 0

    def allocate(self, count: int = 1) -> None:
        """Record ``count`` newly allocated nodes."""
        self.live_nodes += count
        self.allocated_total += count
        if self.live_nodes > self.peak_nodes:
            self.peak_nodes = self.live_nodes

    def free(self, count: int = 1) -> None:
        """Record ``count`` garbage-collected nodes."""
        if count > self.live_nodes:
            raise ValueError(
                f"freeing {count} nodes but only {self.live_nodes} are live"
            )
        self.live_nodes -= count

    def absorb_concurrent(self, peaks: "list[int]") -> None:
        """Record structures held concurrently by parallel workers.

        Time-sharded evaluation keeps every shard's structure live at
        once, so the modeled peak is the *sum* of the per-shard peaks
        (a tuple clipped into several shards is charged once per shard,
        exactly as it is materialised).  Leaves no live nodes behind.
        """
        total = sum(peaks)
        self.allocate(total)
        self.free(total)

    @property
    def peak_bytes(self) -> int:
        """Peak modeled memory: what Figure 9 reports."""
        return self.peak_nodes * self.node_bytes

    @property
    def live_bytes(self) -> int:
        return self.live_nodes * self.node_bytes

    def snapshot(self) -> Dict[str, int]:
        return {
            "live_nodes": self.live_nodes,
            "peak_nodes": self.peak_nodes,
            "allocated_total": self.allocated_total,
            "node_bytes": self.node_bytes,
            "peak_bytes": self.peak_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"SpaceTracker(live={self.live_nodes}, peak={self.peak_nodes}, "
            f"{self.node_bytes} B/node)"
        )
