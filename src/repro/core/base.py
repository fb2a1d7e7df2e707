"""Common machinery shared by the temporal-aggregate evaluators.

Every algorithm from the paper is packaged as an :class:`Evaluator`
subclass.  An evaluator is constructed around one
:class:`~repro.core.aggregates.Aggregate` plus optional instrumentation
(:class:`~repro.metrics.counters.OperationCounters` and
:class:`~repro.metrics.space.SpaceTracker`), and consumes the relation
as an iterable of ``(start, end, value)`` triples — the exact shape
:meth:`TemporalRelation.scan_triples` produces.  Decoupling evaluators
from the relation class keeps the hot loops free of attribute lookups
and lets the same code run over generators, lists, or storage-backed
scans.

``evaluate`` performs a **single pass** over the triples; the
:class:`~repro.core.two_pass.TwoPassEvaluator` baseline overrides
``evaluate_relation`` to make the two scans that distinguish Tuma's
method (Section 4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional, Tuple

from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.interval import FOREVER, InvalidIntervalError
from repro.core.result import TemporalAggregateResult
from repro.metrics.counters import OperationCounters
from repro.metrics.space import SpaceTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.relation.relation import TemporalRelation

__all__ = ["CHECKPOINT_INTERVAL", "Evaluator", "Triple", "coerce_aggregate"]

#: One input tuple as the evaluators see it.
Triple = Tuple[int, int, Any]

#: Tuples between deadline checkpoints in the evaluators' loops.
#: Coarse enough to keep the modulo off the hot path's profile, fine
#: enough that deadlines bind within milliseconds.
CHECKPOINT_INTERVAL = 64


def coerce_aggregate(aggregate: "Aggregate | str") -> Aggregate:
    """Accept either an Aggregate instance or a registry name."""
    if isinstance(aggregate, Aggregate):
        return aggregate
    return get_aggregate(aggregate)


class Evaluator:
    """Base class for the paper's temporal-aggregate algorithms."""

    #: Registry / display name ("linked_list", "aggregation_tree", ...).
    name: str = "abstract"

    #: Number of sequential relation scans the algorithm needs.
    scans_required: int = 1

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        counters: Optional[OperationCounters] = None,
        space: Optional[SpaceTracker] = None,
    ) -> None:
        self.aggregate = coerce_aggregate(aggregate)
        self.counters = counters if counters is not None else OperationCounters()
        self.space = space if space is not None else SpaceTracker(self.aggregate)
        #: Optional wall-clock :class:`~repro.exec.deadline.Deadline`;
        #: honored at checkpoints when set (the engine threads it here).
        self.deadline = None

    # ------------------------------------------------------------------
    # The algorithm-specific part
    # ------------------------------------------------------------------

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        """Compute the aggregate over one stream of (start, end, value)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Relation-level convenience
    # ------------------------------------------------------------------

    def evaluate_relation(
        self, relation: "TemporalRelation", attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        """Run over a relation with one counted scan (default algorithms)."""
        return self.evaluate(relation.scan_triples(attribute))

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _checkpoint(self, consumed: int) -> None:
        """One deadline safepoint, every :data:`CHECKPOINT_INTERVAL`
        tuples of each evaluator's loops (and at shard boundaries in
        the parallel plan)."""
        if self.deadline is not None:
            self.deadline.check(tuples_consumed=consumed)

    @staticmethod
    def _check_triple(start: int, end: int) -> None:
        """Validate one tuple's valid-time bounds (cheap hot-path check)."""
        if start < 0 or end < start or end > FOREVER:
            raise InvalidIntervalError(
                f"invalid tuple valid time [{start}, {end}]"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(aggregate={self.aggregate.name})"
