"""Tuma's two-scan baseline (paper Section 4.1).

The only temporal-aggregate algorithm implemented before the paper
[Tuma 1992] evaluates in five steps: (1) determine the constant
intervals; (2) select, per constant interval, the overlapping tuples;
(3) partition by the group-by attribute into aggregation sets; (4)
compute the aggregate per set; (5) associate values back.  Steps 1 and
2–4 each require a full scan of the relation, which is the paper's
core criticism — every new algorithm reads the relation once.

Our implementation keeps the two-scan structure but is otherwise
sensibly engineered: pass 1 collects boundary instants and materialises
the constant intervals; pass 2 locates each tuple's first constant
interval by binary search and walks forward absorbing the tuple into
every interval it overlaps.  Time O(n·log n + V) for V total
tuple-interval overlaps (V is Θ(n²) with many long-lived tuples),
space one state per constant interval.

Because it needs two passes, :meth:`evaluate` must materialise a
one-shot iterator; :meth:`evaluate_relation` instead performs two
*counted* scans of the relation, which is what the scan-accounting
tests assert on.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterable, List, Optional

from repro.core.base import CHECKPOINT_INTERVAL, Evaluator, Triple
from repro.core.interval import FOREVER
from repro.core.reference import constant_interval_boundaries
from repro.core.result import ConstantInterval, TemporalAggregateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation.relation import TemporalRelation

__all__ = ["TwoPassEvaluator"]


class TwoPassEvaluator(Evaluator):
    """Constant intervals first, aggregates second; two relation scans."""

    name = "two_pass"
    scans_required = 2

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        """Evaluate over an in-memory triple sequence.

        A generator is materialised (it can only be scanned once);
        prefer :meth:`evaluate_relation` to exercise the genuine
        two-scan behaviour.
        """
        rows = triples if isinstance(triples, list) else list(triples)
        return self._evaluate_two_scans(rows, rows)

    def evaluate_relation(
        self, relation: "TemporalRelation", attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        """Two counted scans of ``relation`` — Tuma's distinguishing cost."""
        return self._evaluate_two_scans(
            relation.scan_triples(attribute),
            relation.scan_triples(attribute),
        )

    # ------------------------------------------------------------------
    # The two passes
    # ------------------------------------------------------------------

    def _evaluate_two_scans(
        self, first_scan: Iterable[Triple], second_scan: Iterable[Triple]
    ) -> TemporalAggregateResult:
        aggregate = self.aggregate
        counters = self.counters

        # Pass 1: the constant intervals (steps 1 of Tuma's method).
        guarded = self.deadline is not None
        pass_one: List[Triple] = []
        for consumed, triple in enumerate(first_scan, 1):
            self._check_triple(triple[0], triple[1])
            counters.tuples += 1
            pass_one.append((triple[0], triple[1], None))
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)
        boundaries = constant_interval_boundaries(pass_one)
        del pass_one
        states: List[Any] = [aggregate.identity() for _ in boundaries]
        self.space.allocate(len(boundaries))

        # Pass 2: fold every tuple into each constant interval it
        # overlaps (steps 2-4).
        for consumed, (start, end, value) in enumerate(second_scan, 1):
            counters.tuples += 1
            if guarded and consumed % CHECKPOINT_INTERVAL == 0:
                self._checkpoint(consumed)
            index = bisect_right(boundaries, start) - 1
            while index < len(boundaries) and boundaries[index] <= end:
                counters.node_visits += 1
                states[index] = aggregate.absorb(states[index], value)
                counters.aggregate_updates += 1
                index += 1

        rows: List[ConstantInterval] = []
        for index, interval_start in enumerate(boundaries):
            if index + 1 < len(boundaries):
                interval_end = boundaries[index + 1] - 1
            else:
                interval_end = FOREVER
            rows.append(
                ConstantInterval(
                    interval_start, interval_end, aggregate.finalize(states[index])
                )
            )
            counters.emitted += 1
        return TemporalAggregateResult(rows, check=False)
