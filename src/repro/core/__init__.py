"""The paper's primary contribution: temporal aggregate evaluation.

Exports the interval/time model, the aggregate monoids, the five
evaluation algorithms (linked list, aggregation tree, k-ordered
aggregation tree, balanced tree, two-pass baseline) plus the
brute-force oracle, the sortedness metrics, the grouping extensions,
and the strategy planner/engine.
"""

from repro.core.aggregates import (
    AGGREGATES,
    Aggregate,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    StdDevAggregate,
    SumAggregate,
    UnknownAggregateError,
    VarianceAggregate,
    get_aggregate,
    register_aggregate,
)
from repro.core.aggregation_tree import AggregationTreeEvaluator, TreeNode
from repro.core.balanced_tree import BalancedTreeEvaluator
from repro.core.base import Evaluator, Triple
from repro.core.columnar_sweep import ColumnarSweepEvaluator, columnar_rows
from repro.core.calendar import (
    Calendar,
    CalendarError,
    calendar_span_aggregate,
)
from repro.core.distinct import (
    distinct_temporal_aggregate,
    distinct_triples,
    value_coalesced_triples,
)
from repro.core.engine import (
    STRATEGIES,
    UnknownStrategyError,
    evaluate_triples,
    make_evaluator,
    temporal_aggregate,
)
from repro.core.events import (
    event_instant_aggregate,
    event_span_aggregate,
    event_triples,
    event_window_aggregate,
)
from repro.core.group_by import GroupedResult, grouped_temporal_aggregate
from repro.core.index import TemporalAggregateIndex
from repro.core.interval import (
    FOREVER,
    ORIGIN,
    Instant,
    Interval,
    InvalidIntervalError,
    format_instant,
    parse_instant,
)
from repro.core.kordered_tree import KOrderedTreeEvaluator, KOrderViolationError
from repro.core.moving import extend_for_window, moving_window_aggregate
from repro.core.linked_list import LinkedListEvaluator
from repro.core.paged_tree import (
    PagedAggregationTreeEvaluator,
    SpillMetrics,
)
from repro.core.parallel import ParallelSweepEvaluator
from repro.core.partition import available_workers, shard_bounds
from repro.core.ordering import (
    displacement_histogram,
    displacements,
    is_k_ordered,
    k_ordered_percentage,
    k_orderedness,
)
from repro.core.planner import PlannerDecision, choose_strategy
from repro.core.reference import ReferenceEvaluator, constant_interval_boundaries
from repro.core.result import (
    ConstantInterval,
    ResultIntegrityError,
    TemporalAggregateResult,
)
from repro.core.span_grouping import span_aggregate, span_boundaries
from repro.core.sweep import SweepEvaluator
from repro.core.two_pass import TwoPassEvaluator

__all__ = [
    # time model
    "ORIGIN",
    "FOREVER",
    "Instant",
    "Interval",
    "InvalidIntervalError",
    "format_instant",
    "parse_instant",
    # aggregates
    "AGGREGATES",
    "Aggregate",
    "CountAggregate",
    "SumAggregate",
    "MinAggregate",
    "MaxAggregate",
    "AvgAggregate",
    "VarianceAggregate",
    "StdDevAggregate",
    "UnknownAggregateError",
    "get_aggregate",
    "register_aggregate",
    # results
    "ConstantInterval",
    "TemporalAggregateResult",
    "ResultIntegrityError",
    # algorithms
    "Evaluator",
    "Triple",
    "LinkedListEvaluator",
    "AggregationTreeEvaluator",
    "TreeNode",
    "KOrderedTreeEvaluator",
    "KOrderViolationError",
    "BalancedTreeEvaluator",
    "PagedAggregationTreeEvaluator",
    "SpillMetrics",
    "SweepEvaluator",
    "ColumnarSweepEvaluator",
    "ParallelSweepEvaluator",
    "columnar_rows",
    "TwoPassEvaluator",
    "ReferenceEvaluator",
    "constant_interval_boundaries",
    # ordering metrics
    "displacements",
    "displacement_histogram",
    "k_orderedness",
    "is_k_ordered",
    "k_ordered_percentage",
    # planner and engine
    "PlannerDecision",
    "choose_strategy",
    "STRATEGIES",
    "UnknownStrategyError",
    "make_evaluator",
    "evaluate_triples",
    "temporal_aggregate",
    # grouping
    "GroupedResult",
    "grouped_temporal_aggregate",
    "span_aggregate",
    "span_boundaries",
    "Calendar",
    "CalendarError",
    "calendar_span_aggregate",
    "moving_window_aggregate",
    "extend_for_window",
    "distinct_triples",
    "value_coalesced_triples",
    "distinct_temporal_aggregate",
    "event_triples",
    "event_instant_aggregate",
    "event_span_aggregate",
    "event_window_aggregate",
    "TemporalAggregateIndex",
    "available_workers",
    "shard_bounds",
]
