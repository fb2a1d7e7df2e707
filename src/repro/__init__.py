"""repro — a reproduction of Kline & Snodgrass, *Computing Temporal
Aggregates* (ICDE 1995).

The library computes aggregates (COUNT, SUM, MIN, MAX, AVG, ...) over
interval-timestamped relations, grouped by instant: the result is the
sequence of *constant intervals* over which the aggregate value does
not change.  Three single-scan algorithms from the paper are provided —
the linked list, the aggregation tree, and the k-ordered aggregation
tree with garbage collection — plus the two-scan Tuma baseline, a
balanced-tree ablation, the Section 5.2 sortedness metrics, the
Section 6.3 planner, a TSQL2-flavoured query front end, a paged storage
substrate, and the full Section 6 benchmark workloads.

Quick start::

    from repro import employed_relation, temporal_aggregate

    employed = employed_relation()
    result = temporal_aggregate(employed, "count")
    print(result.pretty())
"""

from repro.core import (
    AGGREGATES,
    FOREVER,
    ORIGIN,
    STRATEGIES,
    Aggregate,
    AggregationTreeEvaluator,
    AvgAggregate,
    BalancedTreeEvaluator,
    Calendar,
    ConstantInterval,
    ColumnarSweepEvaluator,
    CountAggregate,
    Evaluator,
    GroupedResult,
    Interval,
    InvalidIntervalError,
    KOrderViolationError,
    KOrderedTreeEvaluator,
    LinkedListEvaluator,
    MaxAggregate,
    MinAggregate,
    PagedAggregationTreeEvaluator,
    ParallelSweepEvaluator,
    PlannerDecision,
    ReferenceEvaluator,
    ResultIntegrityError,
    SumAggregate,
    SweepEvaluator,
    TemporalAggregateIndex,
    TemporalAggregateResult,
    TwoPassEvaluator,
    UnknownAggregateError,
    UnknownStrategyError,
    calendar_span_aggregate,
    choose_strategy,
    evaluate_triples,
    get_aggregate,
    grouped_temporal_aggregate,
    is_k_ordered,
    k_ordered_percentage,
    k_orderedness,
    make_evaluator,
    moving_window_aggregate,
    span_aggregate,
    temporal_aggregate,
)
from repro.exec import (
    BudgetExhausted,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    InvalidInput,
    RetryPolicy,
    ShardFailure,
    ShardFault,
    SupervisionReport,
    TemporalAggregateError,
    clear_fault_plan,
    current_fault_plan,
    fault_plan,
    install_fault_plan,
)
from repro.metrics import NODE_OVERHEAD_BYTES, OperationCounters, SpaceTracker
from repro.relation import (
    EMPLOYED_SCHEMA,
    Attribute,
    RelationStatistics,
    Schema,
    SchemaError,
    TemporalRelation,
    TemporalTuple,
)
from repro.workload import (
    WorkloadParameters,
    disorder_relation,
    employed_relation,
    generate_relation,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # time model
    "ORIGIN",
    "FOREVER",
    "Interval",
    "InvalidIntervalError",
    # aggregates
    "AGGREGATES",
    "Aggregate",
    "CountAggregate",
    "SumAggregate",
    "MinAggregate",
    "MaxAggregate",
    "AvgAggregate",
    "UnknownAggregateError",
    "get_aggregate",
    # relations
    "Attribute",
    "Schema",
    "SchemaError",
    "EMPLOYED_SCHEMA",
    "TemporalTuple",
    "TemporalRelation",
    "RelationStatistics",
    # results
    "ConstantInterval",
    "TemporalAggregateResult",
    "ResultIntegrityError",
    # algorithms and engine
    "Evaluator",
    "GroupedResult",
    "LinkedListEvaluator",
    "AggregationTreeEvaluator",
    "KOrderedTreeEvaluator",
    "KOrderViolationError",
    "BalancedTreeEvaluator",
    "PagedAggregationTreeEvaluator",
    "SweepEvaluator",
    "ColumnarSweepEvaluator",
    "ParallelSweepEvaluator",
    "TwoPassEvaluator",
    "ReferenceEvaluator",
    "TemporalAggregateIndex",
    "Calendar",
    "calendar_span_aggregate",
    "moving_window_aggregate",
    "STRATEGIES",
    "UnknownStrategyError",
    "make_evaluator",
    "evaluate_triples",
    "temporal_aggregate",
    "grouped_temporal_aggregate",
    "span_aggregate",
    # planner
    "PlannerDecision",
    "choose_strategy",
    # ordering metrics
    "k_orderedness",
    "is_k_ordered",
    "k_ordered_percentage",
    # resilient execution
    "TemporalAggregateError",
    "ShardFailure",
    "DeadlineExceeded",
    "BudgetExhausted",
    "InvalidInput",
    "Deadline",
    "RetryPolicy",
    "SupervisionReport",
    "FaultPlan",
    "ShardFault",
    "install_fault_plan",
    "clear_fault_plan",
    "current_fault_plan",
    "fault_plan",
    # instrumentation
    "OperationCounters",
    "SpaceTracker",
    "NODE_OVERHEAD_BYTES",
    # workloads
    "WorkloadParameters",
    "generate_relation",
    "disorder_relation",
    "employed_relation",
]
