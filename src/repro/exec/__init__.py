"""Resilient execution layer: typed errors, deadlines, budgets, faults.

The core evaluators (:mod:`repro.core`) compute exact answers under the
assumption that every worker process survives, memory is unbounded, and
callers wait forever.  This package removes those assumptions without
touching the algorithms' semantics:

* :mod:`repro.exec.errors` — the structured error taxonomy
  (:class:`TemporalAggregateError` and its subclasses) replacing bare
  ``ValueError``/``KeyError`` escapes;
* :mod:`repro.exec.validation` — engine-boundary input validation
  (interval sanity, integer endpoints, NaN values, shard counts);
* :mod:`repro.exec.deadline` — wall-clock deadlines threaded through
  the engine and checked at shard boundaries and tree-build
  checkpoints;
* :mod:`repro.exec.budget` — runtime memory-budget enforcement with
  mid-flight degradation to the spilling paged tree;
* :mod:`repro.exec.supervision` — the retry policy (jittered
  backoff) and the report of a supervised shard fan-out;
* :mod:`repro.exec.pool` — the resident worker pool: shared-memory
  columns, worker respawns, shard timeouts, and an in-process fallback
  that keeps :class:`~repro.core.parallel.ParallelSweepEvaluator`
  exact even when every worker dies (imported on first use, not
  re-exported here);
* :mod:`repro.exec.faults` — a deterministic fault-injection harness
  (:class:`FaultPlan`) the workers, planner, and budget guard consult
  through an injectable hook, so every recovery path is testable.
"""

from repro.exec.budget import MemoryGuard, evaluate_with_degradation
from repro.exec.deadline import Deadline
from repro.exec.errors import (
    BudgetExhausted,
    DeadlineExceeded,
    InvalidInput,
    RecoveryError,
    ShardFailure,
    StorageCorruption,
    StorageError,
    TemporalAggregateError,
)
from repro.exec.faults import (
    FaultPlan,
    FaultyFile,
    IOFault,
    ShardFault,
    SimulatedCrash,
    clear_fault_plan,
    current_fault_plan,
    fault_plan,
    fsync_handle,
    install_fault_plan,
    wrap_handle,
)
from repro.exec.supervision import RetryPolicy, SupervisionReport
from repro.exec.validation import (
    check_triple,
    validate_shards,
    validated_triples,
)

__all__ = [
    # errors
    "TemporalAggregateError",
    "ShardFailure",
    "DeadlineExceeded",
    "BudgetExhausted",
    "InvalidInput",
    "StorageError",
    "StorageCorruption",
    "RecoveryError",
    # deadlines
    "Deadline",
    # budgets
    "MemoryGuard",
    "evaluate_with_degradation",
    # supervision
    "RetryPolicy",
    "SupervisionReport",
    # faults
    "FaultPlan",
    "ShardFault",
    "IOFault",
    "FaultyFile",
    "SimulatedCrash",
    "install_fault_plan",
    "clear_fault_plan",
    "current_fault_plan",
    "fault_plan",
    "wrap_handle",
    "fsync_handle",
    # validation
    "check_triple",
    "validated_triples",
    "validate_shards",
]
