"""Resilient execution layer: typed errors, deadlines, faults.

The core evaluators (:mod:`repro.core`) compute exact answers under the
assumption that every worker process survives and callers wait
forever.  This package removes those assumptions without touching the
algorithms' semantics (memory is bounded before the run, by the
planner, :mod:`repro.core.planner`):

* :mod:`repro.exec.errors` — the structured error taxonomy
  (:class:`TemporalAggregateError` and its subclasses) replacing bare
  ``ValueError``/``KeyError`` escapes;
* :mod:`repro.exec.validation` — engine-boundary input validation
  (interval sanity, integer endpoints, NaN values, shard counts);
* :mod:`repro.exec.deadline` — wall-clock deadlines threaded through
  the engine and checked at shard boundaries and evaluator
  checkpoints;
* :mod:`repro.exec.supervision` — the retry policy (jittered
  backoff) and the report of a supervised shard fan-out;
* :mod:`repro.exec.pool` — the resident worker pool: shared-memory
  columns, worker respawns, shard timeouts, and an in-process fallback
  that keeps :class:`~repro.core.parallel.ParallelSweepEvaluator`
  exact even when every worker dies (imported on first use, not
  re-exported here);
* :mod:`repro.exec.faults` — a deterministic fault-injection harness
  (:class:`FaultPlan`) the workers and the storage layer consult
  through an injectable hook, so every recovery path is testable.
"""

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
