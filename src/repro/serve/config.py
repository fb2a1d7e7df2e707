"""Server configuration: every serving knob in one frozen dataclass.

``reject_load`` is a *load ratio* — outstanding statements (queued +
running, across all sessions) divided by worker count.  A ratio of
1.0 means every worker is busy and nothing is queued; the default
refuses a statement that would bring the ratio to 3 (see
:mod:`repro.serve.admission` for the bounds themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """All knobs of one :class:`~repro.serve.server.QueryServer`.

    * ``host`` / ``port`` — listen address; port 0 asks the OS for a
      free port (the bound port is on ``QueryServer.port`` after
      ``start``).
    * ``max_sessions`` — admission bound on concurrent connections;
      connection ``max_sessions + 1`` is answered with a typed
      ``ServerOverloaded`` hello and closed.
    * ``max_queue_depth`` — per-session bound on statements queued
      behind the in-flight one; excess statements are rejected
      (``reason="queue"``) without dropping the session.
    * ``workers`` — thread-pool width; also the denominator of the
      load ratio.
    * ``deadline_ms`` / ``memory_budget_bytes`` — per-statement budgets
      every admitted statement runs under (None = unbounded): the
      engine's :class:`~repro.exec.deadline.Deadline`, and the
      planner's bound check, which runs only a plan that fits the
      memory budget or refuses the statement with
      :class:`~repro.exec.errors.BudgetExhausted` before it runs.
    * ``reject_load`` — the load ratio at which a new statement is
      refused with ``ServerOverloaded`` (``reason="overload"``).
    * ``retry_after_ms`` — the backoff hint stamped on every
      ``ServerOverloaded`` rejection.
    * ``debug_statement_delay_ms`` — test/bench hook: each worker
      sleeps this long before executing a statement, making queue
      buildup deterministic regardless of machine speed.  0 in
      production.
    * ``pool_workers`` — size of the resident shared-memory worker
      pool (:mod:`repro.exec.pool`) started with the server; 0 (the
      default) leaves the pool off and statements evaluate in-process
      exactly as before.
    * ``role`` — the node's *initial* replication role, ``"primary"``
      (default: accepts writes) or ``"replica"`` (read-only: writes
      are refused with a typed ``NotPrimary``).  The live role can
      change at runtime (a replica promotes during failover); this
      knob only seeds it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 32
    max_queue_depth: int = 8
    workers: int = 4
    deadline_ms: Optional[float] = None
    memory_budget_bytes: Optional[int] = None
    reject_load: float = 3.0
    retry_after_ms: int = 100
    debug_statement_delay_ms: float = 0.0
    pool_workers: int = 0
    role: str = "primary"

    def __post_init__(self) -> None:
        if self.role not in ("primary", "replica"):
            raise ValueError("role must be 'primary' or 'replica'")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive when set")
        if self.reject_load <= 0:
            raise ValueError("reject_load must be positive")
        if self.retry_after_ms < 1:
            raise ValueError("retry_after_ms must be at least 1")
        if self.debug_statement_delay_ms < 0:
            raise ValueError("debug_statement_delay_ms must be >= 0")
        if self.pool_workers < 0:
            raise ValueError("pool_workers must be >= 0 (0 disables the pool)")
