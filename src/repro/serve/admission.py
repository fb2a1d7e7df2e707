"""Admission control: the server's three bounds on work.

The server never takes on unbounded work.  Three bounds, enforced
here, keep it answerable under any client behavior:

1. **Sessions** — at most ``max_sessions`` concurrent connections; the
   next is refused at the door with a typed
   :class:`~repro.exec.errors.ServerOverloaded` (``reason="sessions"``).
2. **Per-session queue** — at most ``max_queue_depth`` statements
   queued behind a session's in-flight one; excess statements are
   refused (``reason="queue"``) while the session itself survives.
3. **Load** — the controller tracks outstanding statements (queued +
   running, across all sessions) as a ratio of worker capacity.  A
   statement that would bring that ratio to ``reject_load`` is refused
   (``reason="overload"``) with a ``retry_after_ms`` hint; every
   admitted statement gets full service, planned by the Section 6.3
   planner under the configured deadline and memory budget.

Everything is guarded by one lock: admission decisions are taken on
the event-loop thread, completions are reported from worker threads.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.exec.errors import ServerOverloaded
from repro.serve.config import ServerConfig

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded admission: sessions, per-session queues and load."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._sessions = 0  # ta: guarded-by(self._lock)
        self._outstanding = 0  # ta: guarded-by(self._lock)
        # Tallies for the stats frame: bumped from both the event-loop
        # thread (admission) and worker threads (completion), so every
        # one of these read-modify-writes needs the lock.
        self.sessions_admitted = 0  # ta: guarded-by(self._lock)
        self.sessions_rejected = 0  # ta: guarded-by(self._lock)
        self.statements_admitted = 0  # ta: guarded-by(self._lock)
        self.statements_rejected_queue = 0  # ta: guarded-by(self._lock)
        self.statements_rejected_overload = 0  # ta: guarded-by(self._lock)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def admit_session(self) -> int:
        """Claim a session slot, or raise ``ServerOverloaded``."""
        with self._lock:
            if self._sessions >= self.config.max_sessions:
                self.sessions_rejected += 1
                raise ServerOverloaded(
                    f"session limit of {self.config.max_sessions} reached",
                    retry_after_ms=self.config.retry_after_ms,
                    reason="sessions",
                )
            self._sessions += 1
            self.sessions_admitted += 1
            return self._sessions

    def release_session(self) -> None:
        with self._lock:
            self._sessions -= 1

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def admit_statement(self, queued_depth: int) -> None:
        """Admit one statement from a session with ``queued_depth``
        statements already waiting, or raise :class:`ServerOverloaded`
        (``reason="queue"`` for a full per-session queue,
        ``reason="overload"`` at ``reject_load``).

        Admission counts the statement as outstanding; the caller owns
        a matching :meth:`statement_done`, including for statements it
        later drops unrun.
        """
        with self._lock:
            if queued_depth >= self.config.max_queue_depth:
                self.statements_rejected_queue += 1
                raise ServerOverloaded(
                    f"session queue depth limit of "
                    f"{self.config.max_queue_depth} reached",
                    retry_after_ms=self.config.retry_after_ms,
                    reason="queue",
                )
            # Load is judged as if this statement were already queued:
            # capacity is about what admitting it *creates*.
            load = (self._outstanding + 1) / self.config.workers
            if load >= self.config.reject_load:
                self.statements_rejected_overload += 1
                raise ServerOverloaded(
                    f"overloaded: {self._outstanding} statements "
                    f"outstanding against {self.config.workers} workers",
                    retry_after_ms=self.config.retry_after_ms,
                    reason="overload",
                )
            self._outstanding += 1
            self.statements_admitted += 1

    def statement_done(self) -> None:
        """One admitted statement finished (or was dropped unrun)."""
        with self._lock:
            self._outstanding -= 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The stats-frame view of admission state."""
        with self._lock:
            return {
                "active_sessions": self._sessions,
                "max_sessions": self.config.max_sessions,
                "outstanding_statements": self._outstanding,
                "load": round(self._outstanding / self.config.workers, 4),
                "sessions_admitted": self.sessions_admitted,
                "sessions_rejected": self.sessions_rejected,
                "statements_admitted": self.statements_admitted,
                "statements_rejected_queue": self.statements_rejected_queue,
                "statements_rejected_overload": self.statements_rejected_overload,
            }
