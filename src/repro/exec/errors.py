"""Structured error taxonomy for the execution layer.

Every failure the engine can surface derives from
:class:`TemporalAggregateError`, so callers serving traffic can catch
one type and branch on the subclass instead of fishing bare
``ValueError``/``KeyError`` escapes out of the evaluators:

* :class:`InvalidInput` — the request itself is malformed (bad
  interval, non-integer endpoint, NaN value, bogus shard count).  Also
  subclasses :class:`~repro.core.interval.InvalidIntervalError` (and
  therefore ``ValueError``) so existing callers keep working.
* :class:`ShardFailure` — a parallel shard exhausted its retries.  The
  supervisor normally *recovers* from these (in-process fallback) and
  only records them; one escapes only if recovery itself is
  impossible.
* :class:`DeadlineExceeded` — the wall-clock deadline passed; carries
  partial-progress metrics so callers can log how far the query got.
* :class:`BudgetExhausted` — no plan's memory bound fits the budget;
  raised by the planner before anything runs, carrying the smallest
  bound it found.
* :class:`StorageError` — the durable-storage layer failed.  Its two
  subclasses split the failures a caller can act on differently:
  :class:`StorageCorruption` (a checksum, torn write, or malformed
  on-disk structure was *detected* — the data needs scrubbing or
  recovery) and :class:`RecoveryError` (the recovery procedure itself
  could not restore a consistent state — acknowledged data is missing
  or the fingerprint chain broke).
* :class:`ServerOverloaded` — the serving front end
  (:mod:`repro.serve`) refused to admit a session or statement because
  admission capacity is exhausted; carries a ``retry_after_ms`` hint
  so well-behaved clients back off instead of hammering.
* :class:`ServerUnavailable` — the client exhausted its connect
  retries: every attempt ended in a refused/reset connection, so the
  endpoint is presumed down (distinct from an *admitted* session that
  later failed).
* :class:`ReplicationError` — the replication subsystem
  (:mod:`repro.replicate`) failed.  Its subclasses carry the fencing
  and staleness evidence clients branch on: :class:`StaleEpoch` (a
  deposed primary's write was refused — split-brain fencing),
  :class:`NotPrimary` (a write reached a replica or fenced node), and
  :class:`ReplicaLagExceeded` (a read token demanded a version the
  replica has not applied yet).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from repro.core.interval import InvalidIntervalError

__all__ = [
    "TemporalAggregateError",
    "ShardFailure",
    "DeadlineExceeded",
    "BudgetExhausted",
    "InvalidInput",
    "StorageError",
    "StorageCorruption",
    "RecoveryError",
    "ServerOverloaded",
    "ServerUnavailable",
    "ReplicationError",
    "StaleEpoch",
    "NotPrimary",
    "ReplicaLagExceeded",
    "recovery_hint",
]


class TemporalAggregateError(Exception):
    """Base class for every failure the execution layer raises."""


class InvalidInput(TemporalAggregateError, InvalidIntervalError):
    """The query input is malformed (rejected at the engine boundary).

    Subclasses ``InvalidIntervalError`` (itself a ``ValueError``) so
    code written against the pre-taxonomy exceptions keeps passing.
    """


class ShardFailure(TemporalAggregateError):
    """One time shard failed in the process pool past its retry budget.

    Usually *recorded*, not raised: the supervisor falls back to an
    in-process evaluation of the shard, so the query still succeeds.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        window: Tuple[int, int],
        attempts: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.window = window
        self.attempts = attempts
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardFailure(shard={self.shard}, window={self.window}, "
            f"attempts={self.attempts}, cause={self.cause!r})"
        )


class DeadlineExceeded(TemporalAggregateError):
    """The evaluation's wall-clock deadline passed before completion.

    ``progress`` holds whatever partial-progress metrics the raising
    checkpoint had (e.g. ``tuples_consumed``, ``completed_shards``).
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_ms: float,
        elapsed_ms: float,
        progress: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.progress: Dict[str, Any] = dict(progress or {})


class StorageError(TemporalAggregateError):
    """The durable-storage layer failed (I/O error, corruption, or an
    unrecoverable journal/data state).

    Catch this to branch on "the storage substrate is unhealthy" as a
    whole; the subclasses distinguish detected corruption from a failed
    recovery attempt.
    """


class StorageCorruption(StorageError):
    """On-disk corruption was detected and refused.

    Raised when a page checksum mismatches (bit rot, torn write), a
    journal record fails its CRC outside the legitimate torn tail, or
    an on-disk structure is malformed.  The data file needs scrubbing
    (``python -m repro.storage scrub``) or recovery — the reader never
    silently serves corrupt rows.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        page_id: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.page_id = page_id


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent relation.

    Raised when acknowledged (committed) appends are missing from both
    the data file and the retained journal, or when the post-recovery
    fingerprint chain does not match the last committed fingerprint.
    ``report`` carries whatever partial recovery evidence was gathered.
    """

    def __init__(self, message: str, *, report: Optional[Any] = None) -> None:
        super().__init__(message)
        self.report = report


class BudgetExhausted(TemporalAggregateError):
    """No plan's memory bound fits the budget; nothing ran.

    ``needed_bytes`` is the smallest bound among the plans the planner
    (:mod:`repro.core.planner`) considered, or ``None`` when none of
    them has a bound (a named ``paged_tree``, for one).
    """

    def __init__(
        self,
        message: str,
        *,
        budget_bytes: int,
        needed_bytes: Optional[int],
    ) -> None:
        super().__init__(message)
        self.budget_bytes = budget_bytes
        self.needed_bytes = needed_bytes


class ServerOverloaded(TemporalAggregateError):
    """The serving front end refused to take on more work.

    Raised (or sent over the wire as a typed error frame) when one of
    admission's three bounds is reached: the session count, a
    session's statement queue, or the load ratio ``reject_load``.
    ``retry_after_ms`` is the server's backoff hint; ``reason`` names
    which bound tripped (``"sessions"``, ``"queue"`` or
    ``"overload"``).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_ms: int,
        reason: str = "sessions",
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = int(retry_after_ms)
        self.reason = reason


class ServerUnavailable(TemporalAggregateError):
    """Every connect attempt to an endpoint failed.

    Raised by the client after its bounded retry/backoff loop exhausts
    ``attempts`` tries — the endpoint refused, reset, or dropped the
    connection each time.  Distinct from :class:`ServerOverloaded`
    (the server was up but said no) so failover logic can rotate to
    another endpoint instead of backing off against a corpse.
    """

    def __init__(
        self,
        message: str,
        *,
        endpoint: str,
        attempts: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.attempts = int(attempts)
        self.cause = cause


class ReplicationError(TemporalAggregateError):
    """The replication subsystem failed (shipping, apply, or fencing).

    Catch this to branch on "replication is unhealthy" as a whole; the
    subclasses carry the evidence a client or operator acts on.
    """


class StaleEpoch(ReplicationError):
    """A node at a lower epoch tried to act as primary and was fenced.

    ``epoch`` is the rejected node's epoch; ``observed_epoch`` the
    higher epoch the refusing node has seen.  This is the split-brain
    guard: after a failover the deposed primary's writes and shipping
    attempts all land here.
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int,
        observed_epoch: int,
    ) -> None:
        super().__init__(message)
        self.epoch = int(epoch)
        self.observed_epoch = int(observed_epoch)


class NotPrimary(ReplicationError):
    """A write statement reached a node that is not the primary.

    ``role`` is the refusing node's current role (``"replica"`` or
    ``"fenced"``); ``primary_hint`` is its best guess at the live
    primary's ``host:port``, or ``None`` if unknown — clients use it
    to rotate instead of scanning.
    """

    def __init__(
        self,
        message: str,
        *,
        role: str,
        primary_hint: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.role = role
        self.primary_hint = primary_hint


class ReplicaLagExceeded(ReplicationError):
    """A read token demanded a version the replica has not applied.

    The read-your-writes guard: a client that wrote at
    ``token_version`` on the primary refuses to silently read an older
    snapshot from a lagging replica.  ``retry_after_ms`` hints how
    long to wait before retrying the same replica.
    """

    def __init__(
        self,
        message: str,
        *,
        token_version: int,
        applied_version: int,
        retry_after_ms: int = 1,
    ) -> None:
        super().__init__(message)
        self.token_version = int(token_version)
        self.applied_version = int(applied_version)
        self.retry_after_ms = int(retry_after_ms)


#: Recovery hints keyed by taxonomy class, most-derived first: the
#: first ``isinstance`` match wins, so subclasses shadow their bases.
_ERROR_HINTS: Tuple[Tuple[Type[TemporalAggregateError], str], ...] = (
    (
        StorageCorruption,
        "run `python -m repro.storage scrub PATH` (or \\scrub PATH) to "
        "locate the damage, then reopen with HeapFile.durable() to recover",
    ),
    (
        RecoveryError,
        "acknowledged data could not be restored; keep the journal "
        "segments and re-run recovery against a copy",
    ),
    (
        StorageError,
        "check disk space and permissions, then retry the operation",
    ),
    (
        BudgetExhausted,
        "raise the memory budget (\\budget BYTES, or `\\budget off`)",
    ),
    (
        DeadlineExceeded,
        "raise the deadline (\\deadline MS, or `\\deadline off`) or "
        "narrow the query window",
    ),
    (
        ServerOverloaded,
        "the server is at capacity; back off for the reply's "
        "retry_after_ms and resubmit",
    ),
    (
        ShardFailure,
        "the parallel pool is unhealthy; retry with shards=1",
    ),
    (
        InvalidInput,
        "check the query's interval bounds and aggregate arguments",
    ),
    (
        TemporalAggregateError,
        "see \\help for usage",
    ),
)


def recovery_hint(error: TemporalAggregateError) -> str:
    """The recovery hint for a taxonomy error (most-derived match wins).

    The TSQL2 shell prints it after each diagnostic, and the query
    server puts it in its typed error frames, so remote clients see the
    diagnostics the shell shows.
    """
    for kind, hint in _ERROR_HINTS:
        if isinstance(error, kind):
            return hint
    raise AssertionError("unreachable: base class terminates the table")
