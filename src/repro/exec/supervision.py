"""Shard supervision vocabulary: the retry policy and the run report.

The resident pool (:class:`repro.exec.pool.ResidentPoolSupervisor`)
turns a killed worker (OOM killer, segfault), a hung shard, or an
unpicklable result into bounded, observable recovery, and the serve
and replicate clients retry refused requests the same way:

* every attempt is separated from the next by exponential backoff with
  **deterministic** jitter (seeded from the shard index and attempt
  number — reproducible runs, but concurrent retries still
  decorrelate), for at most :attr:`RetryPolicy.max_attempts` attempts;
* :class:`SupervisionReport` records what one supervised fan-out
  actually did: retries, timeouts, worker respawns, and the shards
  recovered by the exact in-process fallback.

The result is the invariant the engine advertises: ``parallel_sweep``
returns byte-identical answers whether zero, some, or all of its
workers die — only slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.exec.errors import ShardFailure

__all__ = ["RetryPolicy", "SupervisionReport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic jittered exponential backoff."""

    max_attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def backoff(self, shard: int, attempt: int) -> float:
        """Delay before retrying ``shard`` after failed ``attempt``.

        Exponential in the attempt, jittered by a hash of (shard,
        attempt) — no clock, no RNG state, so identical runs sleep
        identical amounts while distinct shards still spread out.
        """
        delay = self.base_delay * (2 ** (attempt - 1))
        seed = (shard * 2654435761 + attempt * 40503) & 0xFFFFFFFF
        frac = ((seed * 69069 + 1) & 0xFFFFFFFF) / 2**32
        return min(delay * (1.0 + self.jitter * frac), self.max_delay)


@dataclass
class SupervisionReport:
    """What one supervised fan-out actually did (for logs and tests)."""

    total_shards: int = 0
    pooled_shards: int = 0  # shards whose accepted result came from the pool
    inprocess_shards: int = 0  # shards recovered by the in-process fallback
    retries: int = 0
    timeouts: int = 0
    #: Resident workers replaced after a crash or hang.
    respawns: int = 0
    failures: List[ShardFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Did any shard need recovery (retry, respawn, or fallback)?"""
        return bool(self.retries or self.inprocess_shards or self.respawns)
