"""Deterministic fault injection for the execution layer.

Resilience code that cannot be exercised is resilience code that does
not work, so every recovery path in this package is driven by a
:class:`FaultPlan` — a declarative description of which shard should
fail, how, and on which attempts.  The plan is installed through a
process-global hook (:func:`install_fault_plan` or the
:func:`fault_plan` context manager); the shard workers, the planner,
and the memory guard consult it through :func:`current_fault_plan`.

The resident pool's workers fork once, before any plan is installed,
so the pool ships the active plan inside each job descriptor
(:mod:`repro.exec.pool`).  Faults fire **only inside pool workers**:
the in-process fallback never consults the plan, so it is exempt by
construction, which is exactly what makes "kill every worker, still
get the exact answer" a provable property rather than a hope.

Supported fault kinds:

``kill``
    The worker process exits hard (``os._exit``) — the parent sees
    the worker's pipe close and must respawn it.
``raise``
    The worker raises :class:`InjectedFault` — an ordinary remote
    exception, retryable without a respawn.
``delay``
    The worker sleeps ``delay_seconds`` before computing, driving the
    shard past its timeout.
``poison``
    The worker returns an unpicklable object, so the failure happens
    in result serialization rather than in user code.

``inflate_bytes`` multiplies the byte figure
:attr:`~repro.metrics.space.SpaceTracker.reported_bytes` feeds the
memory guard and the planner's budget comparisons, letting tests trip
budget degradation on relations of any size.

**I/O faults.**  The durability layer (:mod:`repro.storage.journal`,
:mod:`repro.storage.recovery`) is driven by a second fault family:
:class:`IOFault` records scheduled against labelled file handles.  The
storage code opens every data and journal file through
:func:`wrap_handle`, which — only while a plan carrying ``io_faults``
is installed — wraps the handle in a :class:`FaultyFile` that counts
``write``/``fsync``/``flush`` calls per tag and fires the scheduled
fault at the matching call index:

``eio``
    The operation raises ``OSError(EIO)`` without touching the file —
    a failing disk the process *observes*.
``torn``
    The first half of the buffer is written, then
    :class:`SimulatedCrash` is raised — a power cut mid-write, leaving
    a torn page or journal record for checksums to catch.
``bitflip``
    One byte of the buffer is flipped and the write "succeeds" —
    silent media corruption, detectable only by checksum.
``crash``
    :class:`SimulatedCrash` is raised before anything is written — the
    process dies at exactly this durability point.

:class:`SimulatedCrash` subclasses ``BaseException`` so no recovery
path can accidentally swallow it; after a crash fires, the wrapper
refuses all further writes, so a half-finished flush loop cannot keep
mutating the "dead" file.  Call indexes are 1-based and tracked in a
process-global table that resets whenever a plan is installed or
cleared, which keeps crash matrices deterministic.
"""

from __future__ import annotations

import errno
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple

__all__ = [
    "ShardFault",
    "IOFault",
    "FaultPlan",
    "InjectedFault",
    "SimulatedCrash",
    "FaultyFile",
    "wrap_handle",
    "fsync_handle",
    "install_fault_plan",
    "clear_fault_plan",
    "current_fault_plan",
    "fault_plan",
    "reset_io_counters",
]

#: Fault kinds a ShardFault may carry.
FAULT_KINDS = ("kill", "raise", "delay", "poison")

#: Fault kinds an IOFault may carry.
IO_FAULT_KINDS = ("eio", "torn", "bitflip", "crash")

#: Operations a FaultyFile intercepts.
IO_OPERATIONS = ("write", "fsync", "flush")


class InjectedFault(RuntimeError):
    """The exception a ``raise``-kind fault throws inside a worker."""


class SimulatedCrash(BaseException):
    """Process death at a scheduled I/O point (``crash``/``torn``).

    A ``BaseException`` on purpose: resilience code that catches broad
    ``Exception`` must not be able to "survive" a simulated power cut —
    only the test harness, which expects it, catches this.
    """


class _Unpicklable:
    """An object whose serialization always fails (``poison`` faults)."""

    def __reduce__(self):
        raise pickle.PicklingError("poisoned shard result (injected fault)")


@dataclass(frozen=True)
class ShardFault:
    """One injected failure: shard ``shard`` misbehaves while
    ``attempt <= attempts`` (attempts are 1-based), in manner ``kind``."""

    shard: int
    kind: str = "raise"
    attempts: int = 1
    delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.shard < 0:
            raise ValueError("fault shard index must be >= 0")
        if self.attempts < 1:
            raise ValueError("fault must fire on at least one attempt")


@dataclass(frozen=True)
class IOFault:
    """One injected storage failure: the ``at_call``-th ``operation``
    on a handle tagged ``tag`` misbehaves in manner ``kind``.

    ``tag`` matches the label the storage layer opened the handle with
    (``"data"`` for heap-file pages, ``"journal"`` for journal
    segments, ``"scratch"`` for sort runs/spills) or ``"any"``.
    Call indexes are 1-based and counted per (tag, operation) across
    every handle sharing the tag, so "crash at the 3rd journal write"
    means the same thing regardless of segment rotation.
    """

    tag: str = "any"
    operation: str = "write"
    at_call: int = 1
    kind: str = "eio"

    def __post_init__(self) -> None:
        if self.kind not in IO_FAULT_KINDS:
            raise ValueError(
                f"unknown I/O fault kind {self.kind!r}; known kinds: "
                f"{', '.join(IO_FAULT_KINDS)}"
            )
        if self.operation not in IO_OPERATIONS:
            raise ValueError(
                f"unknown I/O operation {self.operation!r}; known: "
                f"{', '.join(IO_OPERATIONS)}"
            )
        if self.at_call < 1:
            raise ValueError("at_call is 1-based and must be >= 1")

    def matches(self, tag: str, operation: str, call_index: int) -> bool:
        """Is this fault due for the ``call_index``-th op on ``tag``?"""
        return (
            self.operation == operation
            and self.at_call == call_index
            and self.tag in ("any", tag)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of failures for one evaluation.

    Plans are immutable and contain no clocks or randomness: the same
    plan against the same input exercises the same recovery path every
    run, which is what lets CI assert on recovery behavior.
    """

    shard_faults: Tuple[ShardFault, ...] = field(default_factory=tuple)
    io_faults: Tuple[IOFault, ...] = field(default_factory=tuple)
    inflate_bytes: float = 1.0
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        if self.inflate_bytes <= 0:
            raise ValueError("inflate_bytes must be positive")
        object.__setattr__(self, "shard_faults", tuple(self.shard_faults))
        object.__setattr__(self, "io_faults", tuple(self.io_faults))

    def fault_for(self, shard: int, attempt: int) -> Optional[ShardFault]:
        """The fault due for this (shard, attempt), if any."""
        for fault in self.shard_faults:
            if fault.shard == shard and attempt <= fault.attempts:
                return fault
        return None

    def io_fault_for(
        self, tag: str, operation: str, call_index: int
    ) -> Optional[IOFault]:
        """The I/O fault due for this labelled call, if any."""
        for fault in self.io_faults:
            if fault.matches(tag, operation, call_index):
                return fault
        return None

    def execute_in_worker(self, shard: int, attempt: int) -> Optional[Any]:
        """Perform the scheduled fault inside a pool worker.

        Returns ``None`` to proceed normally (possibly after a delay),
        or a poison payload the worker must return as its result.
        ``kill`` never returns; ``raise`` raises.
        """
        fault = self.fault_for(shard, attempt)
        if fault is None:
            return None
        if fault.kind == "kill":
            # Hard exit, skipping atexit/finalizers: indistinguishable
            # from the OOM-killer or a segfault from the parent's side.
            os._exit(1)
        if fault.kind == "raise":
            raise InjectedFault(
                f"injected failure in shard {shard} (attempt {attempt})"
            )
        if fault.kind == "delay":
            time.sleep(fault.delay_seconds)
            return None
        return _Unpicklable()  # kind == "poison"


#: The process-global hook every consulting site reads.
_ACTIVE_PLAN: Optional[FaultPlan] = None

#: 1-based call counts per (tag, operation), shared by every FaultyFile
#: so rotation (several handles with the same tag) keeps one timeline.
_IO_CALLS: Dict[Tuple[str, str], int] = {}


def reset_io_counters() -> None:
    """Restart the per-(tag, operation) I/O call counting from zero."""
    _IO_CALLS.clear()


def install_fault_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` for subsequent evaluations (until cleared)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    reset_io_counters()


def clear_fault_plan() -> None:
    """Deactivate any active fault plan."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None
    reset_io_counters()


def current_fault_plan() -> Optional[FaultPlan]:
    """The active plan, or None outside fault-injection runs."""
    return _ACTIVE_PLAN


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped activation: install ``plan``, restore the prior one after."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    reset_io_counters()
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous
        reset_io_counters()


class FaultyFile:
    """A labelled binary-file wrapper that executes scheduled I/O faults.

    Transparent for every operation not named in the active plan; the
    storage layer can therefore run *all* its I/O through labelled
    handles without branching on "are we under test".  After a
    ``crash``/``torn`` fault fires, the wrapper is dead: every further
    write or sync raises :class:`SimulatedCrash` again, modelling the
    fact that a crashed process issues no more I/O.
    """

    def __init__(self, handle: BinaryIO, tag: str) -> None:
        self._handle = handle
        self.tag = tag
        self.crashed = False

    # -- fault dispatch -------------------------------------------------

    def _consult(self, operation: str, payload: Optional[bytes]) -> Optional[bytes]:
        """Count this call, fire any scheduled fault; returns the
        (possibly mutated) payload to actually write."""
        if self.crashed:
            raise SimulatedCrash(
                f"write to {self.tag} handle after simulated crash"
            )
        plan = current_fault_plan()
        if plan is None or not plan.io_faults:
            return payload
        key = (self.tag, operation)
        _IO_CALLS[key] = _IO_CALLS.get(key, 0) + 1
        fault = plan.io_fault_for(self.tag, operation, _IO_CALLS[key])
        if fault is None:
            return payload
        if fault.kind == "eio":
            raise OSError(
                errno.EIO,
                f"injected EIO on {self.tag} {operation} "
                f"(call {fault.at_call})",
            )
        if fault.kind == "crash":
            self.crashed = True
            raise SimulatedCrash(
                f"injected crash before {self.tag} {operation} "
                f"(call {fault.at_call})"
            )
        if fault.kind == "torn":
            if payload:
                self._handle.write(payload[: len(payload) // 2])
            self.crashed = True
            raise SimulatedCrash(
                f"injected torn {self.tag} {operation} "
                f"(call {fault.at_call})"
            )
        # kind == "bitflip": silent single-byte corruption.
        if payload:
            mutated = bytearray(payload)
            mutated[len(mutated) // 3] ^= 0x40
            return bytes(mutated)
        return payload

    # -- intercepted operations -----------------------------------------

    def write(self, data: bytes) -> int:
        payload = self._consult("write", bytes(data))
        if payload is None:
            return 0
        return self._handle.write(payload)

    def flush(self) -> None:
        self._consult("flush", None)
        self._handle.flush()

    def fsync(self) -> None:
        """Durability barrier (``os.fsync`` when the OS backs this file)."""
        self._consult("fsync", None)
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except (OSError, ValueError, AttributeError):
            pass  # in-memory files have no kernel buffers to sync

    # -- transparent passthrough ----------------------------------------

    def read(self, size: int = -1) -> bytes:
        return self._handle.read(size)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._handle.seek(offset, whence)

    def tell(self) -> int:
        return self._handle.tell()

    def truncate(self, size: Optional[int] = None) -> int:
        return self._handle.truncate(size)

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        self._handle.close()

    @property
    def closed(self) -> bool:
        return bool(self._handle.closed)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def wrap_handle(handle: BinaryIO, tag: str) -> BinaryIO:
    """Label a storage handle for I/O fault injection.

    Returns the handle unchanged unless a plan carrying ``io_faults``
    is installed, so production opens pay nothing.  All durability-
    relevant opens (data files, journal segments, sort scratch) must go
    through this, or the crash matrix cannot reach them.
    """
    plan = current_fault_plan()
    if plan is None or not plan.io_faults:
        return handle
    return FaultyFile(handle, tag)  # type: ignore[return-value]


def fsync_handle(handle: BinaryIO) -> None:
    """Force ``handle``'s bytes to stable storage (fault-aware).

    Routes through :meth:`FaultyFile.fsync` when the handle is wrapped;
    silently degrades to a flush for in-memory files, which have no
    durability to enforce.
    """
    sync = getattr(handle, "fsync", None)
    if callable(sync):
        sync()
        return
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError, AttributeError):
        pass  # BytesIO and friends: nothing to sync
