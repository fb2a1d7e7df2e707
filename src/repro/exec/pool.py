"""Resident worker pool over shared-memory column segments.

The engine's one process backend: every sharded sweep that leaves the
calling process — ``parallel_sweep`` and the shard-result cache's
re-sweeps, both through :func:`repro.core.parallel.sweep_windows` —
runs here.  Forking a pool and shipping the input columns per
evaluation would amortize to nothing under a query *server*: the
north-star workload is many clients issuing repeated and overlapping
statements against slowly-changing relations, where the columns are
identical from one statement to the next and only the tiny window
descriptors differ.

The resident backend splits the two costs apart and pays each exactly
once:

* **Workers fork once**, at pool start, and then live across queries
  (:class:`ResidentWorkerPool`).  A query sends each worker a few
  hundred bytes of job descriptor over a pipe and reads answer columns
  back; no interpreter start, no module re-import, no column pickling.
  The ``pool_forks`` counter proves the shape: it equals the worker
  count (plus crash respawns), never the statement count.

* **Columns publish once per** :class:`~repro.core.columns.ColumnSet`.
  The first sweep that sends a ColumnSet to the workers copies its
  start, end and int64 value columns into named
  ``multiprocessing.shared_memory`` segments; every later sweep over
  the same ColumnSet — the common case under serving load, where
  statements share a pinned snapshot's ColumnSet — reuses them.  The
  publication lives exactly as long as its ColumnSet: a
  ``weakref.finalize`` unlinks the segments when the ColumnSet is
  collected, and :meth:`ResidentWorkerPool.stop` unlinks what is left.
  A sweep holds its ColumnSet until it returns, so no segment goes
  away under a running job, and how many stay resident is decided by
  whoever holds ColumnSets: a relation memoizes its current version's,
  a served relation those of its memoized pins.  Workers attach a
  job's segments when the job starts and close them when it ends, so
  between jobs a worker maps no segment (a respawned worker first
  closes the mappings its fork copied).  An owner that never gets to
  clean up (SIGKILLed together with its ``resource_tracker``, or
  OOM-killed) leaves its segments behind; the next pool start anywhere
  on the host reaps them (:func:`reap_orphaned_segments`).  The
  creating process holds a shared ``flock`` on each segment's
  descriptor for as long as the segment is open, so a segment on which
  an exclusive lock can be taken belongs to no live process — a rule
  that holds across pid reuse and across pid namespaces sharing
  ``/dev/shm``, where a pid-liveness check would not.

Worker lifecycle is supervised (:class:`ResidentPoolSupervisor`): a
worker that dies mid-job (OOM killer, injected ``kill`` fault) is
detected by pipe EOF, respawned, and the job retried under a
:class:`~repro.exec.supervision.RetryPolicy`; jobs that exhaust their
attempts fall back to an exact in-process evaluation, so the caller
sees identical rows no matter how many workers die.  Deadlines bound
every pipe wait.

Resident workers fork *before* any test installs a
:class:`~repro.exec.faults.FaultPlan`, so the active plan travels
inside each job descriptor (plans are small frozen dataclasses,
picklable by construction) and fires inside the worker; the
in-process fallback never consults it.

Cross-process metrics stay exact: each worker tallies its own
per-job counter deltas (shard sweeps run, tuples materialized — zero
on this columnar path, which the pool must not regress) and returns
them with the answer columns; the parent merges them into
the caller's :class:`~repro.metrics.counters.OperationCounters`.
"""

from __future__ import annotations

import atexit
import fcntl
import itertools
import multiprocessing
import os
import threading
import time
import weakref
from array import array
from collections import OrderedDict
from multiprocessing import shared_memory
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import window_rows
from repro.exec.deadline import Deadline
from repro.exec.errors import ShardFailure
from repro.exec.faults import FaultPlan, current_fault_plan
from repro.exec.supervision import RetryPolicy, SupervisionReport

from repro.metrics.counters import OperationCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columns import ColumnSet

__all__ = [
    "ResidentWorkerPool",
    "ResidentPoolSupervisor",
    "pool_workers_from_env",
    "default_pool",
    "active_pool",
    "acquire_default_pool",
    "release_default_pool",
    "shutdown_default_pool",
    "reap_orphaned_segments",
]

#: Counter-delta fields a worker may report back with a job result.
#: A fixed allowlist: the parent merges blindly, so the protocol — not
#: the worker — decides which counters can cross the process boundary.
WORKER_DELTA_FIELDS = ("pool_shards", "tuple_materializations")


def pool_workers_from_env() -> Optional[int]:
    """Worker-count override from ``REPRO_POOL_WORKERS`` (None = auto)."""
    raw = os.environ.get("REPRO_POOL_WORKERS", "")
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Shared-memory column segments
# ---------------------------------------------------------------------------

#: Name prefix of every segment a pool creates.
SEGMENT_PREFIX = "repro-pool-"

#: Where POSIX shared-memory segments appear as files.
SHM_DIR = "/dev/shm"

#: Process-wide segment serial numbers: names stay unique across pools
#: and across publications of one relation version.
_SEGMENT_SERIALS = itertools.count(1)


def reap_orphaned_segments() -> int:
    """Unlink every pool segment that no live process holds open.

    Each creator holds a shared ``flock`` on its segments (see
    :func:`_make_segment`), so an exclusive non-blocking lock succeeds
    only on a segment whose owner is gone.  Returns how many segments
    were unlinked; a host without ``/dev/shm`` has none to reap.

    A segment is locked just after it is created; a reap that lands in
    between unlinks a live name, and its sweeps then fail to attach
    and fall back to exact in-process evaluation.
    """
    try:
        names = [name for name in os.listdir(SHM_DIR) if name.startswith(SEGMENT_PREFIX)]
    except OSError:
        return 0
    reaped = 0
    for name in names:
        path = os.path.join(SHM_DIR, name)
        try:
            descriptor = os.open(path, os.O_RDONLY)
        except OSError:
            continue  # unlinked meanwhile
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.unlink(path)
            reaped += 1
        except OSError:
            pass  # a live owner holds it, or it is already gone
        finally:
            os.close(descriptor)
    return reaped


def _shareable_values(values: Optional[Sequence[Any]]) -> Optional[array]:
    """The value column as int64s, or None when it cannot map.

    Only ``array('q')``-compatible values (plain ints in int64 range)
    lay out directly in a shared segment; floats, Decimals, strings and
    mixed columns return None and the caller sweeps in process, which
    handles arbitrary Python values.
    """
    if values is None:
        return None
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except (TypeError, ValueError, OverflowError):
        return None


def _make_segment(
    columns: "ColumnSet", label: str, column: array
) -> shared_memory.SharedMemory:
    """A new segment holding ``column``'s int64s, locked as live."""
    name = (
        f"{SEGMENT_PREFIX}{os.getpid()}-{columns.uid}-v{columns.version}"
        f"-{label}-{next(_SEGMENT_SERIALS)}"
    )
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, len(column) * 8), name=name
    )
    # Held on the segment's own descriptor until close(): marks the
    # segment live for reap_orphaned_segments.
    fcntl.flock(segment._fd, fcntl.LOCK_SH)  # type: ignore[attr-defined]
    payload = column.tobytes()
    segment.buf[: len(payload)] = payload
    return segment


class _Publication:
    """One ColumnSet's columns in shared memory.

    Holds the parent-side segment handles (starts, ends, then values
    when the ColumnSet has a value column) and the row count: segment
    sizes round up to page granularity, so the length travels in the
    job descriptor.  ``finalizer`` unlinks the segments when the
    ColumnSet is collected.
    """

    __slots__ = ("segments", "length", "finalizer")

    def __init__(self, segments: List[shared_memory.SharedMemory], length: int) -> None:
        self.segments = segments
        self.length = length
        self.finalizer: Optional[weakref.finalize] = None

    def descriptor(self) -> Dict[str, Any]:
        """The picklable attach-by-name fields for a job spec."""
        names = [segment.name for segment in self.segments]
        return {
            "starts_name": names[0],
            "ends_name": names[1],
            "values_name": names[2] if len(names) > 2 else None,
            "length": self.length,
        }

    def destroy(self) -> None:
        """Close and unlink every segment."""
        for segment in self.segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass  # already unlinked (e.g. reaped)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _run_sweep_job(spec: Dict[str, Any]) -> Tuple[str, Any]:
    """Execute one sweep job inside a worker; returns the reply tuple.

    Replies are ``("ok", (columns, events, deltas))`` or
    ``("err", (type_name, message))``.  ``deltas`` carries the worker's
    counter increments for this job (see :data:`WORKER_DELTA_FIELDS`).
    The job's segments are attached here and closed before it returns,
    so a worker maps no segment between jobs.
    """
    plan: Optional[FaultPlan] = spec.get("plan")
    if plan is not None:
        poison = plan.execute_in_worker(spec["shard"], spec["attempt"])
        if poison is not None:
            # The poison payload is unpicklable; returning it makes the
            # reply send fail, which is the point of the fault.
            return ("ok", (poison, 0, {}))
    length = spec["length"]
    segments: List[shared_memory.SharedMemory] = []
    views: List[Optional[memoryview]] = []
    try:
        for key in ("starts_name", "ends_name", "values_name"):
            name = spec[key]
            if name is None:
                views.append(None)
                continue
            # Attach-only: the parent owns and unlinks the segment.
            # Workers are forked after the parent's resource tracker
            # started, so the attach-side registration lands in that
            # one shared tracker (a set no-op); do NOT unregister here,
            # which would race the parent's own unregister.
            segment = shared_memory.SharedMemory(name=name)
            segments.append(segment)
            views.append(segment.buf[: length * 8].cast("q"))
        starts, ends, values = views
        aggregate = get_aggregate(spec["aggregate"])
        answer, events = window_rows(
            starts, ends, values, aggregate, spec["lo"], spec["hi"]  # type: ignore[arg-type]
        )
    finally:
        for view in views:
            if view is not None:
                view.release()
        for segment in segments:
            try:
                segment.close()
            except BufferError:
                pass  # a view outlives the job; the mapping goes with it
    # The worker's own counter deltas: the sweep ran here, and — the
    # hot-path proof — it materialized zero row tuples (columns in,
    # answer columns out: the arrays pickle as raw bytes).
    deltas = {"pool_shards": 1, "tuple_materializations": 0}
    return ("ok", (answer, events, deltas))


def _pool_worker(conn: Any, inherited: List[shared_memory.SharedMemory]) -> None:
    """A resident worker's main loop: recv job, send reply, repeat.

    Lives until a ``stop`` job or pipe EOF (parent died).  Errors are
    typed replies, not crashes — only an injected ``kill`` fault (or a
    real signal) takes the process down.  ``inherited`` are the
    parent's segments this fork copied mappings of (a respawn while
    publications live); the worker closes them first, or it would keep
    their memory after the parent unlinks them.
    """
    for segment in inherited:
        segment.close()
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            kind, spec = job
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("ok", "pong"))
                continue
            try:
                reply = _run_sweep_job(spec)
            except Exception as exc:
                reply = ("err", (type(exc).__name__, str(exc)))
            try:
                conn.send(reply)
            except Exception as exc:
                # Unpicklable result (poison fault): the failed send
                # wrote nothing, so the pipe is still clean — report
                # the serialization failure as a typed error instead.
                try:
                    conn.send(("err", (type(exc).__name__, str(exc))))
                except (OSError, ValueError):
                    break
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side: the resident pool and its supervisor
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle on one resident worker process."""

    __slots__ = ("process", "conn", "index")

    def __init__(self, process: Any, conn: Any, index: int) -> None:
        self.process = process
        self.conn = conn
        self.index = index

    def alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self) -> None:
        try:
            self.conn.send(("stop", None))
        except (OSError, ValueError, BrokenPipeError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)


class ResidentPoolSupervisor:
    """Distribute sweep jobs over resident workers; recover crashes.

    Bounded retries under a :class:`~repro.exec.supervision.
    RetryPolicy` and an exact in-process fallback; detection works on
    pipes — a dead worker is an ``EOFError``/closed pipe on recv, a
    hung one a ``poll`` timeout — and recovery respawns the *one*
    worker.  ``report.respawns`` counts those.
    """

    def __init__(
        self,
        pool: "ResidentWorkerPool",
        *,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.pool = pool
        self.retry = retry if retry is not None else RetryPolicy()
        self.shard_timeout = shard_timeout
        self.deadline = deadline
        self.report = SupervisionReport()

    def _check_deadline(self, completed: int, total: int) -> None:
        if self.deadline is not None:
            self.deadline.check(
                completed_shards=completed, total_shards=total
            )

    def _poll_timeout(self) -> Optional[float]:
        timeout = self.shard_timeout
        if self.deadline is not None:
            remaining = self.deadline.remaining_seconds()
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def run(
        self,
        specs: List[Dict[str, Any]],
        fallback: Any,
        counters: Optional[OperationCounters] = None,
    ) -> List[Any]:
        """Run every job spec; returns ``(columns, events, deltas)`` per job.

        ``fallback(spec)`` computes one job in-process (exact, faults
        exempt) after retries are exhausted or when no worker remains.
        Jobs round-robin over workers; every worker's whole batch is
        sent before any reply is read, so all workers compute in
        parallel, and replies are drained from whichever worker
        finishes next (per worker they arrive in send order, which is
        what matches a reply back to its job).
        """
        n = len(specs)
        self.report.total_shards = n
        results: List[Any] = [None] * n
        completed = 0
        attempts = [0] * n
        pending = list(range(n))
        while pending:
            self._check_deadline(completed, n)
            workers = self.pool.workers()
            if not workers:
                for index in pending:
                    self._check_deadline(completed, n)
                    self.report.inprocess_shards += 1
                    results[index] = fallback(specs[index])
                    completed += 1
                pending = []
                break

            # Round-robin assignment; per-worker queues run in order.
            queues: Dict[int, List[int]] = {w.index: [] for w in workers}
            by_index = {w.index: w for w in workers}
            for position, index in enumerate(pending):
                worker = workers[position % len(workers)]
                queues[worker.index].append(index)

            failed: List[Tuple[int, Optional[str]]] = []
            dead_workers: List[int] = []

            def mark_dead(worker_index: int) -> None:
                if worker_index not in dead_workers:
                    dead_workers.append(worker_index)

            # Send phase: every batch goes out up front.  Job
            # descriptors are a few hundred bytes, so a whole round's
            # batch fits the pipe buffer without the worker consuming.
            outstanding: "OrderedDict[int, List[int]]" = OrderedDict()
            for worker_index, job_indexes in queues.items():
                worker = by_index[worker_index]
                pipe_down = False
                sent: List[int] = []
                for index in job_indexes:
                    attempts[index] += 1
                    specs[index]["attempt"] = attempts[index]
                    if not pipe_down:
                        try:
                            worker.conn.send(("sweep", specs[index]))
                            sent.append(index)
                            continue
                        except (OSError, ValueError, BrokenPipeError):
                            pipe_down = True
                            mark_dead(worker_index)
                            # Un-count the attempt that never started?
                            # No: a dead pipe consumed a real attempt
                            # window.
                    failed.append((index, "send failed: worker pipe down"))
                if sent:
                    outstanding[worker_index] = sent

            # Drain phase: wait on every owing worker's pipe at once.
            try:
                while outstanding:
                    self._check_deadline(completed, n)
                    conns = {by_index[wi].conn: wi for wi in outstanding}
                    timeout = self._poll_timeout()
                    ready = connection_wait(
                        list(conns),
                        timeout=None if timeout is None else max(0.0, timeout),
                    )
                    if not ready:
                        # A full per-shard timeout passed with no reply
                        # from *any* worker: everything still owing is
                        # wedged (or mid-sleep on a delay fault).
                        self.report.timeouts += 1
                        for worker_index in list(outstanding):
                            for index in outstanding.pop(worker_index):
                                failed.append((index, "job timed out"))
                            mark_dead(worker_index)
                        # Deadline enforcement resumes right after the
                        # wedged workers are respawned below — raising
                        # before the respawn would leave their stale
                        # replies in the pipes.
                        continue
                    for conn in ready:
                        worker_index = conns[conn]
                        queue = outstanding.get(worker_index)
                        if not queue:
                            continue
                        try:
                            reply = conn.recv()
                        except (EOFError, OSError):
                            for index in outstanding.pop(worker_index):
                                failed.append((index, "worker died (pipe EOF)"))
                            mark_dead(worker_index)
                            continue
                        index = queue.pop(0)
                        if not queue:
                            outstanding.pop(worker_index, None)
                        kind, payload = reply
                        if kind == "ok":
                            results[index] = payload
                            self.report.pooled_shards += 1
                            completed += 1
                        else:
                            type_name, message = payload
                            failed.append((index, f"{type_name}: {message}"))
                        self._check_deadline(completed, n)
            except BaseException:
                # Abandoning the round (a deadline, typically) with
                # replies still owed would leave stale replies in those
                # pipes to corrupt the next fan-out: replace the owing
                # workers before propagating.
                for worker_index in outstanding:
                    self.report.respawns += 1
                    self.pool.respawn(worker_index, counters=counters)
                raise

            for worker_index in dead_workers:
                # A timed-out worker may still be alive but wedged (or
                # mid-sleep on a delay fault): replace it either way so
                # the next round starts from a clean pipe.
                self.report.respawns += 1
                self.pool.respawn(worker_index, counters=counters)

            next_round: List[int] = []
            for index, cause in failed:
                if attempts[index] >= self.retry.max_attempts:
                    self.report.failures.append(
                        ShardFailure(
                            f"pool job {index} failed {attempts[index]} "
                            f"attempts ({cause}); recovering in-process",
                            shard=specs[index].get("shard", index),
                            window=(specs[index]["lo"], specs[index]["hi"]),
                            attempts=attempts[index],
                        )
                    )
                    self._check_deadline(completed, n)
                    self.report.inprocess_shards += 1
                    results[index] = fallback(specs[index])
                    completed += 1
                else:
                    self.report.retries += 1
                    next_round.append(index)

            if next_round:
                delay = max(
                    self.retry.backoff(index, attempts[index])
                    for index in next_round
                )
                if self.deadline is not None:
                    delay = min(delay, self.deadline.remaining_seconds())
                if delay > 0:
                    time.sleep(delay)
            pending = next_round
        return results


class ResidentWorkerPool:
    """A fork-once pool of resident sweep workers.

    ``workers=None`` sizes from ``REPRO_POOL_WORKERS`` then the core
    count (via :func:`repro.core.partition.available_workers`).  The
    pool owns the segments it publishes, one publication per live
    :class:`~repro.core.columns.ColumnSet`.  ``_fanout_lock`` admits
    one sweep fan-out at a time, with workers surviving in between —
    that survival is the entire point; ``_lock`` guards the workers,
    the publications and the tallies, and is held only briefly, so
    :meth:`stats` never waits behind a sweep.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = pool_workers_from_env()
        if workers is None:
            from repro.core.partition import available_workers

            workers = available_workers()
        if workers < 1:
            raise ValueError("a resident pool needs at least 1 worker")
        self.worker_count = workers
        self._ctx = (
            multiprocessing.get_context("fork") if _fork_available() else None
        )
        self._fanout_lock = threading.Lock()
        # Re-entrant: a publication's finalizer takes it, and a garbage
        # collection can run one on a thread that already holds it.
        self._lock = threading.RLock()
        self._workers: List[Optional[_Worker]] = []  # ta: guarded-by(self._lock)
        self._started = False  # ta: guarded-by(self._lock)
        self._closed = False  # ta: guarded-by(self._lock)
        #: id(ColumnSet) -> its publication, while the ColumnSet lives.
        self._publications: Dict[int, _Publication] = {}  # ta: guarded-by(self._lock)
        self.forks_total = 0  # ta: guarded-by(self._lock)
        #: Shard sweeps whose accepted result came from a worker.
        self.shards_total = 0  # ta: guarded-by(self._lock)
        self.segments_published = 0  # ta: guarded-by(self._lock)
        self.segments_reclaimed = 0  # ta: guarded-by(self._lock)

    # -- lifecycle ------------------------------------------------------

    def usable(self) -> bool:
        with self._lock:
            return self._ctx is not None and not self._closed

    def _spawn_locked(self, index: int) -> _Worker:
        assert self._ctx is not None
        # Start the parent's resource tracker BEFORE forking: a worker
        # forked without one would lazily spawn its own on first
        # attach, and that private tracker would "reclaim" (unlink,
        # with a warning) names the parent still owns when the worker
        # exits.  Forked after ensure_running, workers inherit the
        # parent's tracker fd and every registration lands in one
        # shared, set-deduplicated cache that the parent's unlink
        # clears exactly once.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError, OSError):
            pass  # no tracker on this platform; nothing to share
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = [
            segment
            for publication in self._publications.values()
            for segment in publication.segments
        ]
        process = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn, inherited),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.forks_total += 1
        return _Worker(process, parent_conn, index)

    def start(
        self, *, counters: Optional[OperationCounters] = None
    ) -> "ResidentWorkerPool":
        """Fork the workers (idempotent).  The only fork site.

        A first start also reaps the segments of dead owners
        (:func:`reap_orphaned_segments`)."""
        with self._lock:
            if self._started or not self.usable():
                return self
            reap_orphaned_segments()
            before = self.forks_total
            self._workers = [
                self._spawn_locked(index) for index in range(self.worker_count)
            ]
            self._started = True
            if counters is not None:
                counters.pool_forks += self.forks_total - before
        return self

    def started(self) -> bool:
        with self._lock:
            return self._started

    def respawn(
        self, index: int, *, counters: Optional[OperationCounters] = None
    ) -> None:
        """Replace worker ``index`` after a crash or hang."""
        with self._lock:
            if not self._started or self._closed or self._ctx is None:
                return
            old = self._workers[index] if index < len(self._workers) else None
            if old is not None:
                try:
                    old.conn.close()
                except OSError:
                    pass
                if old.process.is_alive():
                    old.process.terminate()
                old.process.join(timeout=2.0)
            self._workers[index] = self._spawn_locked(index)
            if counters is not None:
                counters.pool_forks += 1
                counters.worker_respawns += 1

    def workers(self) -> List[_Worker]:
        with self._lock:
            return [w for w in self._workers if w is not None and w.alive()]

    def stop(self, *, counters: Optional[OperationCounters] = None) -> None:
        """Stop every worker and unlink every segment this pool made.

        Waits for a running fan-out to finish first."""
        with self._fanout_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                workers = [w for w in self._workers if w is not None]
                self._workers = []
                publications = list(self._publications.values())
                self._publications.clear()
                reclaimed = sum(len(p.segments) for p in publications)
                self.segments_reclaimed += reclaimed
            for worker in workers:
                worker.terminate()
        for publication in publications:
            if publication.finalizer is not None:
                publication.finalizer.detach()
            publication.destroy()
        if counters is not None:
            counters.segments_reclaimed += reclaimed

    def __enter__(self) -> "ResidentWorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- publication ----------------------------------------------------

    def _publish(
        self, columns: "ColumnSet", counters: Optional[OperationCounters]
    ) -> Optional[_Publication]:
        """``columns`` in shared memory, copied on its first sweep.

        Returns None — the caller sweeps in process — when a column
        does not map to int64 or a segment cannot be made.  The caller
        holds ``_fanout_lock``, so one ColumnSet is never published
        twice at once.
        """
        key = id(columns)
        with self._lock:
            publication = self._publications.get(key)
        if publication is not None:
            return publication
        starts = _shareable_values(columns.starts)
        ends = _shareable_values(columns.ends)
        values = _shareable_values(columns.values)
        if starts is None or ends is None:
            return None
        if columns.values is not None and values is None:
            return None
        publication = _Publication([], len(starts))
        try:
            for label, column in (("starts", starts), ("ends", ends), ("values", values)):
                if column is not None:
                    publication.segments.append(_make_segment(columns, label, column))
        except (OSError, ValueError):
            publication.destroy()
            return None
        with self._lock:
            self._publications[key] = publication
            self.segments_published += len(publication.segments)
        publication.finalizer = weakref.finalize(columns, self._release, key)
        if counters is not None:
            counters.segments_published += len(publication.segments)
        return publication

    def _release(self, key: int) -> None:
        """A published ColumnSet was collected: unlink its segments."""
        with self._lock:
            publication = self._publications.pop(key, None)
            if publication is None:
                return
            self.segments_reclaimed += len(publication.segments)
        publication.destroy()

    def stats(self) -> Dict[str, int]:
        """The pool section of a server's ``stats`` frame, read under
        one lock: workers, forks, pooled shards and segment tallies."""
        with self._lock:
            return {
                "workers": self.worker_count,
                "forks": self.forks_total,
                "pool_shards": self.shards_total,
                "live_segments": sum(
                    len(p.segments) for p in self._publications.values()
                ),
                "segments_published": self.segments_published,
                "segments_reclaimed": self.segments_reclaimed,
            }

    # -- evaluation -----------------------------------------------------

    def sweep_columns(
        self,
        columns: "ColumnSet",
        windows: Sequence[Tuple[int, int]],
        aggregate_name: str,
        *,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        counters: Optional[OperationCounters] = None,
    ) -> Optional[Tuple[List[Any], "ResidentPoolSupervisor"]]:
        """Fan ``windows`` of ``columns`` out over the resident workers.

        Returns ``(shard_results, supervisor)`` with one
        ``(columns, events)`` pair per window (worker counter deltas
        already merged into ``counters``), or None when the resident
        backend cannot serve this input — an anonymous ColumnSet (no
        relation uid: built for one call, so a copy would be wasted),
        empty or unshareable columns, fork unavailable — and the caller
        should sweep in process.  Exactly one fan-out runs at a time.
        """
        if columns.uid is None or not len(columns) or not self.usable():
            return None
        self.start(counters=counters)
        with self._fanout_lock:
            if not self.usable():
                return None  # stopped since the start above
            publication = self._publish(columns, counters)
            if publication is None:
                return None
            plan = current_fault_plan()
            descriptor = publication.descriptor()
            specs = [
                dict(
                    descriptor,
                    lo=lo,
                    hi=hi,
                    aggregate=aggregate_name,
                    shard=shard,
                    attempt=0,
                    plan=plan if plan is not None and plan.shard_faults else None,
                )
                for shard, (lo, hi) in enumerate(windows)
            ]
            aggregate = get_aggregate(aggregate_name)

            def fallback(spec: Dict[str, Any]) -> Tuple[Any, int, Dict[str, int]]:
                answer, events = window_rows(
                    columns.starts, columns.ends, columns.values, aggregate,
                    spec["lo"], spec["hi"],
                )
                return (answer, events, {})

            supervisor = ResidentPoolSupervisor(
                self,
                retry=retry,
                shard_timeout=shard_timeout,
                deadline=deadline,
            )
            job_results = supervisor.run(specs, fallback, counters)
        with self._lock:
            self.shards_total += supervisor.report.pooled_shards
        if counters is not None:
            for result in job_results:
                deltas = result[2]
                for field in WORKER_DELTA_FIELDS:
                    if field in deltas:
                        setattr(
                            counters,
                            field,
                            getattr(counters, field) + deltas[field],
                        )
        shard_results = [(result[0], result[1]) for result in job_results]
        return shard_results, supervisor


# ---------------------------------------------------------------------------
# Process-wide defaults
# ---------------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_POOL: Optional[ResidentWorkerPool] = None  # ta: guarded-by(_DEFAULT_LOCK)
#: Outstanding acquire_default_pool() references; the pool is shut
#: down when the count returns to zero.  # ta: guarded-by(_DEFAULT_LOCK)
_DEFAULT_POOL_REFS = 0


def default_pool(workers: Optional[int] = None) -> Optional[ResidentWorkerPool]:
    """The process-wide resident pool, started lazily.

    Returns None on platforms without ``fork``.  ``workers`` sizes the
    pool on first touch only; later calls return the existing pool
    regardless (one resident pool per process — its workers are the
    shared backend for every evaluator and the serve scheduler).
    """
    global _DEFAULT_POOL
    if not _fork_available():
        return None
    with _DEFAULT_LOCK:
        if _DEFAULT_POOL is None or not _DEFAULT_POOL.usable():
            _DEFAULT_POOL = ResidentWorkerPool(workers)
        return _DEFAULT_POOL


def active_pool() -> Optional[ResidentWorkerPool]:
    """The default pool only if it is *already running*; never creates.

    The gate for evaluation paths that must not fork lazily: sweeps on
    server executor threads run mid-query (forking a multi-threaded
    process at an arbitrary point), and ``ServerConfig`` documents
    ``pool_workers=0`` as "no resident execution".  A multi-threaded
    process gets resident execution by starting the pool explicitly —
    the server's ``start()``, a ``with`` block, a bench driver — and
    this returns it; otherwise None and the caller stays in process
    (see :func:`repro.core.parallel.sweep_windows`).
    """
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOL
    if pool is not None and pool.usable() and pool.started():
        return pool
    return None


def acquire_default_pool(
    workers: Optional[int] = None,
) -> Optional[ResidentWorkerPool]:
    """:func:`default_pool` plus a shutdown reference.

    Callers that own a pool lifetime (one per server instance) pair
    this with :func:`release_default_pool`; the process-wide pool is
    only torn down when the last reference drops, so one server
    stopping cannot unlink segments out from under another server — or
    any evaluator sweep — sharing the same process.
    """
    global _DEFAULT_POOL_REFS
    pool = default_pool(workers)
    if pool is None:
        return None
    with _DEFAULT_LOCK:
        _DEFAULT_POOL_REFS += 1
    return pool


def release_default_pool() -> None:
    """Drop one acquire reference; shuts the pool down at zero."""
    global _DEFAULT_POOL_REFS
    with _DEFAULT_LOCK:
        if _DEFAULT_POOL_REFS > 0:
            _DEFAULT_POOL_REFS -= 1
        remaining = _DEFAULT_POOL_REFS
    if remaining == 0:
        shutdown_default_pool()


def shutdown_default_pool() -> None:
    """Stop the default pool, unlinking every segment it published."""
    global _DEFAULT_POOL, _DEFAULT_POOL_REFS
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOL
        _DEFAULT_POOL = None
        _DEFAULT_POOL_REFS = 0
    if pool is not None:
        pool.stop()


def _atexit_cleanup() -> None:
    # Last-resort hygiene: whatever the process failed to release,
    # unlink now so /dev/shm is clean after every exit path.
    try:
        shutdown_default_pool()
    except (OSError, ValueError):
        pass


atexit.register(_atexit_cleanup)
