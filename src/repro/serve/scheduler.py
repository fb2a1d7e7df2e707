"""Fair round-robin scheduling of statements onto a worker pool.

Admitted statements wait in *per-session* queues; the scheduler walks
the sessions in a rotating ring and dispatches at most one statement
per session onto a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
Two invariants fall out of that shape:

* **Fairness** — a session that floods its queue cannot starve its
  neighbors: each ring pass takes one statement from each session with
  pending work, so a newcomer's first statement starts after at most
  one statement from every other active session, never behind the
  flooder's whole backlog.
* **Per-session ordering** — with at most one in-flight statement per
  session, replies leave in submission order without any sequencing
  machinery.

The scheduler owns no policy: admission decided *whether* a statement
runs; the statement's ``run`` closure
(built by the server) decides *what* it does.  Completion callbacks
(``on_done``) fire on the event-loop thread after the reply is sent —
the server uses them to balance admission's outstanding count.

**Single-flight coalescing.**  A statement may carry a
``coalesce_key`` — the server stamps queries with
``(op, table, pinned version, text)`` when the
reply is fully determined at admission time.  When a keyed statement
is dispatched while another statement with the same key is still in
flight, the newcomer does not run: it waits on the leader's flight,
receives the *same encoded reply bytes*, and costs no worker slot.
Every reply is encoded exactly once (``encode_frame``) and fanned out
with :meth:`~repro.serve.session.Session.send_encoded`; per-session
ordering is untouched because followers still occupy their session's
single in-flight slot until the shared bytes are sent.  Only leaders
count in ``statements_started``/``statements_finished``; followers
are tallied in ``coalesced_statements``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.serve.protocol import FrameError, encode_frame
from repro.serve.session import Session

__all__ = ["Statement", "FairScheduler"]


def _encode_reply(reply: Dict[str, Any]) -> bytes:
    """Encode one reply frame, downgrading oversize bodies to a typed
    error frame (a coalesced flight must always resolve to bytes)."""
    try:
        return encode_frame(reply)
    except FrameError as error:
        return encode_frame(
            {
                "ok": False,
                "error": {"type": "FrameError", "message": str(error)},
            }
        )


@dataclass
class Statement:
    """One admitted unit of work: a closure producing a reply frame.

    ``run`` executes on a worker thread and must return the reply
    payload (it catches its own taxonomy errors and encodes them as
    error frames — a worker thread never throws through the pool).
    ``on_done`` runs on the event-loop thread exactly once, whether the
    statement ran or was dropped with its session.
    """

    run: Callable[[], Dict[str, Any]]
    on_done: Optional[Callable[[], None]] = None
    label: str = "statement"
    #: Identity for single-flight coalescing, or None to always run.
    #: Statements dispatched while a same-key statement is in flight
    #: join its flight instead of executing.
    coalesce_key: Optional[Any] = None
    #: Write statements mutate served state (appends).  When the
    #: scheduler's write fence is up (a replica, or a deposed primary
    #: after failover), these are answered with the fence's typed
    #: error frame instead of running — including statements that were
    #: already queued when the fence went up.
    is_write: bool = False
    _completed: bool = field(default=False, repr=False)

    def finish(self) -> None:
        if not self._completed:
            self._completed = True
            if self.on_done is not None:
                self.on_done()


class FairScheduler:
    """Round-robin over sessions, bounded by a thread pool."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._ring: Deque[Session] = deque()
        self._wakeup = asyncio.Event()
        self._stopped = False
        self._inflight_tasks: set = set()
        #: Open flights by coalesce key; each resolves to the leader's
        #: encoded reply bytes (event-loop thread only).
        self._flights: Dict[Any, "asyncio.Future[bytes]"] = {}
        #: Write fence: when set, every dispatched write statement is
        #: answered with this factory's error frame instead of running.
        #: Written from the promotion/demotion path (any thread) and
        #: read by the dispatch loop — a single reference assignment,
        #: atomic under the GIL, and the factory itself is immutable
        #: once installed.
        self._write_fence: Optional[
            Callable[[], Dict[str, Any]]
        ] = None  # ta: unguarded
        self.statements_started = 0
        self.statements_finished = 0
        self.coalesced_statements = 0
        self.fenced_statements = 0

    # ------------------------------------------------------------------
    # Session membership (event-loop thread only)
    # ------------------------------------------------------------------

    def add_session(self, session: Session) -> None:
        self._ring.append(session)

    def remove_session(self, session: Session) -> None:
        try:
            self._ring.remove(session)
        except ValueError:
            pass

    def submit(self, session: Session, statement: Statement) -> None:
        """Queue one admitted statement and poke the dispatch loop."""
        session.queue.append(statement)
        self._wakeup.set()

    def fence_writes(
        self, reply_factory: Optional[Callable[[], Dict[str, Any]]]
    ) -> None:
        """Install (or with ``None`` lift) the write fence.

        While fenced, every write statement the loop dispatches —
        including ones queued *before* the fence went up — is answered
        with ``reply_factory()`` instead of executing.  This is the
        failover guard: a deposed primary or an unpromoted replica
        must refuse queued appends, not run them against a sealed
        journal.  Callable from any thread.
        """
        self._write_fence = reply_factory

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Dispatch until :meth:`stop`; run as one asyncio task."""
        slots = asyncio.Semaphore(self.workers)
        while not self._stopped:
            dispatched = self._next()
            if dispatched is None:
                self._wakeup.clear()
                # Re-check before sleeping: a submit between _next and
                # clear would otherwise be lost until the next poke.
                if self._has_work():
                    continue
                await self._wakeup.wait()
                continue
            session, statement = dispatched
            loop = asyncio.get_running_loop()
            fence = self._write_fence
            if fence is not None and statement.is_write:
                # Fenced write: reply typed, cost no worker slot.
                self.fenced_statements += 1
                task = loop.create_task(
                    self._refuse_one(session, statement, fence())
                )
                self._inflight_tasks.add(task)
                task.add_done_callback(self._inflight_tasks.discard)
                continue
            key = statement.coalesce_key
            if key is not None and key in self._flights:
                if self._stopped:
                    # Mirrors the leader path's post-acquire check: a
                    # statement dispatched during shutdown finishes
                    # without joining the flight, so no follower task
                    # is created outside the shutdown sequencing.
                    statement.finish()
                    break
                # Single-flight: an identical statement is already
                # running — wait for its bytes, cost no worker slot.
                self.coalesced_statements += 1
                task = loop.create_task(
                    self._join_flight(session, statement, self._flights[key])
                )
                self._inflight_tasks.add(task)
                task.add_done_callback(self._inflight_tasks.discard)
                continue
            await slots.acquire()
            if self._stopped:
                slots.release()
                statement.finish()
                break
            self.statements_started += 1
            flight: Optional["asyncio.Future[bytes]"] = None
            if key is not None:
                flight = loop.create_future()
                self._flights[key] = flight
            task = loop.create_task(
                self._run_one(session, statement, slots, key, flight)
            )
            self._inflight_tasks.add(task)
            task.add_done_callback(self._inflight_tasks.discard)

    def _has_work(self) -> bool:
        return any(
            not s.closed and not s.in_flight and s.queue for s in self._ring
        )

    def _next(self) -> Optional[Any]:
        """The next (session, statement) in ring order, if any.

        Each call resumes *after* the last dispatched session (the ring
        rotates), which is the round-robin guarantee.
        """
        for _ in range(len(self._ring)):
            session = self._ring[0]
            self._ring.rotate(-1)
            if session.closed or session.in_flight or not session.queue:
                continue
            statement = session.queue.popleft()
            session.in_flight = True
            return session, statement
        return None

    async def _run_one(
        self,
        session: Session,
        statement: Statement,
        slots: asyncio.Semaphore,
        key: Optional[Any] = None,
        flight: Optional["asyncio.Future[bytes]"] = None,
    ) -> None:
        loop = asyncio.get_running_loop()
        data = _encode_reply(
            {
                "ok": False,
                "error": {
                    "type": "CancelledError",
                    "message": f"{statement.label} cancelled during shutdown",
                },
            }
        )
        try:
            try:
                reply = await loop.run_in_executor(
                    self._executor, statement.run
                )
            except Exception as error:  # pragma: no cover - run() encodes its own
                reply = {
                    "ok": False,
                    "error": {
                        "type": type(error).__name__,
                        "message": (
                            f"internal error running {statement.label}: {error}"
                        ),
                    },
                }
            data = _encode_reply(reply)
        finally:
            # Resolve the flight no matter how the run ended (even a
            # shutdown cancellation): a follower awaiting it must
            # never hang.
            if flight is not None:
                self._flights.pop(key, None)
                if not flight.done():
                    flight.set_result(data)
            slots.release()
            session.in_flight = False
            session.statements_done += 1
            self.statements_finished += 1
            statement.finish()
            if session.queue:
                self._wakeup.set()
        await session.send_encoded(data)

    async def _refuse_one(
        self,
        session: Session,
        statement: Statement,
        reply: Dict[str, Any],
    ) -> None:
        """Answer a fenced write with a pre-built typed error frame."""
        data = _encode_reply(reply)
        session.in_flight = False
        session.statements_done += 1
        statement.finish()
        if session.queue:
            self._wakeup.set()
        await session.send_encoded(data)

    async def _join_flight(
        self,
        session: Session,
        statement: Statement,
        flight: "asyncio.Future[bytes]",
    ) -> None:
        """Follower half of a coalesced flight: reuse the leader's
        encoded bytes; no worker slot, no started/finished tally."""
        try:
            data = await asyncio.shield(flight)
        finally:
            session.in_flight = False
            session.statements_done += 1
            statement.finish()
            if session.queue:
                self._wakeup.set()
        await session.send_encoded(data)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def stop(self) -> None:
        """Stop dispatching, let in-flight statements drain, shut the
        pool down."""
        self._stopped = True
        self._wakeup.set()
        if self._inflight_tasks:
            await asyncio.gather(*list(self._inflight_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)
