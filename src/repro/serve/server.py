"""The query server: asyncio front end over the evaluation engine.

One :class:`QueryServer` serves many concurrent TSQL2-lite sessions
over the frame protocol (:mod:`repro.serve.protocol`).  The division
of labor per connection:

* the **reader coroutine** (event-loop thread) parses frames, answers
  the cheap ops inline (``ping``, ``stats``, ``close``), and runs
  ``query``/``append`` through admission
  (:class:`~repro.serve.admission.AdmissionController`) into the fair
  scheduler;
* a **worker thread** executes the statement against snapshot-pinned
  relations (:mod:`repro.serve.snapshots`) under the per-statement
  deadline and memory budget;
* the reader's session object sends the reply (or drops it if the
  client died mid-query — a kill never wedges a worker).

Failures cross the wire as typed error frames: ``{"ok": false,
"error": {"type", "message", "hint", ...}}`` with the same recovery
hints the shell prints (:func:`repro.exec.errors.recovery_hint`), plus
``retry_after_ms`` on every ``ServerOverloaded``.

:class:`ServerRunner` hosts a server on a dedicated thread with its
own event loop — the harness the blocking client library, the tests,
and the serving benchmark all use.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cache.store import default_cache
from repro.exec.errors import (
    NotPrimary,
    ReplicaLagExceeded,
    ServerOverloaded,
    TemporalAggregateError,
    recovery_hint,
)
from repro.metrics.counters import ThreadLocalCounters
from repro.relation.relation import TemporalRelation
from repro.serve.admission import AdmissionController
from repro.serve.config import ServerConfig
from repro.serve.protocol import ConnectionClosed, FrameError, read_frame, write_frame
from repro.serve.scheduler import FairScheduler, Statement
from repro.serve.session import Session
from repro.serve.snapshots import ServedRelation
from repro.tsql2.ast import Query
from repro.tsql2.executor import Database, TSQL2SemanticError
from repro.tsql2.lexer import TSQL2SyntaxError
from repro.tsql2.parser import parse

__all__ = ["QueryServer", "ServerRunner", "DEDUP_WINDOW", "append_rows"]

#: Idempotent-statement dedup window: how many acknowledged statement
#: ids the server remembers.  Matches the journal's STATEMENT
#: retention so a recovered/promoted node can reseed the full window.
DEDUP_WINDOW = 256


def append_rows(rows: Any) -> List[Tuple[List[Any], Any, Any]]:
    """An ``append`` frame's ``[value..., start, end]`` lists, which a
    replicated batch carries too, as ``(values, start, end)`` rows."""
    if not isinstance(rows, list):
        raise TSQL2SemanticError("append rows must be a list")
    batch = []
    for row in rows:
        if not isinstance(row, list) or len(row) < 2:
            raise TSQL2SemanticError("each append row is [value..., start, end]")
        batch.append((row[:-2], row[-2], row[-1]))
    return batch


def _error_frame(error: BaseException) -> Dict[str, Any]:
    """Encode any failure as a typed error frame."""
    payload: Dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, TemporalAggregateError):
        payload["hint"] = recovery_hint(error)
    if isinstance(error, ServerOverloaded):
        payload["retry_after_ms"] = error.retry_after_ms
        payload["reason"] = error.reason
    if isinstance(error, NotPrimary):
        payload["role"] = error.role
        payload["primary_hint"] = error.primary_hint
    if isinstance(error, ReplicaLagExceeded):
        payload["token_version"] = error.token_version
        payload["applied_version"] = error.applied_version
        payload["retry_after_ms"] = error.retry_after_ms
    epoch = getattr(error, "epoch", None)
    if epoch is not None:
        payload["epoch"] = epoch
        payload["observed_epoch"] = getattr(error, "observed_epoch", None)
    deadline_ms = getattr(error, "deadline_ms", None)
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
        payload["elapsed_ms"] = getattr(error, "elapsed_ms", None)
    return {"ok": False, "error": payload}


class QueryServer:
    """A bounded, snapshot-isolated query server."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.admission = AdmissionController(self.config)
        self.scheduler = FairScheduler(self.config.workers)
        #: Server-side operation counters, merged exactly across worker
        #: threads for the stats frame.
        self.counters = ThreadLocalCounters()
        self._served: Dict[str, ServedRelation] = {}
        self._sessions: Dict[int, Session] = {}
        self._sid_counter = 0
        #: Live replication role; seeded from config, mutated by the
        #: replication node on promotion/demotion (a plain attribute —
        #: reference assignment is atomic under the GIL and readers
        #: only branch on it).
        self.role = self.config.role  # ta: unguarded
        self._dedup_lock = threading.Lock()
        #: Acknowledged (sid -> (version, row_count)) window for
        #: idempotent appends; a retried sid is re-acknowledged with
        #: the original identity instead of applying twice.
        self._dedup: "OrderedDict[str, Tuple[int, int]]" = (
            OrderedDict()
        )  # ta: guarded-by(self._dedup_lock)
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._started_monotonic = 0.0
        self.port: Optional[int] = None
        #: The resident worker pool this server started (None when
        #: ``config.pool_workers`` is 0 or the platform lacks fork).
        self._pool: Optional[Any] = None

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def register(
        self, relation: TemporalRelation, name: Optional[str] = None
    ) -> ServedRelation:
        """Serve ``relation`` under ``name`` (default: its own name).

        Must happen before clients query it; the relation becomes
        append-only from here on (snapshot isolation relies on it).
        """
        served = ServedRelation(relation, name=name or relation.name)
        self._served[served.name.lower()] = served
        return served

    def served(self, name: str) -> ServedRelation:
        served = self._served.get(name.lower())
        if served is None:
            known = ", ".join(sorted(self._served)) or "(none)"
            raise TSQL2SemanticError(
                f"unknown relation {name!r}; served: {known}"
            )
        return served

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves once the port is bound."""
        if self.config.pool_workers > 0:
            # Fork the resident workers once, before any statement
            # runs: every query served afterwards reuses these
            # processes (pool_forks stays at worker count for the
            # server's whole life unless a worker crashes).  Acquired,
            # not merely fetched: the pool is process-wide, and a
            # reference per server keeps one server's stop() from
            # unlinking segments another user still sweeps over.
            from repro.exec.pool import acquire_default_pool

            self._pool = acquire_default_pool(self.config.pool_workers)
            if self._pool is not None:
                self._pool.start(counters=self.counters.local())
        self._server = await asyncio.start_server(
            self._on_connect, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self.scheduler.run()
        )

    async def stop(self) -> None:
        """Stop accepting, close sessions, drain the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions.values()):
            session.closed = True
            try:
                session.writer.close()
            except Exception:
                pass
        await self.scheduler.stop()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            # Drop this server's reference on the process-wide pool;
            # the last reference out actually stops it (workers exit,
            # every published segment unlinks).
            from repro.exec.pool import release_default_pool

            self._pool = None
            release_default_pool()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling (event-loop thread)
    # ------------------------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            self.admission.admit_session()
        except ServerOverloaded as error:
            # Refused at the door: one typed hello-error frame, then
            # hang up.  The client library raises this as-is.
            try:
                write_frame(writer, _error_frame(error))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return

        self._sid_counter += 1
        session = Session(self._sid_counter, writer)
        self._sessions[session.sid] = session
        self.scheduler.add_session(session)
        try:
            await session.send(
                {
                    "ok": True,
                    "op": "hello",
                    "session": session.sid,
                    "server": "repro-serve",
                    "max_queue_depth": self.config.max_queue_depth,
                    "tables": sorted(self._served),
                    "role": self.role,
                    **self.hello_extra(),
                }
            )
            await self._session_loop(reader, session)
        except ConnectionClosed:
            pass
        except FrameError as error:
            # A peer that stops speaking the protocol gets one typed
            # answer (best effort) and is disconnected: resynchronizing
            # inside a length-prefixed stream is impossible.
            await session.send(_error_frame(error))
        except (ConnectionError, OSError):
            pass
        finally:
            self._close_session(session)

    async def _session_loop(
        self, reader: asyncio.StreamReader, session: Session
    ) -> None:
        while not session.closed:
            frame = await read_frame(reader)
            op = frame.get("op")
            if op == "ping":
                await session.send({"ok": True, "op": "pong"})
            elif op == "stats":
                await session.send({"ok": True, "op": "stats", "stats": self.stats()})
            elif op == "close":
                await session.send({"ok": True, "op": "closed"})
                return
            elif op == "query":
                self._admit(session, frame, self._query_statement)
            elif op == "append":
                refusal = self._refuse_write()
                if refusal is not None:
                    # Not the primary: the typed refusal rides the
                    # normal queue so it leaves in order with other
                    # replies (mirror of statement-level rejection).
                    self.scheduler.submit(
                        session, _InlineReply(_error_frame(refusal))
                    )
                else:
                    self._admit(session, frame, self._append_statement)
            else:
                if await self._handle_extra_op(str(op), frame, session):
                    continue
                await session.send(
                    _error_frame(FrameError(f"unknown op {op!r}"))
                )
                return

    def _admit(
        self,
        session: Session,
        frame: Dict[str, Any],
        builder: "Callable[..., Statement]",
    ) -> None:
        """Run one statement frame through admission into the scheduler."""
        try:
            self.admission.admit_statement(len(session.queue))
        except ServerOverloaded as error:
            # Statement-level rejection: the session survives, the
            # client backs off by retry_after_ms.  The error frame rides
            # the normal queue so it leaves in order with other replies.
            self.scheduler.submit(session, _InlineReply(_error_frame(error)))
            return
        statement = builder(frame, session)
        statement.on_done = self.admission.statement_done
        self.scheduler.submit(session, statement)

    def _close_session(self, session: Session) -> None:
        session.closed = True
        self._sessions.pop(session.sid, None)
        self.scheduler.remove_session(session)
        # Admitted-but-unrun statements are dropped; each still owes
        # admission a completion so the outstanding count drains.
        while session.queue:
            statement = session.queue.popleft()
            statement.finish()
        try:
            session.writer.close()
        except Exception:
            pass
        self.admission.release_session()

    # ------------------------------------------------------------------
    # Replication extension points (overridden by repro.replicate)
    # ------------------------------------------------------------------

    def hello_extra(self) -> Dict[str, Any]:
        """Extra hello-frame fields (epoch, stream uids, peer hints).

        The base server has none; the replication node overrides this
        to stamp its epoch and journal identity into every handshake.
        """
        return {}

    async def _handle_extra_op(
        self, op: str, frame: Dict[str, Any], session: Session
    ) -> bool:
        """Handle a non-core op; return True if ``op`` was consumed.

        The replication node overrides this for the ``rep.*`` ops
        (shipping, heartbeat, promotion).  The base server knows none,
        so unknown ops keep falling through to the protocol error.
        """
        return False

    def _refuse_write(self) -> Optional[TemporalAggregateError]:
        """The typed refusal for write ops, or None to accept them.

        A replica (or a fenced, deposed primary) returns ``NotPrimary``
        / ``StaleEpoch`` here; the base server — and any node whose
        live role is primary — accepts.
        """
        if self.role == "primary":
            return None
        return NotPrimary(
            f"node is a {self.role}, not the primary; writes refused",
            role=self.role,
            primary_hint=self._primary_hint(),
        )

    def _primary_hint(self) -> Optional[str]:
        """Best guess at the live primary's ``host:port`` (or None)."""
        return None

    def _apply_append(
        self,
        served: ServedRelation,
        batch: Any,
        sid: Optional[str],
    ) -> Tuple[int, int]:
        """Apply one validated append batch; returns (version, rows).

        The replication node overrides this to journal the batch (with
        its STATEMENT ledger record) and ship it to replicas before
        acknowledging.  The base server applies in memory.
        """
        return served.append_batch(batch)

    def _stream_uid(self, served: ServedRelation) -> str:
        """The replication stream identity read tokens bind to."""
        return f"local:{served.base.uid}"

    def _replication_stats(self) -> Optional[Dict[str, Any]]:
        """The stats frame's ``replication`` section (None = omit)."""
        return None

    # ------------------------------------------------------------------
    # Idempotent-statement dedup window
    # ------------------------------------------------------------------

    def dedup_lookup(self, sid: str) -> Optional[Tuple[int, int]]:
        """The acknowledged ``(version, row_count)`` for ``sid``, if
        it is still inside the window."""
        with self._dedup_lock:
            return self._dedup.get(sid)

    def dedup_record(self, sid: str, version: int, row_count: int) -> None:
        """Remember ``sid``'s acknowledged identity (bounded window)."""
        with self._dedup_lock:
            self._dedup[sid] = (version, row_count)
            self._dedup.move_to_end(sid)
            while len(self._dedup) > DEDUP_WINDOW:
                self._dedup.popitem(last=False)

    def seed_dedup(self, entries: Any) -> None:
        """Reseed the window from recovered ``(sid, version, rows)``
        ledger entries — how a restarted or promoted node keeps the
        exactly-once guarantee across the failover."""
        for sid, version, row_count in entries:
            self.dedup_record(str(sid), int(version), int(row_count))

    # ------------------------------------------------------------------
    # Statement builders (closures executed on worker threads)
    # ------------------------------------------------------------------

    def _debug_delay(self) -> None:
        if self.config.debug_statement_delay_ms:
            time.sleep(self.config.debug_statement_delay_ms / 1000.0)

    def _pin_at_admit(
        self, session: Session, query: Query, text: str
    ) -> "Optional[tuple]":
        """Pin a parsed query's snapshot at admission, when that is sound.

        Pinning early is what makes two identical queries from
        different sessions *provably* the same work — both carry the
        same ``(table, version)`` before either runs, so the scheduler
        can coalesce them into one flight.  It is only sound when this
        session has nothing queued or running: a queued append must
        become visible to a query submitted after it (read-your-writes),
        so such queries keep pinning at run time and never coalesce.

        Returns ``(served, view, coalesce_key)`` or None.
        """
        if session.queue or session.in_flight:
            return None
        try:
            served = self.served(query.table)
            view = served.pin()
        except (TSQL2SemanticError, TemporalAggregateError):
            # Let the run-time path produce the (uncoalesced) error.
            return None
        key = ("query", served.name.lower(), view.version, text.strip())
        return served, view, key

    def _query_statement(
        self, frame: Dict[str, Any], session: Session
    ) -> Statement:
        text = frame.get("text")
        token = frame.get("token")
        # The statement is parsed once, here at admission; the run
        # executes the parsed query.  A syntax error is answered when
        # the statement's turn comes, in order with the session's
        # other replies.
        parsed: Union[Query, Exception]
        if not isinstance(text, str) or not text.strip():
            parsed = TSQL2SemanticError("query op needs a non-empty 'text'")
        else:
            try:
                parsed = parse(text)
            except TSQL2SyntaxError as error:
                parsed = error
        # A read token must be checked against the freshest view, and a
        # tokened query must never coalesce with a tokenless flight
        # (the follower would receive rows instead of the typed lag
        # refusal) — so tokened queries always pin at run time.
        pinned = None
        if isinstance(parsed, Query) and token is None:
            pinned = self._pin_at_admit(session, parsed, text)

        def run() -> Dict[str, Any]:
            started = time.perf_counter()
            self._debug_delay()
            if not isinstance(parsed, Query):
                return _error_frame(parsed)
            query = parsed
            try:
                if pinned is not None:
                    served, view = pinned[0], pinned[1]
                else:
                    served = self.served(query.table)
                    view = served.pin()
                if token is not None:
                    self._check_read_token(token, served, view)
                database = Database()
                database.register(view, name=served.name)
                result = database.execute(
                    query,
                    deadline_ms=self.config.deadline_ms,
                    memory_budget_bytes=self.config.memory_budget_bytes,
                )
            except TemporalAggregateError as error:
                return _error_frame(error)
            except (TSQL2SyntaxError, TSQL2SemanticError) as error:
                return _error_frame(error)
            local = self.counters.local()
            local.emitted += len(result)
            return {
                "ok": True,
                "op": "query",
                "columns": list(result.columns),
                # The answer's columns, sent as a column frame
                # (repro.serve.protocol); no row is built here.
                "data": result.data,
                "pinned": {
                    "table": served.name,
                    "version": view.version,
                    "row_count": len(view),
                },
                "role": self.role,
                "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }

        return Statement(
            run=run,
            label="query",
            coalesce_key=None if pinned is None else pinned[2],
        )

    def _check_read_token(
        self, token: Any, served: ServedRelation, view: Any
    ) -> None:
        """Enforce a ``(uid, version)`` read token against ``view``.

        A token binding this served relation's stream demands the view
        be at least as new as the version the client last wrote or
        read — the read-your-writes half of bounded staleness.  Tokens
        for other streams are not binding here.
        """
        if not isinstance(token, dict):
            raise TSQL2SemanticError(
                "read token must be {'uid': ..., 'version': ...}"
            )
        uid = str(token.get("uid", ""))
        wanted = int(token.get("version", 0))
        if uid != self._stream_uid(served):
            return
        if wanted > view.version:
            raise ReplicaLagExceeded(
                f"read token demands {served.name} version {wanted}, "
                f"but this node has applied only {view.version}",
                token_version=wanted,
                applied_version=view.version,
                retry_after_ms=self.config.retry_after_ms,
            )

    def _append_statement(
        self, frame: Dict[str, Any], session: Session
    ) -> Statement:
        table = frame.get("table")
        rows = frame.get("rows")
        raw_sid = frame.get("sid")
        sid = raw_sid if isinstance(raw_sid, str) and raw_sid else None

        def run() -> Dict[str, Any]:
            started = time.perf_counter()
            self._debug_delay()
            if not isinstance(table, str) or not isinstance(rows, list) or not rows:
                return _error_frame(
                    TSQL2SemanticError(
                        "append op needs 'table' and a non-empty 'rows' list"
                    )
                )
            try:
                served = self.served(table)
                deduplicated = False
                hit = None if sid is None else self.dedup_lookup(sid)
                if hit is not None:
                    # The statement was already acknowledged once: the
                    # retry gets the original identity, the relation
                    # is untouched (exactly-once across retries and
                    # failover).
                    version, row_count = hit
                    deduplicated = True
                else:
                    version, row_count = self._apply_append(
                        served, append_rows(rows), sid
                    )
                    if sid is not None:
                        self.dedup_record(sid, version, row_count)
            except TemporalAggregateError as error:
                return _error_frame(error)
            except (TSQL2SemanticError, ValueError) as error:
                return _error_frame(error)
            local = self.counters.local()
            if not deduplicated:
                local.tuples += len(rows)
            return {
                "ok": True,
                "op": "append",
                "table": served.name,
                "appended": 0 if deduplicated else len(rows),
                "version": version,
                "row_count": row_count,
                "deduplicated": deduplicated,
                "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }

        return Statement(run=run, label="append", is_write=True)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _pool_stats(self) -> Dict[str, Any]:
        """The ``pool`` section of the stats frame."""
        pool = self._pool
        if pool is None:
            return {
                "workers": 0, "forks": 0, "pool_shards": 0, "live_segments": 0,
            }
        return pool.stats()

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` frame body: admission, scheduler, cache, tables."""
        cache = default_cache()
        with cache.lock:
            cache_stats = {
                "entries": len(cache),
                "live_bytes": cache.live_bytes,
                "budget_bytes": cache.budget_bytes,
                "hits": cache.counters.cache_hits,
                "misses": cache.counters.cache_misses,
                "evictions": cache.counters.cache_evictions,
                "dirty_shards": cache.counters.cache_dirty_shards,
            }
        body: Dict[str, Any] = {
            "uptime_ms": round(
                (time.monotonic() - self._started_monotonic) * 1000.0, 1
            ),
            "role": self.role,
            "admission": self.admission.snapshot(),
            "scheduler": {
                "workers": self.config.workers,
                "statements_started": self.scheduler.statements_started,
                "statements_finished": self.scheduler.statements_finished,
                "coalesced_statements": self.scheduler.coalesced_statements,
                "fenced_statements": self.scheduler.fenced_statements,
            },
            "pool": self._pool_stats(),
            "cache": cache_stats,
            "counters": self.counters.snapshot(),
            # Per-table pairs come from ServedRelation.stats(), which
            # reads (version, row_count) under the append lock: the
            # old unlocked len(base)/base.version reads here could
            # tear across a concurrent append.
            "tables": {
                served.name: {"rows": row_count, "version": version}
                for served in self._served.values()
                for version, row_count in (served.stats(),)
            },
        }
        replication = self._replication_stats()
        if replication is not None:
            body["replication"] = replication
        return body


class _InlineReply(Statement):
    """A pre-computed reply frame queued like a statement.

    Used for statement-level rejections: the error frame must leave in
    order with the session's other replies, so it rides the same queue
    — but it costs no worker and owes admission nothing.
    """

    def __init__(self, reply: Dict[str, Any]) -> None:
        super().__init__(run=lambda: reply, label="rejection")


class ServerRunner:
    """Host a :class:`QueryServer` on a dedicated event-loop thread.

    The blocking-world harness: tests, the swarm, the benchmark, and
    the CLI's programmatic users start a runner, talk to
    ``runner.port`` with :class:`~repro.serve.client.QueryClient`, and
    ``stop()`` it.  Usable as a context manager.
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_signal: Optional[asyncio.Future] = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "runner not started"
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self, timeout: float = 10.0) -> "ServerRunner":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within the timeout")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        stop_signal = loop.create_future()
        self._stop_signal = stop_signal

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            await stop_signal
            await self.server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return

        def _signal() -> None:
            if not self._stop_signal.done():
                self._stop_signal.set_result(None)

        loop.call_soon_threadsafe(_signal)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerRunner":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
