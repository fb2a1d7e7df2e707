"""Blocking client library for the query server.

:class:`QueryClient` speaks the frame protocol over one TCP
connection.  The high-level methods (:meth:`query`, :meth:`append`,
:meth:`stats`, :meth:`ping`) each send one request and block for its
reply; the low-level :meth:`send` / :meth:`recv` pair lets callers
pipeline many requests before reading any reply (how the overload
tests fill a session queue deterministically).

Server-side failures come back as typed exceptions:

* ``ServerOverloaded`` frames re-raise as the *real*
  :class:`~repro.exec.errors.ServerOverloaded`, carrying the server's
  ``retry_after_ms`` hint — client code backs off exactly as local
  engine code would.
* ``DeadlineExceeded`` frames re-raise as the real
  :class:`~repro.exec.errors.DeadlineExceeded`.
* Replication fencing frames (``StaleEpoch``, ``NotPrimary``,
  ``ReplicaLagExceeded``) re-raise as their real taxonomy types so
  failover-aware callers can branch without string matching.
* Everything else raises :class:`RemoteQueryError`, which keeps the
  remote type name, message, and recovery hint.

Connecting is retried: a refused, reset, or mid-handshake-dropped
connection is transient (a server restarting, a failover in
progress), so the constructor retries with the same deterministic
jittered backoff the shard supervisor uses
(:class:`~repro.exec.supervision.RetryPolicy`) and raises a typed
:class:`~repro.exec.errors.ServerUnavailable` only once the attempt
budget is spent.  Typed admission refusals (``ServerOverloaded``)
are *not* retried — the server was up and said no.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.errors import (
    DeadlineExceeded,
    NotPrimary,
    ReplicaLagExceeded,
    ServerOverloaded,
    ServerUnavailable,
    StaleEpoch,
    TemporalAggregateError,
)
from repro.exec.supervision import RetryPolicy
from repro.serve.protocol import ConnectionClosed, recv_frame, send_frame

__all__ = ["QueryClient", "QueryReply", "RemoteQueryError", "CONNECT_RETRY"]

#: Default connect-retry policy: three attempts, jittered exponential
#: backoff capped well below a human-noticeable stall.
CONNECT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.25)


class RemoteQueryError(TemporalAggregateError):
    """A server-side failure without a richer local type.

    ``remote_type`` is the server's exception class name; ``hint`` the
    recovery hint its shell would print.
    """

    def __init__(
        self,
        message: str,
        *,
        remote_type: str,
        hint: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.hint = hint


def raise_for_error(reply: Dict[str, Any]) -> Dict[str, Any]:
    """Pass an ``ok`` reply through; raise typed for an error frame."""
    if reply.get("ok"):
        return reply
    error = reply.get("error") or {}
    remote_type = str(error.get("type", "unknown"))
    message = str(error.get("message", "server error"))
    if remote_type == "ServerOverloaded":
        raise ServerOverloaded(
            message,
            retry_after_ms=int(error.get("retry_after_ms", 1)),
            reason=str(error.get("reason", "sessions")),
        )
    if remote_type == "DeadlineExceeded":
        raise DeadlineExceeded(
            message,
            deadline_ms=float(error.get("deadline_ms", 0.0) or 0.0),
            elapsed_ms=float(error.get("elapsed_ms", 0.0) or 0.0),
        )
    if remote_type == "StaleEpoch":
        raise StaleEpoch(
            message,
            epoch=int(error.get("epoch", 0)),
            observed_epoch=int(error.get("observed_epoch", 0)),
        )
    if remote_type == "NotPrimary":
        hint = error.get("primary_hint")
        raise NotPrimary(
            message,
            role=str(error.get("role", "replica")),
            primary_hint=None if hint is None else str(hint),
        )
    if remote_type == "ReplicaLagExceeded":
        raise ReplicaLagExceeded(
            message,
            token_version=int(error.get("token_version", 0)),
            applied_version=int(error.get("applied_version", 0)),
            retry_after_ms=int(error.get("retry_after_ms", 1)),
        )
    raise RemoteQueryError(
        message, remote_type=remote_type, hint=error.get("hint")
    )


@dataclass(frozen=True)
class QueryReply:
    """One successful query's result, as it crossed the wire."""

    columns: Tuple[str, ...]
    rows: List[tuple]
    pinned_table: str
    pinned_version: int
    pinned_row_count: int
    elapsed_ms: float
    #: Which role served this reply ("primary" or "replica") — trailing
    #: default so pre-replication callers keep constructing replies.
    role: str = "primary"

    def column(self, name: str) -> List[Any]:
        position = self.columns.index(name)
        return [row[position] for row in self.rows]


class QueryClient:
    """One blocking session against a query server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        policy = retry if retry is not None else CONNECT_RETRY
        endpoint = f"{host}:{port}"
        last: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                self._sock, hello = self._connect_once(host, port, timeout)
                break
            except (OSError, ConnectionClosed) as error:
                # Transient: the endpoint refused/reset, or dropped the
                # connection before the hello landed (a restart or a
                # failover in progress).  Back off and retry.
                last = error
                if attempt < policy.max_attempts:
                    time.sleep(policy.backoff(port, attempt))
        else:
            raise ServerUnavailable(
                f"no server at {endpoint} after "
                f"{policy.max_attempts} connect attempt(s): {last}",
                endpoint=endpoint,
                attempts=policy.max_attempts,
                cause=last,
            )
        self.session_id = int(hello["session"])
        self.tables = list(hello.get("tables", []))
        self.max_queue_depth = int(hello.get("max_queue_depth", 0))
        #: Replication handshake fields; pre-replication servers omit
        #: them and the defaults describe a standalone primary.
        self.role = str(hello.get("role", "primary"))
        self.epoch = int(hello.get("epoch", 0))
        #: Table name -> replication stream uid; the uid half of a read
        #: token, stable across every node serving that table.
        self.streams: Dict[str, str] = {
            str(name): str(uid)
            for name, uid in dict(hello.get("streams", {})).items()
        }
        #: The node's advertised serving endpoint ("host:port"), when it
        #: knows one — failover clients use it as a primary hint.
        self.endpoint = str(hello.get("endpoint", "") or "")

    @staticmethod
    def _connect_once(
        host: str, port: int, timeout: float
    ) -> Tuple[socket.socket, Dict[str, Any]]:
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            hello = raise_for_error(recv_frame(sock))
        except BaseException:
            # Admission refusal (or a dead server): surface the typed
            # error with the socket already cleaned up.
            sock.close()
            raise
        return sock, hello

    # ------------------------------------------------------------------
    # Low-level (pipelining)
    # ------------------------------------------------------------------

    def send(self, payload: Dict[str, Any]) -> None:
        """Send one raw request frame without waiting for its reply."""
        send_frame(self._sock, payload)

    def recv(self) -> Dict[str, Any]:
        """Read one raw reply frame (typed errors raise)."""
        return raise_for_error(recv_frame(self._sock))

    def recv_raw(self) -> Dict[str, Any]:
        """Read one raw reply frame without raising on error frames."""
        return recv_frame(self._sock)

    # ------------------------------------------------------------------
    # Request/reply operations
    # ------------------------------------------------------------------

    def query(
        self,
        text: str,
        *,
        token: Optional[Tuple[str, int]] = None,
    ) -> QueryReply:
        """Run one TSQL2-lite query against a pinned snapshot.

        ``token`` is an optional ``(stream_uid, version)`` read token:
        a replica that has not applied ``version`` for that stream yet
        refuses with a typed ``ReplicaLagExceeded`` instead of serving
        a stale snapshot (read-your-writes).
        """
        request: Dict[str, Any] = {"op": "query", "text": text}
        if token is not None:
            request["token"] = {"uid": token[0], "version": int(token[1])}
        self.send(request)
        reply = self.recv()
        pinned = reply.get("pinned", {})
        return QueryReply(
            columns=tuple(reply["columns"]),
            rows=[tuple(row) for row in reply["rows"]],
            pinned_table=str(pinned.get("table", "")),
            pinned_version=int(pinned.get("version", 0)),
            pinned_row_count=int(pinned.get("row_count", 0)),
            elapsed_ms=float(reply.get("elapsed_ms", 0.0)),
            role=str(reply.get("role", "primary")),
        )

    def append(
        self,
        table: str,
        rows: List[List[Any]],
        *,
        sid: Optional[str] = None,
    ) -> Tuple[int, int]:
        """Append one batch of ``[value..., start, end]`` rows.

        Returns the relation's ``(version, row_count)`` after the batch
        — the identity a serial reference replays against.  ``sid`` is
        an optional idempotent statement id: a retried append with the
        same ``sid`` is deduplicated server-side and acknowledged with
        the original ``(version, row_count)`` instead of applying
        twice.
        """
        request: Dict[str, Any] = {"op": "append", "table": table, "rows": rows}
        if sid is not None:
            request["sid"] = sid
        self.send(request)
        reply = self.recv()
        return int(reply["version"]), int(reply["row_count"])

    def stats(self) -> Dict[str, Any]:
        """The server's ``stats`` frame (admission, scheduler, cache)."""
        self.send({"op": "stats"})
        return self.recv()["stats"]

    def ping(self) -> float:
        """Round-trip one frame; returns the elapsed milliseconds."""
        started = time.perf_counter()
        self.send({"op": "ping"})
        self.recv()
        return (time.perf_counter() - started) * 1000.0

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Polite close: tell the server, then shut the socket."""
        try:
            self.send({"op": "close"})
            recv_frame(self._sock)
        except Exception:
            pass
        finally:
            self._sock.close()

    def kill(self) -> None:
        """Abrupt close with no goodbye — a crashed client.

        The swarm's mid-query kill: send a statement, then call this
        before reading the reply.
        """
        try:
            # linger on, timeout 0: close sends RST, not FIN.
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
