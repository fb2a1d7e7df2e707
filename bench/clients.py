"""Load generation from one bench process.

* :func:`closed_loop` -- a reader that sends its next statement only
  after the previous reply arrived.
* :func:`open_loop` -- an appender that sends batches on a fixed
  schedule and times each from when it was due, so a stall shows up
  in the batches behind it; it also records how late it sent.
* :class:`Control` -- a separate connection for ``stats`` and a ``ping``
  watchdog.  A failed ping sets ``abort``: the load threads stop
  issuing, and a request stuck on a hung server ends at the client's
  per-request timeout as a counted failure.

Every operation becomes one :class:`Op`.  A reply's rows are digested
after its latency is taken, for the oracle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve import protocol
from repro.serve.client import QueryClient

from oracle import digest

#: Per-request socket timeout, seconds.
REQUEST_TIMEOUT = 30.0

#: Seconds between watchdog pings, and how long the control connection
#: (pings and ``stats``, answered on the server's event loop) may wait.
PING_PERIOD = 0.5
CONTROL_TIMEOUT = 10.0


@dataclass
class Op:
    """One operation the load generator attempted."""

    kind: str  # "read" or "append"
    text: str  # statement text; the batch index for appends
    sent: float  # perf_counter when sent (appends: when due)
    latency: float = 0.0
    ok: bool = False
    error: str = ""
    session: int = 0
    seq: int = 0  # n-th statement of its session, as the server counts
    version: int = -1
    row_count: int = 0
    rows: int = 0
    digest: str = ""
    decode: float = 0.0  # client decode seconds (traced windows only)
    lag: float = 0.0  # appends: how late the generator sent


class DecodeClock:
    """Times ``protocol.decode_body`` per thread while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._original: Optional[Callable[[bytes], Dict[str, Any]]] = None

    def install(self) -> None:
        original = self._original = protocol.decode_body
        local = self._local

        def decode_body(body: bytes) -> Dict[str, Any]:
            started = time.perf_counter()
            try:
                return original(body)
            finally:
                local.seconds = getattr(local, "seconds", 0.0) + (
                    time.perf_counter() - started
                )

        protocol.decode_body = decode_body

    def uninstall(self) -> None:
        if self._original is not None:
            protocol.decode_body = self._original
            self._original = None

    def take(self) -> float:
        """This thread's decode seconds since the last call."""
        seconds = getattr(self._local, "seconds", 0.0)
        self._local.seconds = 0.0
        return seconds


class _Connection:
    """A client connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.client: Optional[QueryClient] = None
        self.seq = 0

    def get(self) -> QueryClient:
        if self.client is None:
            self.client = QueryClient(self.host, self.port, timeout=REQUEST_TIMEOUT)
            self.seq = 0
        self.seq += 1
        return self.client

    def drop(self) -> None:
        if self.client is not None:
            self.client.kill()
            self.client = None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def closed_loop(
    host: str,
    port: int,
    next_text: Callable[[], str],
    stop_at: float,
    abort: threading.Event,
    ops: List[Op],
    decode: Optional[DecodeClock] = None,
) -> None:
    """Send statements back to back until ``stop_at``."""
    connection = _Connection(host, port)
    try:
        while time.perf_counter() < stop_at and not abort.is_set():
            text = next_text()
            op = Op("read", text, time.perf_counter())
            try:
                client = connection.get()
                op.session, op.seq = client.session_id, connection.seq
                if decode is not None:
                    decode.take()
                op.sent = time.perf_counter()
                reply = client.query(text)
                op.latency = time.perf_counter() - op.sent
            except Exception as error:  # every failure is a counted op
                op.error = f"{type(error).__name__}: {error}"
                connection.drop()
                time.sleep(0.05)
            else:
                op.ok = True
                op.decode = decode.take() if decode is not None else 0.0
                op.version, op.row_count = reply.pinned_version, reply.pinned_row_count
                op.rows = len(reply.rows)
                op.digest = digest(reply.rows)
                # Free the rows now, untimed: rebinding ``reply`` inside
                # the next request's timing would charge it the cost.
                del reply
            ops.append(op)
    finally:
        if abort.is_set():
            connection.drop()
        else:
            connection.close()


def open_loop(
    host: str,
    port: int,
    batches: Sequence[List[list]],
    first: int,
    rate: float,
    start_at: float,
    stop_at: float,
    abort: threading.Event,
    ops: List[Op],
) -> None:
    """Send batch ``first + k`` at ``start_at + k / rate`` until ``stop_at``."""
    connection = _Connection(host, port)
    try:
        for index in range(first, len(batches)):
            batch = batches[index]
            due = start_at + (index - first) / rate
            if due >= stop_at or abort.is_set():
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op = Op("append", str(index), due)
            try:
                client = connection.get()
                op.session, op.seq = client.session_id, connection.seq
                op.lag = time.perf_counter() - due
                op.version, op.row_count = client.append("employed", batch)
                op.latency = time.perf_counter() - due
                op.ok = True
            except Exception as error:  # every failure is a counted op
                op.error = f"{type(error).__name__}: {error}"
                connection.drop()
            ops.append(op)
    finally:
        if abort.is_set():
            connection.drop()
        else:
            connection.close()


class Control:
    """The bench's control connection: ``stats`` and a ping watchdog."""

    def __init__(self, host: str, port: int) -> None:
        self._client = QueryClient(host, port, timeout=CONTROL_TIMEOUT)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.abort = threading.Event()
        self.failure = ""
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return self._client.stats()

    def _watch(self) -> None:
        while not self._stop.wait(PING_PERIOD):
            try:
                with self._lock:
                    self._client.ping()
            except Exception as error:  # a dead or hung server
                self.failure = f"{type(error).__name__}: {error}"
                self.abort.set()
                return

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=CONTROL_TIMEOUT + 5.0)
        with self._lock:
            if self.abort.is_set():
                self._client.kill()
            else:
                self._client.close()


def run_threads(targets: List[Callable[[], None]], timeout: float) -> None:
    """Start one thread per target and join them all."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish in time")
