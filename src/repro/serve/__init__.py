"""Concurrent multi-client query serving.

This package puts the evaluation engine behind a socket: an asyncio
front end accepts many simultaneous TSQL2-lite sessions, admission
control bounds how much work the process takes on, a fair round-robin
scheduler spreads admitted statements across a worker pool, and every
reader evaluates against a pinned snapshot of its relation so appends
from other sessions never tear a result.

Layering (each module only looks down):

* :mod:`repro.serve.protocol` — length-prefixed JSON frames, the whole
  wire format.
* :mod:`repro.serve.config` — :class:`ServerConfig`, every knob in one
  frozen dataclass.
* :mod:`repro.serve.admission` — the session, per-session queue and
  load bounds; a statement past a bound is refused with a typed
  ``ServerOverloaded`` carrying a retry-after hint.
* :mod:`repro.serve.snapshots` — :class:`SnapshotView` prefix snapshots
  and :class:`ServedRelation`, the locked append point.
* :mod:`repro.serve.scheduler` — :class:`FairScheduler`, round-robin
  over sessions onto a thread pool, at most one in-flight statement per
  session (which is what keeps per-session replies ordered).
* :mod:`repro.serve.session` / :mod:`repro.serve.server` — connection
  state and :class:`QueryServer` itself.
* :mod:`repro.serve.client` — the blocking client library.
* :mod:`repro.serve.swarm` — the deterministic multi-client harness the
  acceptance tests and the serving benchmark drive.

``python -m repro.serve --seed`` starts a server on the paper's
Employed relation.
"""

from repro.exec.errors import ServerOverloaded
from repro.serve.client import QueryClient, QueryReply, RemoteQueryError
from repro.serve.config import ServerConfig
from repro.serve.protocol import ConnectionClosed, FrameError, MAX_FRAME_BYTES
from repro.serve.server import QueryServer, ServerRunner
from repro.serve.snapshots import ServedRelation, SnapshotView
from repro.serve.swarm import ClientReport, SwarmStep, run_swarm, serial_reference

__all__ = [
    "ClientReport",
    "ConnectionClosed",
    "FrameError",
    "MAX_FRAME_BYTES",
    "QueryClient",
    "QueryReply",
    "QueryServer",
    "RemoteQueryError",
    "ServedRelation",
    "ServerConfig",
    "ServerOverloaded",
    "ServerRunner",
    "SnapshotView",
    "SwarmStep",
    "run_swarm",
    "serial_reference",
]
