"""Shared fixtures for the replication tests.

``replicated_pair`` starts a real primary + replica, each a
:class:`~repro.replicate.node.ReplicationNode` on its own
:class:`~repro.serve.server.ServerRunner` event-loop thread, wired
over real sockets — every test in this package exercises the actual
frame protocol, not mocks.  Same cache/race hygiene as the serving
suite.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

import pytest

from repro.analysis import racecheck
from repro.cache.store import set_default_cache
from repro.relation.schema import EMPLOYED_SCHEMA, Schema
from repro.serve.config import ServerConfig
from repro.serve.server import ServerRunner
from repro.replicate.node import ReplicationNode, TableSpec


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    set_default_cache(None)
    yield
    set_default_cache(None)


@pytest.fixture(autouse=True)
def _race_checked():
    if not racecheck.races_enabled():
        yield
        return
    racecheck.install_default()
    racecheck.clear_reports()
    yield
    racecheck.assert_no_races()


def jobs_spec(
    directory: str, name: str = "jobs", schema: Schema = EMPLOYED_SCHEMA
) -> TableSpec:
    return TableSpec(
        name=name,
        schema=schema,
        path=os.path.join(directory, f"{name}.heap"),
    )


def make_node(
    directory: str,
    *,
    role: str = "primary",
    peers: List[str] = (),
    lease_ms: Optional[float] = None,
    heartbeat_ms: float = 50.0,
    workers: int = 2,
    repl_secret: Optional[str] = None,
    schema: Schema = EMPLOYED_SCHEMA,
) -> ReplicationNode:
    return ReplicationNode(
        ServerConfig(port=0, role=role, workers=workers),
        tables=[jobs_spec(directory, schema=schema)],
        peers=list(peers),
        lease_ms=lease_ms,
        heartbeat_ms=heartbeat_ms,
        fsync_policy="commit",
        repl_secret=repl_secret,
    )


@dataclass
class Pair:
    """One running primary + replica with their endpoints."""

    primary: ReplicationNode
    replica: ReplicationNode
    primary_runner: ServerRunner
    replica_runner: ServerRunner

    @property
    def primary_endpoint(self) -> str:
        return f"{self.primary_runner.host}:{self.primary_runner.port}"

    @property
    def replica_endpoint(self) -> str:
        return f"{self.replica_runner.host}:{self.replica_runner.port}"

    @property
    def endpoints(self) -> List[str]:
        return [self.primary_endpoint, self.replica_endpoint]


@contextmanager
def replicated_pair(
    tmp_path,
    *,
    lease_ms: Optional[float] = None,
    heartbeat_ms: float = 50.0,
    schema: Schema = EMPLOYED_SCHEMA,
) -> Iterator[Pair]:
    """A live primary shipping to a live replica, torn down after."""
    replica = make_node(
        str(tmp_path / "replica"),
        role="replica",
        lease_ms=lease_ms,
        heartbeat_ms=heartbeat_ms,
        schema=schema,
    )
    replica_runner = ServerRunner(replica).start()
    primary = make_node(
        str(tmp_path / "primary"),
        role="primary",
        peers=[f"{replica_runner.host}:{replica_runner.port}"],
        heartbeat_ms=heartbeat_ms,
        schema=schema,
    )
    primary_runner = ServerRunner(primary).start()
    try:
        yield Pair(primary, replica, primary_runner, replica_runner)
    finally:
        primary_runner.stop()
        replica_runner.stop()
