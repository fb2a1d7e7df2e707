"""Shared fixtures for the serving tests.

Every test gets a fresh process-default cache (the server's shared
cache is process-global) and starts and ends with no process-default
resident pool: a serial replay on the test's own thread may start one
once the server's threads are gone, and a later server must not
inherit it.  ``serve()`` spins up a real :class:`QueryServer` on a
dedicated event-loop thread for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import racecheck
from repro.cache.store import set_default_cache
from repro.exec.pool import shutdown_default_pool
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.serve import QueryServer, ServerConfig, ServerRunner


@pytest.fixture(autouse=True)
def _fresh_defaults():
    set_default_cache(None)
    shutdown_default_pool()
    yield
    set_default_cache(None)
    shutdown_default_pool()


@pytest.fixture(autouse=True)
def _race_checked():
    """Under ``REPRO_CHECK_RACES=1``, every serving test runs with the
    lockset tracker armed and fails if it recorded a candidate race."""
    if not racecheck.races_enabled():
        yield
        return
    racecheck.install_default()
    racecheck.clear_reports()
    yield
    racecheck.assert_no_races()


def make_relation(n: int = 64, name: str = "jobs") -> TemporalRelation:
    """A deterministic integer-valued relation (SUM/AVG stay exact).

    Built at version 0 (rows passed to the constructor, no mutations),
    which is what the swarm's serial-reference oracle replays against.
    """
    rows = [
        TemporalTuple(
            (f"p{i}", (i * 37) % 1000),
            (i * 7) % 97,
            (i * 7) % 97 + 5 + (i % 11),
        )
        for i in range(n)
    ]
    return TemporalRelation(EMPLOYED_SCHEMA, rows, name=name)


@contextmanager
def serve(relation=None, name: str = "jobs", **config_kwargs):
    """A running server (registered with one relation) for a with-block."""
    server = QueryServer(ServerConfig(**config_kwargs))
    if relation is None:
        relation = make_relation()
    server.register(relation, name=name)
    runner = ServerRunner(server)
    runner.start()
    try:
        yield runner
    finally:
        runner.stop()
