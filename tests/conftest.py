"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.analysis import invariants
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.workload.employed import employed_relation
from repro.workload.generator import WorkloadParameters, generate_relation


@pytest.fixture
def invariant_checks():
    """Force-enable the runtime invariant verifier for one test.

    Every engine evaluation inside the test runs the
    :mod:`repro.analysis.invariants` checks regardless of the
    ``REPRO_CHECK_INVARIANTS`` environment; afterwards the flag
    returns to whatever the environment says.
    """
    invariants.enable()
    try:
        yield
    finally:
        invariants.reset_to_env()


@pytest.fixture
def no_invariant_checks():
    """Force-disable the runtime invariant verifier for one test.

    For tests that document what running *without* the checks looks
    like, so they stay meaningful when the whole suite runs under
    ``REPRO_CHECK_INVARIANTS=1`` (the CI invariant jobs do).
    """
    invariants.disable()
    try:
        yield
    finally:
        invariants.reset_to_env()


@pytest.fixture
def employed() -> TemporalRelation:
    """A fresh copy of the paper's Employed relation."""
    return employed_relation()


@pytest.fixture
def small_random_relation() -> TemporalRelation:
    """A deterministic 200-tuple random relation (40% long-lived)."""
    return generate_relation(
        WorkloadParameters(tuples=200, long_lived_percent=40, seed=99)
    )


def random_triples(seed: int, n: int, max_instant: int = 100, values: bool = True):
    """Small random (start, end, value) lists for cross-checking."""
    rng = random.Random(seed)
    triples = []
    for _ in range(n):
        start = rng.randrange(max_instant)
        end = start + rng.randrange(max_instant // 4 + 1)
        value = rng.randrange(-50, 100) if values else None
        triples.append((start, end, value))
    return triples


def triples_relation(triples) -> TemporalRelation:
    """An identified Employed-schema relation holding ``triples`` as
    (start, end, salary), the input the resident pool sweeps."""
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="triples")
    relation.append_batch(
        [
            ((f"e{index}", value), start, end)
            for index, (start, end, value) in enumerate(triples)
        ]
    )
    return relation


@pytest.fixture
def started_pool():
    """The process-default resident pool (2 workers), started for one
    test and shut down after it."""
    from repro.exec import pool as pool_module

    pool = pool_module.default_pool(2)
    if pool is None:
        pytest.skip("the resident pool needs the fork start method")
    pool.start()
    try:
        yield pool
    finally:
        pool_module.shutdown_default_pool()


def tiny_relation(rows) -> TemporalRelation:
    """Build an Employed-schema relation from (name, salary, start, end)."""
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="tiny")
    for name, salary, start, end in rows:
        relation.insert((name, salary), start, end)
    return relation
