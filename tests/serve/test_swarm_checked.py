"""Swarm acceptance under the runtime checkers.

Two belt-and-suspenders reruns of the mixed-swarm scenario:

* with the Eraser-style lockset tracker armed (the dynamic half of the
  concurrency pass) — the serving stack's locked classes must produce
  zero candidate races under real multi-client interleaving;
* with the runtime invariant verifier forced on — every engine
  evaluation inside the server re-proves the paper's partition
  invariants mid-swarm, and the replies still match the serial
  reference exactly.

Both run without the shard-fault/kill machinery of test_swarm.py: the
point here is maximum *shared-state* pressure with clean clients, so
any report is attributable to the locking discipline, not to teardown.
"""

from __future__ import annotations

import pytest

from repro.analysis import invariants, racecheck
from repro.serve import QueryClient
from repro.serve.swarm import SwarmStep, run_swarm, verify_swarm

from tests.serve.conftest import make_relation, serve
from tests.serve.test_swarm import (
    COUNT,
    appender_script,
    reader_script,
)


@pytest.fixture
def race_checks():
    """Force-arm the lockset tracker for one test (env restored after)."""
    racecheck.enable()
    racecheck.install_default()
    racecheck.clear_reports()
    try:
        yield
    finally:
        racecheck.clear_reports()
        racecheck.reset_to_env()


@pytest.fixture
def forced_invariant_checks():
    invariants.enable()
    try:
        yield
    finally:
        invariants.reset_to_env()


def swarm_scripts():
    return [
        reader_script(0),
        reader_script(1),
        reader_script(2),
        appender_script(3),
        appender_script(4),
        reader_script(5),
    ]


def run_checked_swarm():
    """Drive the swarm and verify every reply against the serial oracle."""
    n = 64
    with serve(
        make_relation(n), workers=4, max_sessions=32, reject_load=100.0,
    ) as runner:
        reports = run_swarm(runner.host, runner.port, swarm_scripts())
        with QueryClient(runner.host, runner.port) as client:
            assert client.query(COUNT).rows
    unexpected = [(r.client_id, r.errors) for r in reports if r.errors]
    assert not unexpected, f"swarm clients failed: {unexpected}"
    verified = verify_swarm(lambda: make_relation(n), reports, "jobs")
    # 4 readers x 3 queries + 2 appenders x 2 per-batch queries.
    assert verified >= 16
    return reports


class TestSwarmUnderRaceChecker:
    def test_swarm_is_race_free_and_matches_serial(self, race_checks):
        """The dynamic acceptance criterion: a full mixed swarm on the
        instrumented serving stack records zero candidate races, and
        the replies are still serially exact."""
        run_checked_swarm()
        reports = racecheck.race_reports()
        assert reports == [], "\n\n".join(r.render() for r in reports)
        racecheck.assert_no_races()


class TestSwarmUnderInvariants:
    def test_swarm_with_invariants_on_matches_serial(
        self, forced_invariant_checks
    ):
        """REPRO_CHECK_INVARIANTS=1 equivalent: every evaluation the
        swarm triggers re-verifies the partition/space invariants (any
        violation raises server-side and would surface as a client
        error), and results still match the serial replay."""
        assert invariants.invariants_enabled()
        run_checked_swarm()
