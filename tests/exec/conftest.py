"""Execution-layer test hooks."""

from __future__ import annotations

import pytest

from repro.analysis import racecheck


@pytest.fixture(autouse=True)
def _race_checked():
    """Under ``REPRO_CHECK_RACES=1``, execution tests (the resident
    pool's among them) run with the lockset tracker armed and fail on
    any recorded candidate race."""
    if not racecheck.races_enabled():
        yield
        return
    racecheck.install_default()
    racecheck.clear_reports()
    yield
    racecheck.assert_no_races()
