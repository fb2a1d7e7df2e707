"""Admission controller unit tests: the session, queue and load bounds."""

from __future__ import annotations

import pytest

from repro.exec.errors import ServerOverloaded
from repro.serve.admission import AdmissionController
from repro.serve.config import ServerConfig


def controller(**kwargs):
    config_kwargs = dict(
        workers=4,
        max_sessions=2,
        max_queue_depth=2,
        reject_load=3.0,
        retry_after_ms=40,
    )
    config_kwargs.update(kwargs)
    return AdmissionController(ServerConfig(**config_kwargs))


class TestSessionBounds:
    def test_admits_up_to_the_limit_then_refuses_typed(self):
        admission = controller(max_sessions=2)
        admission.admit_session()
        admission.admit_session()
        with pytest.raises(ServerOverloaded) as info:
            admission.admit_session()
        assert info.value.reason == "sessions"
        assert info.value.retry_after_ms == 40

    def test_release_frees_a_slot(self):
        admission = controller(max_sessions=1)
        admission.admit_session()
        admission.release_session()
        admission.admit_session()  # no raise

    def test_rejections_are_tallied(self):
        admission = controller(max_sessions=1)
        admission.admit_session()
        with pytest.raises(ServerOverloaded):
            admission.admit_session()
        snapshot = admission.snapshot()
        assert snapshot["sessions_admitted"] == 1
        assert snapshot["sessions_rejected"] == 1


class TestQueueDepth:
    def test_full_session_queue_refuses_with_reason_queue(self):
        admission = controller(max_queue_depth=2)
        with pytest.raises(ServerOverloaded) as info:
            admission.admit_statement(queued_depth=2)
        assert info.value.reason == "queue"

    def test_below_the_depth_admits(self):
        admission = controller(max_queue_depth=2)
        admission.admit_statement(1)  # no raise
        assert admission.snapshot()["outstanding_statements"] == 1


class TestLoadBound:
    def test_admits_below_reject_load(self):
        # workers=4, reject_load=3.0: statement k is judged at load
        # (k+1)/4, so the first eleven (up to 2.75) are all admitted.
        admission = controller(workers=4, max_queue_depth=100)
        for _ in range(11):
            admission.admit_statement(0)
        snapshot = admission.snapshot()
        assert snapshot["outstanding_statements"] == 11
        assert snapshot["load"] == 2.75
        assert snapshot["statements_rejected_overload"] == 0

    def test_refuses_at_reject_load(self):
        admission = controller(workers=1, reject_load=3.0, max_queue_depth=100)
        # statement k judged at (k+1)/1: 1.0 and 2.0 admitted, 3.0 refused.
        admission.admit_statement(0)
        admission.admit_statement(0)
        with pytest.raises(ServerOverloaded) as info:
            admission.admit_statement(0)
        assert info.value.reason == "overload"
        assert info.value.retry_after_ms == 40
        assert admission.snapshot()["outstanding_statements"] == 2

    def test_statement_done_frees_capacity(self):
        admission = controller(workers=1, max_queue_depth=100)
        admission.admit_statement(0)
        admission.admit_statement(0)
        with pytest.raises(ServerOverloaded):
            admission.admit_statement(0)
        admission.statement_done()
        admission.admit_statement(0)  # load 2.0 again: admitted
        assert admission.snapshot()["outstanding_statements"] == 2


class TestSnapshot:
    def test_snapshot_reports_load_outstanding_and_tallies(self):
        admission = controller(workers=4, max_queue_depth=2)
        admission.admit_statement(0)
        snapshot = admission.snapshot()
        assert snapshot["outstanding_statements"] == 1
        assert snapshot["load"] == 0.25
        assert snapshot["statements_admitted"] == 1
        with pytest.raises(ServerOverloaded):
            admission.admit_statement(queued_depth=2)
        full = controller(workers=1, reject_load=1.0)
        with pytest.raises(ServerOverloaded):
            full.admit_statement(0)
        assert admission.snapshot()["statements_rejected_queue"] == 1
        assert admission.snapshot()["statements_rejected_overload"] == 0
        assert full.snapshot()["statements_rejected_overload"] == 1
        assert full.snapshot()["statements_admitted"] == 0
        assert full.snapshot()["load"] == 0.0
