"""The structured error taxonomy and its backward compatibility."""

import pytest

from repro.core.interval import InvalidIntervalError
from repro.exec.errors import (
    BudgetExhausted,
    DeadlineExceeded,
    InvalidInput,
    ShardFailure,
    TemporalAggregateError,
)


class TestHierarchy:
    def test_all_failures_share_one_base(self):
        for exc_type in (ShardFailure, DeadlineExceeded, BudgetExhausted, InvalidInput):
            assert issubclass(exc_type, TemporalAggregateError)

    def test_invalid_input_matches_legacy_catches(self):
        """Code written before the taxonomy catches ValueError or
        InvalidIntervalError; InvalidInput must satisfy both."""
        assert issubclass(InvalidInput, InvalidIntervalError)
        assert issubclass(InvalidInput, ValueError)

    def test_base_is_not_a_value_error(self):
        # Only the input subclass carries the legacy lineage; operational
        # failures (shard, deadline, budget) are not "bad values".
        assert not issubclass(ShardFailure, ValueError)
        assert not issubclass(DeadlineExceeded, ValueError)


class TestPayloads:
    def test_shard_failure_carries_context(self):
        cause = RuntimeError("boom")
        failure = ShardFailure(
            "shard 3 failed", shard=3, window=(10, 20), attempts=2, cause=cause
        )
        assert failure.shard == 3
        assert failure.window == (10, 20)
        assert failure.attempts == 2
        assert failure.cause is cause

    def test_deadline_exceeded_carries_progress(self):
        exc = DeadlineExceeded(
            "too slow",
            deadline_ms=50.0,
            elapsed_ms=61.2,
            progress={"tuples_consumed": 4096},
        )
        assert exc.deadline_ms == 50.0
        assert exc.elapsed_ms == pytest.approx(61.2)
        assert exc.progress["tuples_consumed"] == 4096

    def test_budget_exhausted_carries_needed_bytes(self):
        exc = BudgetExhausted("over budget", budget_bytes=1000, needed_bytes=1200)
        assert exc.budget_bytes == 1000
        assert exc.needed_bytes == 1200

    def test_one_catch_covers_everything(self):
        with pytest.raises(TemporalAggregateError):
            raise BudgetExhausted("x", budget_bytes=1, needed_bytes=2)
        with pytest.raises(TemporalAggregateError):
            raise InvalidInput("y")
