"""Retry policy and supervision report behavior (no process pool needed)."""

import pytest

from repro.exec.supervision import RetryPolicy, SupervisionReport


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff(3, 2) == policy.backoff(3, 2)

    def test_backoff_grows_with_attempts(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=10.0, jitter=0.0)
        assert policy.backoff(0, 1) < policy.backoff(0, 2) < policy.backoff(0, 3)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=0.25)
        assert policy.backoff(0, 10) == 0.25

    def test_jitter_decorrelates_shards(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=1.0)
        delays = {policy.backoff(shard, 1) for shard in range(8)}
        assert len(delays) > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestSupervisionReport:
    def test_clean_run_is_not_degraded(self):
        assert not SupervisionReport(total_shards=4, pooled_shards=4).degraded

    @pytest.mark.parametrize(
        "field", ["retries", "respawns", "inprocess_shards"]
    )
    def test_any_recovery_marks_degraded(self, field):
        report = SupervisionReport(total_shards=4)
        setattr(report, field, 1)
        assert report.degraded
