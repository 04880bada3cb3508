"""Unit tests for the deterministic retry/backoff primitives."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError, ReproError, RetryableError
from repro.util.retry import RetryPolicy, SimulatedClock


class TransientBoom(ClusterError, RetryableError):
    pass


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        clock.advance(0.25)
        assert clock.now == 1.75

    def test_rejects_negative_advance(self):
        with pytest.raises(ReproError):
            SimulatedClock().advance(-0.1)


class TestBackoffSchedule:
    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, multiplier=2.0, max_delay=1.0)
        assert list(policy.schedule()) == [
            (0, 0.0),
            (1, 0.01),
            (2, 0.02),
            (3, 0.04),
            (4, 0.08),
        ]

    def test_delay_is_capped_at_max_delay(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.5, multiplier=4.0, max_delay=2.0)
        assert policy.delay_before(1) == 0.5
        assert policy.delay_before(2) == 2.0
        assert policy.delay_before(9) == 2.0

    def test_total_backoff_sums_the_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0, max_delay=1.0)
        assert policy.total_backoff() == pytest.approx(0.01 + 0.02 + 0.04)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-1.0)


class TestRetryCall:
    def test_succeeds_after_transient_failures_and_charges_clock(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0)
        clock = SimulatedClock()
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise TransientBoom("not yet")
            return "ok"

        assert policy.call(flaky, clock=clock) == "ok"
        assert len(calls) == 3
        # two retries: 0.01 + 0.02 of backoff on the simulated clock
        assert clock.now == pytest.approx(0.03)

    def test_exhaustion_reraises_the_subsystem_type(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)
        clock = SimulatedClock()

        def always():
            raise TransientBoom("down")

        with pytest.raises(ClusterError):
            policy.call(always, clock=clock)
        assert clock.now == pytest.approx(0.01)

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01)
        clock = SimulatedClock()
        calls = []

        def fatal():
            calls.append(1)
            raise ClusterError("permanent")

        with pytest.raises(ClusterError):
            policy.call(fatal, clock=clock)
        assert len(calls) == 1
        assert clock.now == 0.0

    def test_on_retry_hook_sees_attempt_and_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        clock = SimulatedClock()
        seen = []

        def flaky():
            if len(seen) < 1:
                raise TransientBoom("first")
            return 42

        assert (
            policy.call(flaky, clock=clock, on_retry=lambda a, e: seen.append((a, e)))
            == 42
        )
        assert len(seen) == 1
        assert seen[0][0] == 1
        assert isinstance(seen[0][1], TransientBoom)


class TestRetryabilityPoles:
    """The two poles ownership fencing adds to the type-driven contract:
    partition drops are retryable (the link may heal), fencing verdicts
    are not (a stale epoch never becomes current again)."""

    def test_is_retryable_is_type_driven(self):
        from repro.errors import (
            DuplicateKeyError,
            FencedError,
            LeaseExpiredError,
            NetworkPartitionedError,
            SchemaError,
            TransferDroppedError,
        )
        from repro.util.retry import is_retryable

        assert is_retryable(NetworkPartitionedError("a", "b"))
        assert isinstance(NetworkPartitionedError("a", "b"), TransferDroppedError)
        assert not is_retryable(FencedError("stale"))
        assert not is_retryable(LeaseExpiredError("expired"))
        assert isinstance(LeaseExpiredError("expired"), FencedError)
        # a key a live row holds stays taken however often the insert is repeated
        assert not is_retryable(DuplicateKeyError("orders: key 7"))
        assert isinstance(DuplicateKeyError("orders: key 7"), SchemaError)

    def test_partition_drop_is_retried_with_backoff_then_raised(self):
        from repro.errors import NetworkPartitionedError

        policy = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0)
        clock = SimulatedClock()
        attempts = []
        retries = []

        def always_partitioned():
            attempts.append(len(attempts))
            raise NetworkPartitionedError("worker0", "coordinator")

        with pytest.raises(NetworkPartitionedError):
            policy.call(
                always_partitioned,
                clock=clock,
                on_retry=lambda n, exc: retries.append(n),
            )
        assert len(attempts) == 3
        assert retries == [1, 2]
        assert clock.now == pytest.approx(0.01 + 0.02)

    def test_fenced_error_punches_through_without_backoff(self):
        from repro.errors import FencedError

        policy = RetryPolicy(max_attempts=5, base_delay=0.01, multiplier=2.0)
        clock = SimulatedClock()
        attempts = []
        retries = []

        def fenced():
            attempts.append(len(attempts))
            raise FencedError("stale fence token")

        with pytest.raises(FencedError):
            policy.call(
                fenced, clock=clock, on_retry=lambda n, exc: retries.append(n)
            )
        assert len(attempts) == 1, "a fenced writer must not blind-retry"
        assert retries == []
        assert clock.now == 0.0

    def test_partition_heals_mid_schedule(self):
        from repro.errors import NetworkPartitionedError

        policy = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0)
        clock = SimulatedClock()
        state = {"calls": 0}

        def heals_after_two():
            state["calls"] += 1
            if state["calls"] <= 2:
                raise NetworkPartitionedError("a", "b")
            return "delivered"

        assert policy.call(heals_after_two, clock=clock) == "delivered"
        assert state["calls"] == 3
