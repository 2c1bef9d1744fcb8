"""Retry with capped exponential backoff under a deadline."""

import pytest

from repro.exceptions import ResilienceError
from repro.resilience import (
    RetryExhaustedError,
    RetryPolicy,
    VirtualClock,
    retry_call,
)


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"boom {self.calls}")
        return "ok"


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        clock = VirtualClock()
        flaky = Flaky(2)
        result = retry_call(
            flaky,
            RetryPolicy(attempts=3),
            clock=clock.now,
            sleep=clock.sleep,
        )
        assert result == "ok"
        assert flaky.calls == 3

    def test_exhaustion_raises_with_cause(self):
        clock = VirtualClock()
        flaky = Flaky(10)
        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_call(
                flaky,
                RetryPolicy(attempts=3),
                clock=clock.now,
                sleep=clock.sleep,
            )
        assert flaky.calls == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "boom 3" in str(excinfo.value.__cause__)

    def test_backoff_sequence_is_geometric_and_capped(self):
        sleeps = []
        clock = VirtualClock()

        def sleep(seconds):
            sleeps.append(seconds)
            clock.sleep(seconds)

        with pytest.raises(RetryExhaustedError):
            retry_call(
                Flaky(10),
                RetryPolicy(
                    attempts=5,
                    base_delay=0.1,
                    multiplier=2.0,
                    max_delay=0.5,
                    deadline=None,
                ),
                clock=clock.now,
                sleep=sleep,
            )
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_deadline_cuts_the_sequence_short(self):
        clock = VirtualClock()
        flaky = Flaky(10)
        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_call(
                flaky,
                RetryPolicy(
                    attempts=100,
                    base_delay=0.5,
                    multiplier=1.0,
                    max_delay=0.5,
                    deadline=1.2,
                ),
                clock=clock.now,
                sleep=clock.sleep,
            )
        # 0.5s before each retry: two sleeps fit under 1.2s, the third
        # would overshoot — three attempts total.
        assert flaky.calls == 3
        assert "deadline" in str(excinfo.value)

    def test_on_retry_fires_per_retry_not_per_attempt(self):
        clock = VirtualClock()
        retries = []
        retry_call(
            Flaky(2),
            RetryPolicy(attempts=5),
            clock=clock.now,
            sleep=clock.sleep,
            on_retry=lambda: retries.append(1),
        )
        assert len(retries) == 2

    def test_first_try_success_never_sleeps(self):
        def sleep(_):  # pragma: no cover - must not run
            raise AssertionError("slept on success")

        assert retry_call(lambda: 42, RetryPolicy(), sleep=sleep) == 42


class TestPolicyValidation:
    def test_attempts_must_be_positive(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(attempts=0)

    def test_multiplier_must_not_shrink(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(deadline=0.0)

    def test_delay_schedule(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=3.0, max_delay=0.05)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.03)
        assert policy.delay(2) == pytest.approx(0.05)  # capped
