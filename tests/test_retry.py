"""Unit tests for util.retry: schedules, fake-clock backoff, error routing.

No test here sleeps for real — the whole point of the injectable
``sleep``/``rng`` seams is that retry policies are verifiable as pure
schedules.
"""

import random

import pytest

from repro.util.errors import KernelError, ValidationError
from repro.util.retry import backoff_delays, with_retries


class FakeClock:
    """Records every requested sleep instead of waiting."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, value="ok", exc=ConnectionError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"transient #{self.calls}")
        return self.value


class TestBackoffDelays:
    def test_exponential_growth_without_jitter(self):
        assert backoff_delays(5, base_delay=1.0,
                              jitter=0.0) == [1.0, 2.0, 4.0, 8.0]

    def test_capped_at_max_delay(self):
        delays = backoff_delays(6, base_delay=3.0, jitter=0.0)
        assert delays == [3.0, 6.0, 8.0, 8.0, 8.0]

    def test_one_attempt_means_no_delays(self):
        assert backoff_delays(1) == []

    def test_jitter_stretches_within_ratio(self):
        rng = random.Random(7)
        delays = backoff_delays(40, base_delay=8.0, jitter=0.5, rng=rng)
        assert all(8.0 <= d <= 12.0 for d in delays)
        assert len(set(delays)) > 1  # actually jittered, not constant

    def test_deterministic_with_seeded_rng(self):
        a = backoff_delays(5, rng=random.Random(3))
        b = backoff_delays(5, rng=random.Random(3))
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            backoff_delays(0)
        with pytest.raises(ValidationError):
            backoff_delays(3, base_delay=-1.0)


class TestWithRetries:
    def test_success_first_try_never_sleeps(self):
        clock = FakeClock()
        assert with_retries(lambda: 42, sleep=clock.sleep) == 42
        assert clock.sleeps == []

    def test_retries_then_succeeds(self):
        clock = FakeClock()
        fn = Flaky(failures=2)
        result = with_retries(fn, attempts=4, base_delay=1.0, jitter=0.0,
                              retry_on=ConnectionError, sleep=clock.sleep)
        assert result == "ok"
        assert fn.calls == 3
        assert clock.sleeps == [1.0, 2.0]  # exponential, one per failure

    def test_budget_exhausted_reraises_last_error(self):
        clock = FakeClock()
        fn = Flaky(failures=10)
        with pytest.raises(ConnectionError, match="transient #3"):
            with_retries(fn, attempts=3, base_delay=0.5, jitter=0.0,
                         retry_on=ConnectionError, sleep=clock.sleep)
        assert fn.calls == 3
        assert clock.sleeps == [0.5, 1.0]  # no sleep after the final failure

    def test_non_matching_exception_propagates_immediately(self):
        clock = FakeClock()
        fn = Flaky(failures=5, exc=KernelError)
        with pytest.raises(KernelError):
            with_retries(fn, attempts=5, retry_on=ConnectionError,
                         sleep=clock.sleep)
        assert fn.calls == 1
        assert clock.sleeps == []

    def test_attempts_one_is_plain_call(self):
        clock = FakeClock()
        fn = Flaky(failures=1)
        with pytest.raises(ConnectionError):
            with_retries(fn, attempts=1, retry_on=ConnectionError,
                         sleep=clock.sleep)
        assert fn.calls == 1
        assert clock.sleeps == []

    def test_on_retry_sees_each_failure_and_delay(self):
        clock = FakeClock()
        seen = []
        fn = Flaky(failures=2)
        with_retries(fn, attempts=3, base_delay=1.0, jitter=0.0,
                     retry_on=ConnectionError, sleep=clock.sleep,
                     on_retry=lambda exc, attempt, delay:
                     seen.append((str(exc), attempt, delay)))
        assert seen == [("transient #1", 1, 1.0), ("transient #2", 2, 2.0)]

    def test_jittered_schedule_deterministic_with_rng(self):
        sleeps = []
        for _ in range(2):
            clock = FakeClock()
            with pytest.raises(ConnectionError):
                with_retries(Flaky(failures=9), attempts=4,
                             retry_on=ConnectionError, sleep=clock.sleep,
                             rng=random.Random(11))
            sleeps.append(clock.sleeps)
        assert sleeps[0] == sleeps[1]
        assert len(sleeps[0]) == 3
