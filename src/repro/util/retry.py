"""Bounded retry with exponential backoff: the fleet transport's safety net.

A worker talking to a sweep coordinator over HTTP sees transient faults —
connection refused while the coordinator restarts, a dropped socket, a
load spike timing a request out — that deserve another attempt, and
permanent faults (a digest rejection, an unknown lease) that never do.
:func:`with_retries` wraps the transient kind: it retries a callable a
bounded number of times with exponentially growing, jittered delays, and
re-raises the last failure once the budget is spent.

Everything time-related is injectable (``sleep`` and the jitter ``rng``),
so callers can test retry schedules with a fake clock instead of real
sleeps — and future transports (queues, serial links) can reuse the same
policy object.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable

from repro.util.errors import ValidationError

MAX_DELAY_S = 8.0
"""Cap on one backoff delay, before jitter."""


def backoff_delays(
    attempts: int,
    *,
    base_delay: float = 0.25,
    jitter: float = 0.5,
    rng: random.Random | None = None,
) -> list[float]:
    """The delay schedule ``with_retries`` sleeps between attempts.

    Delay ``i`` (after the ``i``-th failure, 0-based) is
    ``min(base_delay * 2**i, MAX_DELAY_S)`` stretched by a random factor in
    ``[1, 1 + jitter]`` — full-ratio jitter, so a fleet of workers that
    failed together does not retry in lockstep. ``attempts`` total calls
    means ``attempts - 1`` delays. Deterministic when ``rng`` is seeded;
    ``jitter=0`` removes randomness entirely.
    """
    if attempts < 1:
        raise ValidationError(f"attempts must be >= 1, got {attempts}")
    if base_delay < 0 or jitter < 0:
        raise ValidationError(
            "base_delay and jitter must both be >= 0, got "
            f"{base_delay}/{jitter}")
    rng = rng if rng is not None else random.Random()
    delays = []
    for i in range(attempts - 1):
        delay = min(base_delay * (2.0 ** i), MAX_DELAY_S)
        delays.append(delay * (1.0 + jitter * rng.random()))
    return delays


def with_retries(
    fn: Callable,
    *,
    attempts: int = 4,
    base_delay: float = 0.25,
    jitter: float = 0.5,
    retry_on: type[BaseException] | tuple[type[BaseException], ...] = Exception,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    on_retry: Callable | None = None,
):
    """Call ``fn()`` up to ``attempts`` times, backing off between failures.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately (a protocol rejection must not be hammered).
    After the final attempt the last exception propagates unchanged, so
    callers see the real failure, not a retry wrapper.

    ``sleep`` and ``rng`` exist for tests and schedulers: pass a recording
    fake for ``sleep`` and a seeded :class:`random.Random` to make the
    whole schedule deterministic with no real waiting. ``on_retry(exc,
    attempt, delay)`` is called before each backoff sleep — transports use
    it to log what they are waiting out.
    """
    delays = backoff_delays(attempts, base_delay=base_delay, jitter=jitter,
                            rng=rng)
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on as exc:
            if attempt == attempts - 1:
                raise
            delay = delays[attempt]
            if on_retry is not None:
                on_retry(exc, attempt + 1, delay)
            sleep(delay)
