"""Percentiles, quartiles and the ``compare`` verdict rule.

Percentiles other than the median follow the "at least ten samples beyond"
rule, on either tail: p99 and p1 need 1000 samples, p90 and p10 need 100.
:func:`percentile` refuses a percentile the sample cannot support instead
of quietly reporting the maximum or the minimum.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

MIN_BEYOND = 10
"""Samples that must lie beyond a reported tail percentile."""

WIN_SHARE = 0.9
"""Share of paired runs a change must win to claim an improvement."""


class Metric(NamedTuple):
    """One reported number, with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``.

    Raises ``ValueError`` for an empty sample, and for any ``q`` but 50
    with fewer than :data:`MIN_BEYOND` samples beyond it on its side.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < q < 100:
        raise ValueError(f"p{q:g}: the extremes are no percentile")
    side = min(q, 100 - q)
    if q != 50 and math.floor(n * side / 100) < MIN_BEYOND:
        need = math.ceil(MIN_BEYOND * 100 / side)
        raise ValueError(
            f"p{q:g} needs at least {need} samples ({MIN_BEYOND} beyond it); "
            f"got {n}")
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


FAST_Q = 10
"""The fast decile: the percentile :func:`fast_factor` takes where the
sample supports it."""


def fast_factor(groups) -> float:
    """The host's fast-state speed relative to its median state in one run.

    ``groups`` holds the durations of repeated steps, one group per kind
    of step. Each duration is divided by its group's median and the
    factor is the :data:`FAST_Q` percentile of the pooled ratios -- with
    fewer than 100 steps, the lowest percentile that still has
    :data:`MIN_BEYOND` steps beyond it (the median below 20 steps).
    Multiplying a median measured in the same run by the factor gives that
    time in the fast state, as long as a tenth of the run had it.
    """
    ratios = []
    for group in groups:
        group = list(group)
        if group:
            mid = percentile(group, 50)
            ratios += [x / mid for x in group]
    if not ratios:
        raise ValueError("fast factor of no steps")
    q = max(FAST_Q, math.ceil(1000 * MIN_BEYOND / len(ratios)) / 10)
    return percentile(ratios, min(q, 50))


def tail(values) -> tuple[str, float] | None:
    """The highest of p99 and p90 the sample supports, as (label, value)."""
    for q in (99, 90):
        try:
            return f"p{q}", percentile(values, q)
        except ValueError:
            continue
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare two sets of runs of one (metric, workload).

    ``parent`` and ``change`` are run values in run order; runs are paired
    by position. The change *improved* when it wins at least
    :data:`WIN_SHARE` of the pairs (ties count for neither side) and the
    medians differ by more than the parent's interquartile range. It
    *regressed* when its median is worse than the parent's by more than
    ``bound`` (a share of the parent's median). When the parent's own
    spread exceeds the bound and no other verdict is certain, the outcome
    is *unresolved* -- unless every run of the change beats every run of
    the parent, which rules a regression out.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med)          # > 0: the change is better
    rel_worse = -gain / abs(p_med) if p_med else 0.0
    spread = iqr / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_share >= WIN_SHARE and gain > iqr:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif rel_worse > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(pairs), "outcome": outcome,
    }
