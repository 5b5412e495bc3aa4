"""Statistics behind the benchmark's end-to-end metrics.

Pure functions over plain numbers, so they can be tested without running
the system: tail percentiles that refuse to report a tail the samples do
not support, the log-log scaling exponent, open-loop latency measured
from each event's due time, and the backlog rule that decides whether an
offered rate was sustained.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

#: A reported percentile must have at least this many samples beyond it.
MIN_TAIL = 10
#: Backlog growth, in seconds of events at the offered rate, that a rung
#: may show and still count as sustained.
BACKLOG_SLACK_SECONDS = 0.1


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the evidence behind it."""

    q: float  #: the percentile, 0 < q < 100
    value: float
    count: int  #: samples in the population
    beyond: int  #: samples strictly above the percentile's rank


def percentile(samples: Iterable[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than ``MIN_TAIL`` samples lie
    beyond the percentile's rank: such a tail is one or two outliers, not
    a percentile.  ``Percentile.count`` is the sample count to report.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {count} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL}); measure more")
    return Percentile(q=q, value=ordered[rank - 1], count=count,
                      beyond=beyond)


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``: the
    exponent ``k`` in ``time ~ size**k``."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    if min(sizes) <= 0 or min(times) <= 0:
        raise ValueError("sizes and times must be positive")
    xs = [math.log(size) for size in sizes]
    ys = [math.log(time) for time in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        raise ValueError("sizes must not all be equal")
    return sum((x - mean_x) * (y - mean_y)
               for x, y in zip(xs, ys)) / variance


def due_latencies(arrivals: Iterable[Tuple[str, int, float]],
                  due: Mapping[str, Sequence[float]]) -> List[float]:
    """Latency of each arrival from the due time of the event it names.

    ``arrivals`` holds ``(tenant, position, arrival_time)`` with the
    1-based per-tenant position the finding reports; ``due[tenant][i]``
    is when event ``i + 1`` of that tenant was due to be sent.  Timing
    from the due time, not the send time, charges a stalled generator's
    wait to every event it delayed.
    """
    return [arrival - due[tenant][position - 1]
            for tenant, position, arrival in arrivals]


def backlog(due_times: Sequence[float], send_times: Sequence[float],
            rate: float) -> List[float]:
    """The generator backlog when each event was sent: how many events
    were due but not yet sent, i.e. the lateness times the rate."""
    return [max(0.0, sent - due) * rate
            for due, sent in zip(due_times, send_times)]


def backlog_grows(due_times: Sequence[float], send_times: Sequence[float],
                  rate: float) -> bool:
    """Whether the generator backlog grew over a rung.

    Compares the mean backlog over the last quarter of the events with
    the mean over the first quarter.  It grew when the difference exceeds
    ``BACKLOG_SLACK_SECONDS`` worth of events at ``rate``: above the
    sustainable rate the backlog climbs for as long as the rung lasts,
    while below it a stall leaves only a bump that the generator catches
    up on.
    """
    values = backlog(due_times, send_times, rate)
    if len(values) < 4:
        raise ValueError("need at least four events to judge a backlog")
    quarter = len(values) // 4
    head = statistics.fmean(values[:quarter])
    tail = statistics.fmean(values[-quarter:])
    return tail - head > BACKLOG_SLACK_SECONDS * rate


@dataclass(frozen=True)
class Rung:
    """The outcome of one offered rate of an open-loop ladder."""

    rate: float  #: offered events per second
    achieved: float  #: events sent per second of the rung's schedule
    p95_ms: float
    grows: bool  #: the generator backlog grew


def sustained_rate(rungs: Sequence[Rung], limit_ms: float) -> Optional[Rung]:
    """The highest-rate rung that met the p95 limit without a growing
    backlog, or ``None`` when no rung did."""
    met = [rung for rung in rungs
           if rung.p95_ms <= limit_ms and not rung.grows]
    return max(met, key=lambda rung: rung.rate) if met else None


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the steadiness measure the bounds are checked against)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)

