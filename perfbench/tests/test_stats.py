"""Tests of the benchmark's statistics helpers and metric table."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.run import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent.parent


# --------------------------------------------------------------------------- #
# Tail percentiles
# --------------------------------------------------------------------------- #
def test_percentile_is_nearest_rank_and_reports_its_evidence():
    samples = list(range(1, 201))  # 1..200
    p95 = stats.percentile(reversed(samples), 95)
    assert p95.value == 190
    assert (p95.count, p95.beyond) == (200, 10)
    p50 = stats.percentile(samples, 50)
    assert p50.value == 100 and p50.beyond == 100


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.percentile(range(199), 95)


@pytest.mark.parametrize("q", [0, 100, -1])
def test_percentile_rejects_out_of_range_q(q):
    with pytest.raises(ValueError):
        stats.percentile(range(1000), q)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --------------------------------------------------------------------------- #
# Log-log exponent
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("exponent", [1.0, 2.0, 2.3])
def test_loglog_slope_recovers_a_power_law(exponent):
    sizes = [1000, 2000, 4000]
    times = [3e-7 * size ** exponent for size in sizes]
    assert stats.loglog_slope(sizes, times) == pytest.approx(exponent)


def test_loglog_slope_is_the_least_squares_fit():
    # log2 times 0, 1, 3 over log2 sizes 0, 1, 2: slope 1.5.
    slope = stats.loglog_slope([1, 2, 4], [1, 2, 8])
    assert slope == pytest.approx(1.5)


@pytest.mark.parametrize("sizes,times", [
    ([1], [1.0]),                # one point
    ([1, 2], [1.0]),             # lengths differ
    ([2, 2], [1.0, 3.0]),        # no spread in size
    ([1, 2], [0.0, 1.0]),        # non-positive time
])
def test_loglog_slope_rejects_degenerate_input(sizes, times):
    with pytest.raises(ValueError):
        stats.loglog_slope(sizes, times)


# --------------------------------------------------------------------------- #
# Open-loop latency and backlog
# --------------------------------------------------------------------------- #
def test_due_latency_counts_from_the_named_event_due_time():
    due = {"a": [10.0, 10.5, 11.0], "b": [10.25]}
    arrivals = [("a", 3, 11.2), ("b", 1, 10.3), ("a", 1, 10.0)]
    assert stats.due_latencies(arrivals, due) == pytest.approx(
        [0.2, 0.05, 0.0])


def _schedule(rate, count, lateness):
    due = [index / rate for index in range(count)]
    return due, [when + lateness(index) for index, when in enumerate(due)]


def test_backlog_is_lateness_in_events():
    due, sent = _schedule(100.0, 4, lambda index: 0.05 * index)
    assert stats.backlog(due, sent, 100.0) == pytest.approx(
        [0.0, 5.0, 10.0, 15.0])


def test_backlog_steady_on_schedule():
    due, sent = _schedule(1000.0, 4000, lambda index: 0.0002)
    assert not stats.backlog_grows(due, sent, 1000.0)


def test_backlog_stall_that_catches_up_does_not_count_as_growth():
    # A 300 ms stall in the middle, caught up within 100 events.
    def lateness(index):
        return max(0.0, 0.3 - 0.003 * abs(index - 2000))
    due, sent = _schedule(1000.0, 4000, lateness)
    assert not stats.backlog_grows(due, sent, 1000.0)


def test_backlog_growing_without_bound_above_capacity():
    # Offered 3000/s, served 2000/s: each event is later than the last.
    due, sent = _schedule(3000.0, 6000,
                          lambda index: index / 2000.0 - index / 3000.0)
    assert stats.backlog_grows(due, sent, 3000.0)


def test_backlog_needs_a_few_events():
    with pytest.raises(ValueError):
        stats.backlog_grows([0.0, 1.0], [0.0, 1.0], 1.0)


def test_sustained_rate_is_the_highest_rung_meeting_both_rules():
    rungs = [stats.Rung(1000, 999.9, 120.0, False),
             stats.Rung(3000, 2999.1, 180.0, False),
             stats.Rung(6000, 5900.0, 420.0, True),    # backlog grows
             stats.Rung(9000, 8800.0, 900.0, False)]   # misses the limit
    assert stats.sustained_rate(rungs, 500.0).achieved == 2999.1
    assert stats.sustained_rate(rungs, 100.0) is None


def test_spread_is_interquartile_range_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 30.0]
    # statistics.quantiles (exclusive method): Q1 9.75, Q3 15.75.
    assert stats.spread(values) == pytest.approx((15.75 - 9.75) / 10.0)
    assert stats.spread([5.0] * 4) == 0.0


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with what run.py prints
# --------------------------------------------------------------------------- #
def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
