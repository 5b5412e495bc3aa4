"""Tests for the reads-from saturation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.common.hb import build_sync_order, conflicting_pairs
from repro.analyses.common.saturation import (
    CycleDetected,
    SaturationEngine,
    WriteIndex,
)
from repro.analyses.race_prediction import RacePredictionAnalysis
from repro.core import IncrementalCSST, make_partial_order
from repro.core.instrumented import InstrumentedOrder
from repro.trace import Trace
from repro.trace.generators import build_trace


def _simple_rf_trace():
    """w(x) in thread 0, competing w(x) in thread 2, read in thread 1."""
    trace = Trace(name="rf")
    writer = trace.write(0, "x", value=1)
    competitor = trace.write(2, "x", value=2)
    reader = trace.read(1, "x", value=1)
    return trace, writer, competitor, reader


class TestAddOrdering:
    def test_adds_cross_thread_edge(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        assert engine.add_ordering(writer, reader)
        assert order.reachable(writer.node, reader.node)

    def test_implied_ordering_not_reinserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        engine.add_ordering(writer, reader)
        assert not engine.add_ordering(writer, reader)

    def test_program_order_is_implicit(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.read(0, "x", value=1)
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        assert not engine.add_ordering(first, second)

    def test_reverse_program_order_is_a_cycle(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.write(0, "x", value=2)
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        with pytest.raises(CycleDetected):
            engine.add_ordering(second, first)

    def test_cycle_across_threads_detected(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        engine.add_ordering(writer, reader)
        with pytest.raises(CycleDetected):
            engine.add_ordering(reader, writer)


class TestSaturate:
    def test_reads_from_edge_inserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        inserted = engine.saturate({reader: writer})
        assert inserted >= 1
        assert order.reachable(writer.node, reader.node)

    def test_competing_write_before_read_forced_before_writer(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        # Force the competitor before the read first.
        order.insert_edge(competitor.node, reader.node)
        engine = SaturationEngine(order, trace.writes_by_variable())
        engine.saturate({reader: writer})
        assert order.reachable(competitor.node, writer.node)

    def test_writer_before_competitor_forces_read_before_competitor(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        order.insert_edge(writer.node, competitor.node)
        engine = SaturationEngine(order, trace.writes_by_variable())
        engine.saturate({reader: writer})
        assert order.reachable(reader.node, competitor.node)

    def test_saturate_reaches_fixed_point(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        order.insert_edge(writer.node, competitor.node)
        engine = SaturationEngine(order, trace.writes_by_variable())
        engine.saturate({reader: writer})
        # A second saturation must not add anything new.
        assert engine.saturate({reader: writer}) == 0

    def test_reads_without_writer_are_skipped(self):
        trace = Trace()
        reader = trace.read(0, "x")
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(order, trace.writes_by_variable())
        assert engine.saturate({reader: None}) == 0

    def test_infeasible_assignment_raises(self):
        trace = Trace(name="infeasible")
        writer = trace.write(0, "x", value=1)
        reader = trace.read(1, "x", value=1)
        order = IncrementalCSST(2, 4)
        order.insert_edge(reader.node, writer.node)   # read forced before writer
        engine = SaturationEngine(order, trace.writes_by_variable())
        with pytest.raises(CycleDetected):
            engine.saturate({reader: writer})


class TestWriteIndex:
    def test_groups_writes_by_chain_in_index_order(self):
        trace = Trace()
        first = trace.write(1, "x", value=1)
        trace.read(0, "x")
        second = trace.write(0, "x", value=2)
        third = trace.write(1, "x", value=3)
        index = WriteIndex(trace.writes_by_variable())
        assert index.chains("x") == [
            (0, [second.index], [second]),
            (1, [first.index, third.index], [first, third]),
        ]

    def test_unknown_variable_has_no_chains(self):
        assert WriteIndex({}).chains("x") == []


# ---------------------------------------------------------------------- #
# Reference: the per-competitor rules, one scan over every write per read
# ---------------------------------------------------------------------- #
def _reaches(order, source, target):
    if source.thread == target.thread:
        return source.index <= target.index
    return order.reachable(source.node, target.node)


def _reference_round(order, writes_by_variable, reads_from):
    """One pass of the saturation rules applied to every competing write;
    returns the number of orderings inserted."""
    engine = SaturationEngine(order, {})
    inserted = 0
    for read, write in sorted(
        (item for item in reads_from.items() if item[1] is not None),
        key=lambda item: (str(item[0].variable), item[0].thread, item[0].index),
    ):
        inserted += engine.add_ordering(write, read)
        for competitor in writes_by_variable.get(read.variable, ()):
            if competitor.node == write.node:
                continue
            if _reaches(order, competitor, read) and not _reaches(order, competitor, write):
                inserted += engine.add_ordering(competitor, write)
            if _reaches(order, write, competitor) and not _reaches(order, read, competitor):
                inserted += engine.add_ordering(read, competitor)
    return inserted


def _reference_saturate(order, writes_by_variable, reads_from):
    while _reference_round(order, writes_by_variable, reads_from):
        pass


def _reference_witness(analysis, trace, order, first, second, reads_from,
                       writes_by_variable):
    """The witness check scanning every write of each cone read's variable."""
    cone = analysis._cone(trace, order, first, second)
    for thread, limit in cone.items():
        window_start = max(0, limit + 1 - analysis._witness_window)
        for event in trace.thread_events(thread)[window_start : limit + 1]:
            if not event.is_read or event is first or event is second:
                continue
            writer = reads_from.get(event)
            if writer is None:
                continue
            if not analysis._inside_cone(cone, writer):
                return False
            for competitor in writes_by_variable.get(event.variable, ()):
                if competitor is writer or not analysis._inside_cone(cone, competitor):
                    continue
                if (order.reachable(writer.node, competitor.node)
                        and order.reachable(competitor.node, event.node)):
                    return False
    return True


#: Trace kinds whose analyses saturate, with whether their sync order keeps
#: the observed lock order (deadlock prediction drops it).
SATURATING_KINDS = {"racy": True, "deadlock": False, "memory": True,
                    "locked-mix": True}


def _closed_order(kind, backend, trace):
    order = make_partial_order(backend, trace.num_threads,
                               capacity_hint=max(trace.max_thread_length, 1))
    build_sync_order(trace, order, include_locks=SATURATING_KINDS[kind])
    return order


trace_shapes = st.tuples(
    st.sampled_from(sorted(SATURATING_KINDS)),
    st.sampled_from(["incremental-csst", "csst", "vc"]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)


class TestFixedPointOracle:
    @settings(max_examples=40, deadline=None)
    @given(shape=trace_shapes)
    def test_saturation_matches_per_competitor_rules(self, shape):
        kind, backend, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        writes, reads_from = trace.writes_by_variable(), trace.reads_from()
        order = _closed_order(kind, backend, trace)
        SaturationEngine(order, writes).saturate(reads_from)
        # The per-competitor rules find nothing left to force ...
        assert _reference_round(order, writes, reads_from) == 0
        # ... and the order is the reference fixed point, chain by chain.
        reference = _closed_order(kind, backend, trace)
        _reference_saturate(reference, writes, reads_from)
        for event in trace:
            for chain in range(trace.num_threads):
                assert (order.successor(event.node, chain)
                        == reference.successor(event.node, chain)), (event, chain)

    @settings(max_examples=40, deadline=None)
    @given(shape=trace_shapes)
    def test_witness_check_matches_write_scan(self, shape):
        kind, backend, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        writes, reads_from = trace.writes_by_variable(), trace.reads_from()
        order = _closed_order(kind, backend, trace)
        engine = SaturationEngine(order, writes)
        engine.saturate(reads_from)
        analysis = RacePredictionAnalysis(backend)
        for first, second in conflicting_pairs(trace, same_variable_window=25):
            expected = _reference_witness(analysis, trace, order, first, second,
                                          reads_from, writes)
            assert analysis._witness_feasible(
                trace, order, first, second, reads_from, engine.write_index,
            ) == expected, (first, second)


class TestQueryCount:
    @staticmethod
    def _saturation_queries(num_writes):
        """Queries ``saturate()`` issues for one read of ``x`` against
        ``num_writes`` lock-protected writes of ``x`` on three threads."""
        trace = Trace()
        for position in range(num_writes):
            thread = position % 3
            trace.acquire(thread, "l")
            trace.write(thread, "x", value=position)
            trace.release(thread, "l")
        trace.acquire(3, "l")
        trace.read(3, "x", value=num_writes - 1)
        trace.release(3, "l")
        order = InstrumentedOrder(make_partial_order(
            "incremental-csst", 4, capacity_hint=trace.max_thread_length))
        build_sync_order(trace, order)
        before = order.query_count
        SaturationEngine(order, trace.writes_by_variable()).saturate(
            trace.reads_from())
        return order.query_count - before

    def test_queries_per_read_do_not_grow_with_write_count(self):
        assert self._saturation_queries(50) == self._saturation_queries(500)
