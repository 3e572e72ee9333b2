"""Unit tests for the trace collector."""

import pytest

from repro.cluster import Machine
from repro.cluster.spec import LinkClass
from repro.sim.engine import Engine
from repro.sim.program import rank_program
from repro.sim.tracing import TraceCollector


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def run_all_to_one(machine, trace):
    engine = Engine(n_ranks=8, machine=machine, trace=trace)
    recvs = [("recv", src, 0, 128) for src in range(1, 8)]
    engine.spawn(0, rank_program(engine, 0, recvs + [("wait",)]))
    for r in range(1, 8):
        engine.spawn(r, rank_program(engine, r, [("send", 0, 128, 0, ()), ("wait",)]))
    engine.run()
    return engine


class TestTraceCollector:
    def test_counts_and_bytes(self, machine):
        trace = TraceCollector()
        run_all_to_one(machine, trace)
        assert trace.total_messages == 7
        assert trace.total_bytes == 7 * 128
        assert trace.sends_by_rank[1] == 1
        assert trace.recvs_by_rank[0] == 7

    def test_class_breakdown(self, machine):
        trace = TraceCollector()
        run_all_to_one(machine, trace)
        # rank 1 same socket; 2,3 same node other socket; 4..7 other node.
        assert trace.count_by_class[LinkClass.INTRA_SOCKET] == 1
        assert trace.count_by_class[LinkClass.INTER_SOCKET] == 2
        assert trace.count_by_class[LinkClass.INTER_NODE] == 4

    def test_off_socket_messages(self, machine):
        trace = TraceCollector()
        run_all_to_one(machine, trace)
        assert trace.off_socket_messages() == 6

    def test_records_kept_until_cap(self, machine):
        trace = TraceCollector(max_records=3)
        run_all_to_one(machine, trace)
        assert len(trace.records) == 3  # capped
        assert trace.total_messages == 7  # aggregates still complete

    def test_summary_shape(self, machine):
        trace = TraceCollector()
        run_all_to_one(machine, trace)
        summary = trace.summary()
        assert summary["INTER_NODE"]["messages"] == 4
        assert summary["INTER_NODE"]["bytes"] == 4 * 128
        assert summary["SELF"]["messages"] == 0

    def test_max_sends_per_rank(self, machine):
        trace = TraceCollector()
        run_all_to_one(machine, trace)
        assert trace.max_sends_per_rank() == 1
        assert TraceCollector().max_sends_per_rank() == 0
