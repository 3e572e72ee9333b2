"""Unit tests for a rank's view of the communicator: the rank program
(:func:`~repro.sim.program.rank_program`) acting as its rank, its clock,
its call costs and its validation."""

import pytest

from repro.cluster import Machine
from repro.sim.engine import Engine
from repro.sim.program import rank_program
from repro.sim.tracing import TraceCollector


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=1, sockets_per_node=1, ranks_per_socket=4)


def clock_trace(engine, rank, ops, seen):
    """``ops`` with ``engine.rank_now[rank]`` recorded before each op is run."""
    for op in ops:
        seen.append(engine.rank_now[rank])
        yield op
    seen.append(engine.rank_now[rank])


class TestIntrospection:
    def test_size_and_rank(self, machine):
        trace = TraceCollector()
        engine = Engine(n_ranks=4, machine=machine, trace=trace)
        engine.spawn(2, rank_program(engine, 2, [("send", 1, 8, 0, ()), ("wait",)]))
        engine.spawn(1, rank_program(engine, 1, [("recv", 2, 0, 8), ("wait",)]))
        engine.run()
        # Each program posts as its rank, on a communicator of engine size.
        assert engine.n_ranks == 4
        assert [(r.src, r.dst) for r in trace.records] == [(2, 1)]
        assert set(engine.finish_times()) == {1, 2}

    def test_now_tracks_local_clock(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        half = machine.params.memcpy_beta // 2
        times = []
        engine.spawn(0, rank_program(
            engine, 0, clock_trace(engine, 0, [("charge", half), ("wait",)], times)
        ))
        engine.run()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.5)
        assert engine.finish_time(0) == times[-1]


class TestCallCosts:
    def test_posting_charges_overhead(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        overhead = machine.params.call_overhead
        times = []
        # Never completed (no wait); just the posting cost.
        ops = [("recv", 1, 99, 8)] * 10
        engine.spawn(0, rank_program(engine, 0, clock_trace(engine, 0, ops, times)))
        engine.run()
        assert times[-1] == pytest.approx(10 * overhead)

    def test_charge_memcpy_advances_clock(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        times = []
        ops = [("charge", machine.params.memcpy_beta)]  # exactly 1 second
        engine.spawn(0, rank_program(engine, 0, clock_trace(engine, 0, ops, times)))
        engine.run()
        assert times[-1] == pytest.approx(1.0)
        assert engine.finish_time(0) == times[-1]

    def test_memcpy_condition(self, machine):
        """A charge then a wait with nothing posted: the rank resumes once
        its clock has passed the memcpy, as a yielded memcpy did."""
        engine = Engine(n_ranks=4, machine=machine)
        times = []
        ops = [("charge", machine.params.memcpy_beta // 2), ("wait",)]
        engine.spawn(0, rank_program(engine, 0, clock_trace(engine, 0, ops, times)))
        engine.run()
        assert times[-1] == pytest.approx(0.5)
        assert engine.events_processed == 2  # the start, and the wake


class TestValidation:
    def test_negative_send_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        engine.spawn(0, rank_program(engine, 0, [("send", 1, -5, 0, ())]))
        with pytest.raises(ValueError, match="nbytes"):
            engine.run()

    def test_bad_source_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        engine.spawn(0, rank_program(engine, 0, [("recv", 17, 0, 8)]))
        with pytest.raises(ValueError, match="source rank"):
            engine.run()

    def test_negative_memcpy_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        engine.spawn(0, rank_program(engine, 0, [("charge", -1)]))
        with pytest.raises(ValueError, match=r"^nbytes must be >= 0, got -1$"):
            engine.run()
