"""Unit tests for the SimCommunicator API surface."""

import pytest

from repro.cluster import Machine
from repro.sim.communicator import SimCommunicator
from repro.sim.engine import Engine


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=1, sockets_per_node=1, ranks_per_socket=4)


class TestIntrospection:
    def test_size_and_rank(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        comm = SimCommunicator(engine, 2)
        assert comm.rank == 2
        assert comm.size == 4

    def test_now_tracks_local_clock(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        times = []

        def prog(comm):
            times.append(comm.now)
            yield comm.compute(0.5)
            times.append(comm.now)

        engine.spawn(0, prog)
        for r in range(1, 4):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert times[0] == 0.0
        assert times[1] == pytest.approx(0.5)


class TestCallCosts:
    def test_posting_charges_overhead(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        overhead = machine.params.call_overhead

        def prog(comm):
            for _ in range(10):
                comm.irecv(1, tag=99)  # never completed; just posting cost
            assert comm.now == pytest.approx(10 * overhead)
            if False:
                yield  # pragma: no cover

        engine.spawn(0, prog)
        for r in range(1, 4):
            engine.spawn(r, lambda comm: None)
        engine.run()

    def test_charge_memcpy_advances_clock(self, machine):
        engine = Engine(n_ranks=4, machine=machine)

        def prog(comm):
            comm.charge_memcpy(machine.params.memcpy_beta)  # exactly 1 second
            assert comm.now == pytest.approx(1.0)
            if False:
                yield  # pragma: no cover

        engine.spawn(0, prog)
        for r in range(1, 4):
            engine.spawn(r, lambda comm: None)
        engine.run()

    def test_memcpy_condition(self, machine):
        engine = Engine(n_ranks=4, machine=machine)

        def prog(comm):
            yield comm.memcpy(machine.params.memcpy_beta // 2)
            assert comm.now == pytest.approx(0.5)

        engine.spawn(0, prog)
        for r in range(1, 4):
            engine.spawn(r, lambda comm: None)
        engine.run()


class TestValidation:
    def test_negative_send_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)

        def prog(comm):
            comm.isend(1, -5)
            if False:
                yield  # pragma: no cover

        engine.spawn(0, prog)
        with pytest.raises(ValueError, match="nbytes"):
            engine.run()

    def test_bad_source_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)

        def prog(comm):
            comm.irecv(17)
            if False:
                yield  # pragma: no cover

        engine.spawn(0, prog)
        with pytest.raises(ValueError, match="source rank"):
            engine.run()

    def test_negative_memcpy_rejected(self, machine):
        engine = Engine(n_ranks=4, machine=machine)
        comm = SimCommunicator(engine, 0)
        with pytest.raises(ValueError):
            comm.memcpy(-1)
        with pytest.raises(ValueError):
            comm.charge_memcpy(-1)
