"""Unit tests for the discrete-event engine: matching, waits, barriers,
determinism, deadlock detection."""

import pytest

from repro.cluster import Machine
from repro.sim.communicator import ANY_SOURCE
from repro.sim.engine import DeadlockError, Engine
from repro.sim.fabric import Fabric, MessageTiming


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def make_engine(machine, n=None):
    return Engine(n_ranks=n or machine.spec.n_ranks, machine=machine)


class TestBasicExchange:
    def test_send_recv_delivers_payload(self, machine):
        engine = make_engine(machine)

        def sender(comm):
            yield comm.wait(comm.isend(1, 100, tag=7, payload={"k": 3}))

        def receiver(comm):
            req = comm.irecv(0, tag=7)
            yield comm.wait(req)
            assert req.payload == {"k": 3}
            assert req.source == 0
            assert req.nbytes == 100

        engine.spawn(0, sender)
        engine.spawn(1, receiver)
        for r in range(2, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        makespan = engine.run()
        assert makespan > 0

    def test_recv_posted_before_send(self, machine):
        engine = make_engine(machine)
        seen = []

        def receiver(comm):
            req = comm.irecv(1, tag=0)
            yield comm.wait(req)
            seen.append(req.payload)

        def sender(comm):
            yield comm.compute(1e-3)  # send long after the recv is posted
            yield comm.wait(comm.isend(0, 8, tag=0, payload="late"))

        engine.spawn(0, receiver)
        engine.spawn(1, sender)
        for r in range(2, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert seen == ["late"]
        # Receiver cannot finish before the sender's compute delay.
        assert engine.finish_time(0) >= 1e-3

    def test_unexpected_message_buffered(self, machine):
        engine = make_engine(machine)
        got = []

        def sender(comm):
            yield comm.wait(comm.isend(1, 8, tag=3, payload="eager"))

        def receiver(comm):
            yield comm.compute(1e-3)  # recv posted long after arrival
            req = comm.irecv(0, tag=3)
            yield comm.wait(req)
            got.append((req.payload, comm.now))

        engine.spawn(0, sender)
        engine.spawn(1, receiver)
        for r in range(2, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        payload, when = got[0]
        assert payload == "eager"
        assert when >= 1e-3  # completion at post time, not arrival time

    def test_self_send(self, machine):
        engine = make_engine(machine)
        got = []

        def prog(comm):
            sreq = comm.isend(0, 64, tag=1, payload="me")
            rreq = comm.irecv(0, tag=1)
            yield comm.waitall([sreq, rreq])
            got.append(rreq.payload)

        engine.spawn(0, prog)
        for r in range(1, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert got == ["me"]


class TestSend:
    def test_returns_timing_and_lands_payload_in_posted_receive(self, machine):
        engine = make_engine(machine)
        recv = engine.post_recv(1, 0, 7)
        timing = engine.send(0, 1, 100, 7, {"k": 3})
        assert isinstance(timing, MessageTiming)
        assert timing == Fabric(machine).transmit(0, 1, 100, 0.0)
        assert recv.payload == {"k": 3}
        assert recv.source == 0
        assert recv.nbytes == 100
        assert recv.completion_time == timing.arrival
        assert engine.messages_sent == 1
        assert engine.bytes_sent == 100


class TestMatchingSemantics:
    def test_fifo_per_src_tag(self, machine):
        engine = make_engine(machine)
        order = []

        def sender(comm):
            reqs = [comm.isend(1, 8, tag=0, payload=i) for i in range(5)]
            yield comm.waitall(reqs)

        def receiver(comm):
            for _ in range(5):
                req = comm.irecv(0, tag=0)
                yield comm.wait(req)
                order.append(req.payload)

        engine.spawn(0, sender)
        engine.spawn(1, receiver)
        for r in range(2, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert order == [0, 1, 2, 3, 4]  # MPI non-overtaking

    def test_tags_do_not_cross_match(self, machine):
        engine = make_engine(machine)
        got = {}

        def sender(comm):
            yield comm.waitall(
                [
                    comm.isend(1, 8, tag=10, payload="ten"),
                    comm.isend(1, 8, tag=20, payload="twenty"),
                ]
            )

        def receiver(comm):
            r20 = comm.irecv(0, tag=20)
            r10 = comm.irecv(0, tag=10)
            yield comm.waitall([r10, r20])
            got["t10"], got["t20"] = r10.payload, r20.payload

        engine.spawn(0, sender)
        engine.spawn(1, receiver)
        for r in range(2, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert got == {"t10": "ten", "t20": "twenty"}

    def test_any_source(self, machine):
        engine = make_engine(machine)
        sources = []

        def make_sender(dst):
            def sender(comm):
                yield comm.wait(comm.isend(dst, 8, tag=0, payload=comm.rank))

            return sender

        def receiver(comm):
            for _ in range(3):
                req = comm.irecv(ANY_SOURCE, tag=0)
                yield comm.wait(req)
                sources.append(req.source)

        engine.spawn(0, receiver)
        for r in (1, 2, 3):
            engine.spawn(r, make_sender(0))
        for r in range(4, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        engine.run()
        assert sorted(sources) == [1, 2, 3]


class TestBarrier:
    def test_barrier_synchronizes(self, machine):
        engine = make_engine(machine)
        after = {}

        def prog(comm):
            yield comm.compute(comm.rank * 1e-4)  # staggered arrivals
            yield comm.barrier()
            after[comm.rank] = comm.now

        for r in range(engine.n_ranks):
            engine.spawn(r, prog)
        engine.run()
        slowest_arrival = (engine.n_ranks - 1) * 1e-4
        assert all(t >= slowest_arrival for t in after.values())
        assert len(set(round(t, 12) for t in after.values())) == 1


class TestErrorsAndEdges:
    def test_deadlock_detected(self, machine):
        engine = make_engine(machine)

        def waiter(comm):
            yield comm.wait(comm.irecv(1, tag=0))  # nobody ever sends

        engine.spawn(0, waiter)
        for r in range(1, engine.n_ranks):
            engine.spawn(r, lambda comm: None)
        with pytest.raises(DeadlockError, match="rank 0"):
            engine.run()

    def test_invalid_yield_rejected(self, machine):
        engine = make_engine(machine)

        def bad(comm):
            yield "not a condition"

        engine.spawn(0, bad)
        with pytest.raises(TypeError, match="must yield wait conditions"):
            engine.run()

    def test_double_spawn_rejected(self, machine):
        engine = make_engine(machine)
        engine.spawn(0, lambda comm: None)
        with pytest.raises(ValueError, match="already has a program"):
            engine.spawn(0, lambda comm: None)

    def test_out_of_range_destination(self, machine):
        engine = make_engine(machine, n=2)

        def bad(comm):
            yield comm.wait(comm.isend(5, 8))

        engine.spawn(0, bad)
        engine.spawn(1, lambda comm: None)
        with pytest.raises(ValueError, match="destination rank"):
            engine.run()

    def test_negative_size_send_rejected(self, machine):
        engine = make_engine(machine)
        with pytest.raises(ValueError, match=r"^nbytes must be >= 0, got -4096$"):
            engine.post_send(0, 5, -4096, 0, None)
        assert engine.messages_sent == 0
        assert engine.bytes_sent == 0

    def test_out_of_range_receive_source_rejected(self, machine):
        engine = make_engine(machine)
        with pytest.raises(ValueError, match=r"^source rank 99 out of range \[0, 8\)$"):
            engine.post_recv(1, 99, 0)
        assert not any(engine._posted)

    def test_too_many_ranks_rejected(self, machine):
        with pytest.raises(ValueError, match="exceeds machine capacity"):
            Engine(n_ranks=machine.spec.n_ranks + 1, machine=machine)

    def test_cross_rank_wait_rejected(self, machine):
        engine = make_engine(machine)
        stash = {}

        def a(comm):
            stash["req"] = comm.irecv(1, tag=0)
            yield comm.compute(1.0)

        def b(comm):
            yield comm.wait(stash["req"])  # waiting on rank 0's request

        engine.spawn(0, a)
        engine.spawn(1, b)
        with pytest.raises(ValueError, match="owned by rank"):
            engine.run()


class TestDeterminism:
    def test_identical_runs(self, machine):
        def build_and_run():
            engine = make_engine(machine)

            def prog(comm):
                reqs = []
                for dst in range(engine.n_ranks):
                    if dst != comm.rank:
                        reqs.append(comm.isend(dst, 256, tag=0, payload=comm.rank))
                        reqs.append(comm.irecv(dst, tag=0))
                yield comm.waitall(reqs)

            for r in range(engine.n_ranks):
                engine.spawn(r, prog)
            engine.run()
            return engine.finish_times()

        assert build_and_run() == build_and_run()
