"""Unit tests for the discrete-event engine: matching, waits, determinism,
deadlock detection."""

import math

import pytest

from repro.cluster import Machine
from repro.sim.engine import DeadlockError, Engine
from repro.sim.fabric import Fabric, MessageTiming
from repro.sim.program import rank_program


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def make_engine(machine, n=None):
    return Engine(n_ranks=n or machine.spec.n_ranks, machine=machine)


def delay_ops(machine, seconds):
    """A stream's local work: a memcpy of about ``seconds``, then a wait
    with nothing posted, so the rank resumes once its clock has passed it."""
    return [("charge", math.ceil(seconds * machine.params.memcpy_beta)), ("wait",)]


class TestBasicExchange:
    def test_send_recv_delivers_payload(self, machine):
        engine = make_engine(machine)
        payloads = {5: {"k": 3}}
        got = {}
        engine.spawn(0, rank_program(engine, 0, [("send", 1, 100, 7, (5,)), ("wait",)],
                                     held=(5,)))
        engine.spawn(1, rank_program(engine, 1, [("recv", 0, 7, 100), ("wait",),
                                                 ("deliver", (5,))],
                                     payloads=payloads, results=got))
        makespan = engine.run()
        assert makespan > 0
        assert got == {5: {"k": 3}}
        assert (engine.recv_nbytes[0], engine.recv_payload[0]) == (100, (5,))

    def test_recv_posted_before_send(self, machine):
        engine = make_engine(machine)
        got = {}
        engine.spawn(0, rank_program(engine, 0, [("recv", 1, 0, 8), ("wait",),
                                                 ("deliver", (1,))],
                                     payloads={1: "late"}, results=got))
        # Send long after the receive is posted.
        engine.spawn(1, rank_program(
            engine, 1, [*delay_ops(machine, 1e-3), ("send", 0, 8, 0, (1,)), ("wait",)],
            held=(1,),
        ))
        engine.run()
        assert got == {1: "late"}
        # Receiver cannot finish before the sender's delay.
        assert engine.finish_time(0) >= 1e-3

    def test_unexpected_message_buffered(self, machine):
        engine = make_engine(machine)
        got = {}
        engine.spawn(0, rank_program(engine, 0, [("send", 1, 8, 3, (0,)), ("wait",)],
                                     held=(0,)))
        # Receive posted long after arrival.
        engine.spawn(1, rank_program(
            engine, 1, [*delay_ops(machine, 1e-3), ("recv", 0, 3, 8), ("wait",),
                        ("deliver", (0,))],
            payloads={0: "eager"}, results=got,
        ))
        engine.run()
        assert got == {0: "eager"}
        # Completion at post time, not arrival time.
        assert engine.recv_done[0] == engine.recv_post[0] >= 1e-3
        assert engine.finish_time(1) >= 1e-3

    def test_self_send(self, machine):
        engine = make_engine(machine)
        got = {}
        engine.spawn(0, rank_program(
            engine, 0, [("send", 0, 64, 1, (9,)), ("recv", 0, 1, 64), ("wait",),
                        ("deliver", (9,))],
            held=(9,), payloads={9: "me"}, results=got,
        ))
        engine.run()
        assert got == {9: "me"}


class TestSend:
    def test_returns_timing_and_lands_payload_in_posted_receive(self, machine):
        engine = make_engine(machine)
        slot = engine.recv(1, 0, 7)
        timing = engine.send(0, 1, 100, 7, {"k": 3})
        assert isinstance(timing, MessageTiming)
        assert timing == Fabric(machine).transmit(0, 1, 100, 0.0)
        assert engine.recv_payload[slot] == {"k": 3}
        assert engine.recv_nbytes[slot] == 100
        assert engine.recv_done[slot] == timing.arrival
        assert engine.messages_sent == 1
        assert engine.bytes_sent == 100


class TestMatchingSemantics:
    def test_fifo_per_src_tag(self, machine):
        engine = make_engine(machine)
        engine.spawn(0, rank_program(
            engine, 0, [*(("send", 1, 8, 0, (i,)) for i in range(5)), ("wait",)],
            held=range(5),
        ))
        engine.spawn(1, rank_program(
            engine, 1, [op for _ in range(5) for op in (("recv", 0, 0, 8), ("wait",))],
        ))
        engine.run()
        # MPI non-overtaking: the k-th receive gets the k-th message.
        assert engine.recv_payload == [(0,), (1,), (2,), (3,), (4,)]

    def test_tags_do_not_cross_match(self, machine):
        engine = make_engine(machine)
        engine.spawn(0, rank_program(
            engine, 0, [("send", 1, 8, 10, (10,)), ("send", 1, 8, 20, (20,)), ("wait",)],
            held=(10, 20),
        ))
        engine.spawn(1, rank_program(
            engine, 1, [("recv", 0, 20, 8), ("recv", 0, 10, 8), ("wait",)],
        ))
        engine.run()
        assert engine.recv_payload == [(20,), (10,)]


class TestErrorsAndEdges:
    def test_deadlock_detected(self, machine):
        engine = make_engine(machine)
        # Nobody ever sends.
        engine.spawn(0, rank_program(engine, 0, [("recv", 1, 0, 8), ("wait",)]))
        with pytest.raises(DeadlockError, match=r"rank 0 \(waitall\(1 pending\)\)"):
            engine.run()

    def test_invalid_yield_rejected(self, machine):
        engine = make_engine(machine)

        def bad():
            yield "not a condition"

        engine.spawn(0, bad())
        with pytest.raises(TypeError, match="must yield wait conditions"):
            engine.run()

    def test_double_spawn_rejected(self, machine):
        engine = make_engine(machine)
        engine.spawn(0, None)
        with pytest.raises(ValueError, match="already has a program"):
            engine.spawn(0, None)

    def test_out_of_range_destination(self, machine):
        engine = make_engine(machine, n=2)
        engine.spawn(0, rank_program(engine, 0, [("send", 5, 8, 0, ()), ("wait",)]))
        with pytest.raises(ValueError, match="destination rank"):
            engine.run()

    def test_negative_size_send_rejected(self, machine):
        engine = make_engine(machine)
        with pytest.raises(ValueError, match=r"^nbytes must be >= 0, got -4096$"):
            engine.send(0, 5, -4096, 0, None)
        assert engine.messages_sent == 0
        assert engine.bytes_sent == 0

    def test_out_of_range_receive_source_rejected(self, machine):
        engine = make_engine(machine)
        with pytest.raises(ValueError, match=r"^source rank 99 out of range \[0, 8\)$"):
            engine.recv(1, 99, 0)
        assert not engine._posted
        assert not engine.recv_post

    def test_too_many_ranks_rejected(self, machine):
        with pytest.raises(ValueError, match="exceeds machine capacity"):
            Engine(n_ranks=machine.spec.n_ranks + 1, machine=machine)


class TestDeterminism:
    def test_identical_runs(self, machine):
        def build_and_run():
            engine = make_engine(machine)
            n = engine.n_ranks
            for r in range(n):
                ops = []
                for dst in range(n):
                    if dst != r:
                        ops += [("send", dst, 256, 0, (r,)), ("recv", dst, 0, 256)]
                engine.spawn(r, rank_program(engine, r, ops + [("wait",)], held=(r,)))
            engine.run()
            return engine.finish_times()

        assert build_and_run() == build_and_run()
