"""Regression tests for engine bookkeeping bugs fixed on the hot path.

Covers the unexpected-queue leak (consumed tombstones and empty deques
lingering in the matching tables after every message was matched) and
FIFO matching on a key two receives or two messages share.
"""

import pytest

from repro.cluster import Machine
from repro.sim.engine import Engine
from repro.sim.program import rank_program


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def _matching_state_clean(engine: Engine) -> bool:
    """True when no matching table retains an entry after the run drained."""
    return not engine._unexpected and not engine._posted


def _one_second(machine) -> list[tuple]:
    """Local work until the rank's clock has advanced one second."""
    return [("charge", machine.params.memcpy_beta), ("wait",)]


class TestUnexpectedTableLeak:
    """Every matched unexpected message must leave zero residual state.

    The original twin-queue design left consumed tombstones in whichever
    table did not perform the match, and empty deques were never removed
    from either — a per-(src, tag) memory leak across long sweeps.
    """

    def test_directed_matches_leave_no_state(self, machine):
        engine = Engine(n_ranks=2, machine=machine)
        sends = [("send", 1, 64, t, ()) for t in range(8)]
        recvs = [("recv", 0, t, 64) for t in range(8)]
        engine.spawn(0, rank_program(engine, 0, sends + [("wait",)]))
        # Everything arrives unexpected.
        engine.spawn(1, rank_program(engine, 1, _one_second(machine) + recvs + [("wait",)]))
        engine.run()
        assert _matching_state_clean(engine)


class TestSharedKeys:
    """A key holds one slot or message, a deque only while two share it,
    and nothing once drained; either way matching stays FIFO."""

    KEY = (0, 1, 7)  # (dst, src, tag)

    def shape(self, table):
        held = table.get(self.KEY)
        return None if held is None else type(held).__name__

    def test_two_posted_receives_match_fifo(self, machine):
        engine = Engine(n_ranks=2, machine=machine)
        shapes = []

        def sender_ops():
            # The rank program pulls an op after running the one before.
            shapes.append(self.shape(engine._posted))
            yield ("send", 0, 8, 7, (1,))
            shapes.append(self.shape(engine._posted))
            yield ("send", 0, 8, 7, (2,))
            shapes.append(self.shape(engine._posted))
            yield ("wait",)

        engine.spawn(0, rank_program(engine, 0, [("recv", 1, 7, 8), ("recv", 1, 7, 8),
                                                 ("wait",)]))
        engine.spawn(1, rank_program(engine, 1, sender_ops(), held=(1, 2)))
        engine.run()
        assert shapes == ["deque", "int", None]
        assert engine.recv_payload == [(1,), (2,)]
        assert _matching_state_clean(engine)

    def test_two_unexpected_messages_match_fifo(self, machine):
        engine = Engine(n_ranks=2, machine=machine)
        shapes = []

        def receiver_ops():
            yield from _one_second(machine)  # both messages arrive unexpected
            shapes.append(self.shape(engine._unexpected))
            yield ("recv", 1, 7, 8)
            shapes.append(self.shape(engine._unexpected))
            yield ("recv", 1, 7, 8)
            shapes.append(self.shape(engine._unexpected))
            yield ("wait",)

        engine.spawn(0, rank_program(engine, 0, receiver_ops()))
        engine.spawn(1, rank_program(engine, 1, [("send", 0, 8, 7, (1,)),
                                                 ("send", 0, 8, 7, (2,)), ("wait",)],
                                     held=(1, 2)))
        engine.run()
        assert shapes == ["deque", "tuple", None]
        assert engine.recv_payload == [(1,), (2,)]
        assert _matching_state_clean(engine)
