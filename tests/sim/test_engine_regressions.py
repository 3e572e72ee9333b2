"""Regression tests for engine bookkeeping bugs fixed on the hot path.

Covers the unexpected-queue leak (consumed tombstones and empty deques
lingering in the matching tables after every message was matched), barrier
semantics over a partial communicator, the single-rank barrier cost, and
ANY_SOURCE arrival-order matching under the single-table design, and
FIFO matching on a key two receives or two messages share.
"""

import math

import pytest

from repro.cluster import Machine
from repro.cluster.spec import LinkClass
from repro.sim.communicator import ANY_SOURCE
from repro.sim.engine import DeadlockError, Engine


@pytest.fixture
def machine():
    return Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2)


def _matching_state_clean(engine: Engine) -> bool:
    """True when no matching table retains an entry after the run drained."""
    return not engine._unexpected and not engine._posted and not engine._posted_any


class TestUnexpectedTableLeak:
    """Every matched unexpected message must leave zero residual state.

    The original twin-queue design left consumed tombstones in whichever
    table did not perform the match, and empty deques were never removed
    from either — a per-(src, tag) memory leak across long sweeps.
    """

    def test_directed_matches_leave_no_state(self, machine):
        engine = Engine(n_ranks=2, machine=machine)

        def sender(comm):
            yield comm.waitall([comm.isend(1, 64, tag=t) for t in range(8)])

        def receiver(comm):
            yield comm.compute(1.0)  # everything arrives unexpected
            yield comm.waitall([comm.irecv(0, tag=t) for t in range(8)])

        engine.spawn(0, sender)
        engine.spawn(1, receiver)
        engine.run()
        assert _matching_state_clean(engine)

    def test_any_source_matches_leave_no_state(self, machine):
        engine = Engine(n_ranks=4, machine=machine)

        def make_sender(rank):
            def sender(comm):
                yield comm.waitall(
                    [comm.isend(0, 64, tag=0), comm.isend(0, 64, tag=0)]
                )

            return sender

        def receiver(comm):
            yield comm.compute(1.0)
            yield comm.waitall([comm.irecv(ANY_SOURCE, tag=0) for _ in range(6)])

        engine.spawn(0, receiver)
        for rank in range(1, 4):
            engine.spawn(rank, make_sender(rank))
        engine.run()
        assert _matching_state_clean(engine)

    def test_mixed_any_and_directed_drain_both_views(self, machine):
        """Interleaving ANY and directed receives over the same unexpected
        messages is exactly the pattern that stranded tombstones in the
        old twin queues."""
        engine = Engine(n_ranks=3, machine=machine)
        sources = []

        def make_sender(rank):
            def sender(comm):
                yield comm.waitall(
                    [comm.isend(0, 32, tag=5), comm.isend(0, 32, tag=5)]
                )

            return sender

        def receiver(comm):
            yield comm.compute(1.0)
            first = comm.irecv(ANY_SOURCE, tag=5)
            yield comm.wait(first)
            directed = comm.irecv(2, tag=5)
            yield comm.wait(directed)
            rest = [comm.irecv(ANY_SOURCE, tag=5) for _ in range(2)]
            yield comm.waitall(rest)
            sources.extend(r.source for r in (first, directed, *rest))

        engine.spawn(0, receiver)
        engine.spawn(1, make_sender(1))
        engine.spawn(2, make_sender(2))
        engine.run()
        assert sorted(sources) == [1, 1, 2, 2]
        assert _matching_state_clean(engine)

    def test_any_source_matches_in_arrival_order(self, machine):
        """ANY receives must drain unexpected messages oldest-delivery-first
        across sources (MPI's non-overtaking rule), not per-queue order."""
        engine = Engine(n_ranks=3, machine=machine)
        order = []

        def late_sender(comm):  # rank 1 sends second
            yield comm.compute(1e-3)
            yield comm.wait(comm.isend(0, 16, tag=0))

        def early_sender(comm):  # rank 2 sends first
            yield comm.wait(comm.isend(0, 16, tag=0))

        def receiver(comm):
            yield comm.compute(1.0)
            for _ in range(2):
                req = comm.irecv(ANY_SOURCE, tag=0)
                yield comm.wait(req)
                order.append(req.source)

        engine.spawn(0, receiver)
        engine.spawn(1, late_sender)
        engine.spawn(2, early_sender)
        engine.run()
        assert order == [2, 1]


class TestSharedKeys:
    """A key holds one slot or message, a deque only while two share it,
    and nothing once drained; either way matching stays FIFO."""

    KEY = (0, 1, 7)  # (dst, src, tag)

    def test_two_posted_receives_match_fifo(self, machine):
        engine = Engine(n_ranks=2, machine=machine)
        shapes, reqs = [], []

        def shape(table):
            held = table.get(self.KEY)
            return None if held is None else type(held).__name__

        def receiver(comm):
            reqs.extend([comm.irecv(1, tag=7), comm.irecv(1, tag=7)])
            yield comm.waitall(reqs)

        def sender(comm):
            shapes.append(shape(engine._posted))
            comm.isend(0, 8, tag=7, payload="first")
            shapes.append(shape(engine._posted))
            comm.isend(0, 8, tag=7, payload="second")
            shapes.append(shape(engine._posted))
            yield comm.compute(0.0)

        engine.spawn(0, receiver)
        engine.spawn(1, sender)
        engine.run()
        assert shapes == ["deque", "int", None]
        assert [r.payload for r in reqs] == ["first", "second"]
        assert _matching_state_clean(engine)

    def test_two_unexpected_messages_match_fifo(self, machine):
        engine = Engine(n_ranks=2, machine=machine)
        shapes, payloads = [], []

        def shape(table):
            held = table.get(self.KEY)
            return None if held is None else type(held).__name__

        def sender(comm):
            comm.isend(0, 8, tag=7, payload="first")
            comm.isend(0, 8, tag=7, payload="second")
            yield comm.compute(0.0)

        def receiver(comm):
            yield comm.compute(1.0)  # both messages arrive unexpected
            shapes.append(shape(engine._unexpected))
            first = comm.irecv(1, tag=7)
            shapes.append(shape(engine._unexpected))
            second = comm.irecv(1, tag=7)
            shapes.append(shape(engine._unexpected))
            yield comm.waitall([first, second])
            payloads.extend([first.payload, second.payload])

        engine.spawn(0, receiver)
        engine.spawn(1, sender)
        engine.run()
        assert shapes == ["deque", "tuple", None]
        assert payloads == ["first", "second"]
        assert _matching_state_clean(engine)


class TestBarrierSemantics:
    def test_barrier_after_rank_finished_is_deadlock(self, machine):
        """A barrier can never complete once a participant has terminated;
        silently releasing over the survivors masked real MPI deadlocks."""
        engine = Engine(n_ranks=2, machine=machine)

        def finisher(comm):
            yield comm.compute(0.0)

        def straggler(comm):
            yield comm.compute(1.0)
            yield comm.barrier()

        engine.spawn(0, finisher)
        engine.spawn(1, straggler)
        with pytest.raises(DeadlockError, match="already[\\s\\S]*finished"):
            engine.run()

    def test_single_rank_barrier_is_free(self, machine):
        """One process synchronizes with nobody: zero rounds, zero cost
        (the old code charged a full log2(2) round)."""
        engine = Engine(n_ranks=1, machine=machine)

        def program(comm):
            yield comm.barrier()

        engine.spawn(0, program)
        assert engine.run() == 0.0

    def test_barrier_costs_log2_rounds(self, machine):
        """Dissemination barrier: ceil(log2 n) network latencies."""
        n = machine.spec.n_ranks
        engine = Engine(n_ranks=n, machine=machine)

        def make_program(rank):
            def program(comm):
                yield comm.barrier()

            return program

        engine.spawn_all(make_program)
        alpha = machine.params.cost(LinkClass.INTER_NODE).alpha
        expected = math.ceil(math.log2(n)) * alpha
        assert engine.run() == pytest.approx(expected)
