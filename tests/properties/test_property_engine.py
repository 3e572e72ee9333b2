"""Property-based tests for the discrete-event engine's semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.sim.engine import Engine
from repro.sim.program import rank_program


def make_machine(nodes, rps):
    return Machine.niagara_like(nodes=nodes, ranks_per_socket=rps)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(0, 4096)),
        min_size=1,
        max_size=40,
    ),
)
def test_conservation_and_causality(nodes, rps, raw_msgs):
    """Every send is received exactly once; receives complete no earlier than
    their sends were posted; all clocks are non-negative and finite."""
    machine = make_machine(nodes, rps)
    n = machine.spec.n_ranks
    msgs = [(s % n, d % n, size) for s, d, size in raw_msgs]
    per_pair: dict[tuple[int, int], int] = {}
    for s, d, _ in msgs:
        per_pair[(s, d)] = per_pair.get((s, d), 0) + 1

    engine = Engine(n_ranks=n, machine=machine)
    # Message i carries block i: its sender holds it, and its receiver
    # expects its size (FIFO matching pairs a key's k-th send and receive)
    # and delivers it, which the rank program checks really arrived.
    received: list[dict[int, int]] = [{} for _ in range(n)]

    def program(rank):
        sends = [("send", d, size, 0, (i,)) for i, (s, d, size) in enumerate(msgs) if s == rank]
        mine = tuple(i for i, (_, d, _) in enumerate(msgs) if d == rank)
        recvs = [("recv", msgs[i][0], 0, msgs[i][2]) for i in mine]
        if not sends and not recvs:
            return None
        held = [i for i, (s, _, _) in enumerate(msgs) if s == rank]
        return rank_program(engine, rank, sends + recvs + [("wait",), ("deliver", mine)],
                            held, payloads=range(len(msgs)), results=received[rank])

    engine.spawn_all(program)
    makespan = engine.run()

    assert sorted(b for got in received for b in got) == list(range(len(msgs)))
    got_pairs: dict[tuple[int, int], int] = {}
    for d, got in enumerate(received):
        for b in got:
            assert msgs[b][1] == d
            got_pairs[(msgs[b][0], d)] = got_pairs.get((msgs[b][0], d), 0) + 1
    assert got_pairs == per_pair
    assert len(engine.recv_done) == len(msgs)
    for t in engine.recv_done:
        assert 0.0 <= t <= makespan


@settings(deadline=None, max_examples=15)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_exchange_is_deterministic(nodes, rps, seed):
    """Two identical runs produce identical finish times and makespans."""
    import numpy as np

    machine = make_machine(nodes, rps)
    n = machine.spec.n_ranks
    rng = np.random.default_rng(seed)
    peers = [int(rng.integers(0, n)) for _ in range(n)]

    def run_once():
        engine = Engine(n_ranks=n, machine=machine)

        def program(rank):
            ops = [("send", peers[rank], 512, 1, (rank,))]
            ops += [("recv", src, 1, 512) for src in range(n) if peers[src] == rank]
            return rank_program(engine, rank, ops + [("wait",)], held=(rank,))

        engine.spawn_all(program)
        engine.run()
        return engine.finish_times()

    assert run_once() == run_once()


@settings(deadline=None, max_examples=10)
@given(
    st.sampled_from(["naive", "common_neighbor", "distance_halving", "bruck"]),
    st.integers(2, 4),
    st.floats(0.1, 0.6),
    st.integers(0, 1 << 16),
    st.integers(0, 2**31 - 1),
)
def test_tracing_never_perturbs_the_simulation(algorithm, nodes, density, size, seed):
    """``trace=True`` only observes: simulated time, message count, byte
    count and per-rank finish times must be bit-identical to an untraced
    run of the same collective."""
    from repro.collectives.runner import RunOptions, run_allgather
    from repro.topology import erdos_renyi_topology

    machine = make_machine(nodes, 2)
    topology = erdos_renyi_topology(machine.spec.n_ranks, density, seed=seed)
    plain = run_allgather(algorithm, topology, machine, size)
    traced = run_allgather(algorithm, topology, machine, size,
                           options=RunOptions(trace=True))
    assert traced.simulated_time == plain.simulated_time
    assert traced.messages_sent == plain.messages_sent
    assert traced.bytes_sent == plain.bytes_sent
    assert traced.finish_times == plain.finish_times
    assert traced.trace is not None
    assert traced.trace.total_messages == traced.messages_sent


@settings(deadline=None, max_examples=15)
@given(st.integers(2, 12), st.integers(1, 20), st.integers(1, 1 << 16))
def test_port_serialization_lower_bound(n_senders, msgs_each, size):
    """A single receiver draining k messages cannot finish faster than the
    sum of its per-message port occupancies (single-port assumption)."""
    machine = make_machine(4, 4)
    n = machine.spec.n_ranks
    n_senders = min(n_senders, n - 1)
    engine = Engine(n_ranks=n, machine=machine)

    recvs = [("recv", src, 0, size) for src in range(1, n_senders + 1)
             for _ in range(msgs_each)]
    engine.spawn(0, rank_program(engine, 0, recvs + [("wait",)]))
    for r in range(1, n_senders + 1):
        engine.spawn(r, rank_program(engine, r, [("send", 0, size, 0, ())] * msgs_each
                                     + [("wait",)]))
    engine.run()

    total_msgs = n_senders * msgs_each
    # Cheapest possible per-message occupancy at the receiver's port.
    cheapest = min(
        machine.params.cost(cls).alpha + size / machine.params.cost(cls).beta
        for cls in (
            machine.link_class(0, r) for r in range(1, n_senders + 1)
        )
    )
    assert engine.finish_time(0) >= total_msgs * cheapest * 0.999
