"""Simulator composability: applications embed collectives in one program.

A rank's program is its op stream run by the rank program
(:func:`~repro.sim.program.rank_program`), so an application phase is an
op stream that embeds a collective's stream (``yield from``) between its
own local work, and two collectives with their own buffers run back to
back as two rank programs chained with ``yield from``.  These tests pin
that contract, including compute/communication overlap semantics.
"""

import math

import pytest

from repro.collectives import get_algorithm, run_allgather
from repro.collectives.base import ExecutionContext
from repro.sim.engine import Engine
from repro.sim.program import rank_program
from repro.topology import erdos_renyi_topology


def make_ctx(topology, machine, msg_size):
    return ExecutionContext(
        topology=topology,
        machine=machine,
        msg_size=msg_size,
        payloads=list(range(topology.n)),
        results=[{} for _ in range(topology.n)],
    )


def compute_ops(machine, seconds):
    """Local work: about ``seconds`` of memcpy, then a wait with nothing
    posted, so the rank resumes once its clock has passed it.  Returns the
    ops and the exact time they charge."""
    nbytes = math.ceil(seconds * machine.params.memcpy_beta)
    return [("charge", nbytes), ("wait",)], nbytes / machine.params.memcpy_beta


class TestYieldFromComposition:
    def test_app_program_embeds_collective(self, small_machine, small_topology):
        """compute -> allgather -> compute, per rank, in one program."""
        alg = get_algorithm("distance_halving")
        alg.setup(small_topology, small_machine)
        ctx = make_ctx(small_topology, small_machine, 1024)
        engine = Engine(n_ranks=small_topology.n, machine=small_machine)
        work, compute = compute_ops(small_machine, 5e-6)

        def app_ops(rank):
            yield from work
            inner = alg.rank_ops(ctx, rank)
            if inner is not None:
                yield from inner
            yield from work

        engine.spawn_all(lambda rank: rank_program(
            engine, rank, app_ops(rank), (rank,), ctx.payloads, ctx.results[rank]
        ))
        makespan = engine.run()

        # Results are the standard allgather post-condition...
        for v in range(small_topology.n):
            assert set(ctx.results[v]) == set(small_topology.in_neighbors(v))
        # ...and the makespan includes both compute phases.
        plain = run_allgather(alg, small_topology, small_machine, 1024).simulated_time
        assert makespan >= plain + 2 * compute - 1e-12

    def test_two_collectives_back_to_back(self, small_machine, small_topology):
        """Two different algorithms can run sequentially in one program
        (distinct contexts keep their results separate)."""
        dh = get_algorithm("distance_halving")
        cn = get_algorithm("common_neighbor")
        dh.setup(small_topology, small_machine)
        cn.setup(small_topology, small_machine)
        ctx1 = make_ctx(small_topology, small_machine, 256)
        ctx2 = make_ctx(small_topology, small_machine, 256)
        engine = Engine(n_ranks=small_topology.n, machine=small_machine)

        def program(rank):
            first = dh.program(engine, rank, ctx1)
            if first is not None:
                yield from first
            second = cn.program(engine, rank, ctx2)
            if second is not None:
                yield from second

        engine.spawn_all(program)
        engine.run()
        for ctx in (ctx1, ctx2):
            for v in range(small_topology.n):
                assert set(ctx.results[v]) == set(small_topology.in_neighbors(v))

    def test_overlap_hides_computation(self, small_machine):
        """Non-blocking style: computation issued while communication is in
        flight should (partially) hide — the motivation for the related
        work's non-blocking neighborhood collectives."""
        n = small_machine.spec.n_ranks
        topo = erdos_renyi_topology(n, 0.4, seed=91)
        msg = 1 << 16
        # Comparable to the transfer time.
        work, compute = compute_ops(small_machine, 2e-4)

        def run_mode(overlap: bool) -> float:
            engine = Engine(n_ranks=n, machine=small_machine)

            def program(rank):
                ops = [("recv", src, 0, msg) for src in topo.in_neighbors(rank)]
                ops += [("send", dst, msg, 0, (rank,)) for dst in topo.out_neighbors(rank)]
                charge = work[0]
                if overlap:
                    ops += [charge, ("wait",)]   # while messages fly
                else:
                    ops += [("wait",), charge]   # strictly after
                return rank_program(engine, rank, ops, held=(rank,))

            engine.spawn_all(program)
            return engine.run()

        overlapped = run_mode(True)
        sequential = run_mode(False)
        assert overlapped < sequential
        # Full overlap would save exactly `compute`; require most of it.
        assert sequential - overlapped > 0.5 * compute
