"""Failure injection: corrupted plans and misbehaving programs are detected.

The executors carry runtime assertions (buffer block counts, sends of
blocks the sender does not hold, received byte counts, deliveries of blocks
that never arrived) precisely so that a corrupted or stale communication
pattern fails loudly instead of silently delivering wrong data.  These tests corrupt patterns/plans on purpose and assert the failure
is caught — either by the executor's own checks or by result verification.
"""

import dataclasses

import pytest

from repro.collectives import get_algorithm, run_allgather, verify_allgather
from repro.collectives.alltoall import DistanceHalvingAlltoall, run_alltoall
from repro.collectives.distance_halving.pattern import FinalRecv, FinalSend, HalvingStep
from repro.sim.engine import DeadlockError
from repro.topology import erdos_renyi_topology


@pytest.fixture
def setup(small_machine):
    topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.4, seed=71)
    alg = get_algorithm("distance_halving")
    alg.setup(topo, small_machine)
    return topo, small_machine, alg


def find_rank_with_agent(alg):
    for rp in alg.pattern.ranks:
        for i, step in enumerate(rp.steps):
            if step.agent is not None and step.send_block_count > 0:
                return rp, i
    raise AssertionError("no agented step found")


class TestCorruptedPatterns:
    def test_wrong_send_block_count_detected(self, setup):
        topo, machine, alg = setup
        rp, i = find_rank_with_agent(alg)
        step = rp.steps[i]
        rp.steps[i] = dataclasses.replace(step, send_block_count=step.send_block_count + 3)
        with pytest.raises(AssertionError, match="pattern says"):
            run_allgather(alg, topo, machine, 128)

    def test_wrong_recv_blocks_detected(self, setup):
        topo, machine, alg = setup
        for rp in alg.pattern.ranks:
            for i, step in enumerate(rp.steps):
                if step.origin is not None and step.recv_blocks:
                    rp.steps[i] = dataclasses.replace(
                        step, recv_blocks=step.recv_blocks + (0,)
                    )
                    with pytest.raises(AssertionError, match="expected"):
                        run_allgather(alg, topo, machine, 128)
                    return
        raise AssertionError("no origin step found")

    def test_dropped_final_recv_detected(self, setup):
        """Removing an expected final receive leaves a block undelivered —
        caught by verification (and often as an unmatched message)."""
        topo, machine, alg = setup
        victim = next(rp for rp in alg.pattern.ranks if rp.final_recvs)
        victim.final_recvs = victim.final_recvs[1:]
        run = run_allgather(alg, topo, machine, 128)
        with pytest.raises(AssertionError, match="missing blocks"):
            verify_allgather(topo, run)

    def test_extra_final_recv_deadlocks(self, setup):
        """Expecting a message nobody sends must deadlock, not hang silently."""
        topo, machine, alg = setup
        victim = next(rp for rp in alg.pattern.ranks if rp.final_recvs)
        victim.final_recvs = victim.final_recvs + [FinalRecv(sender=victim.rank, blocks=(0,))]
        with pytest.raises(DeadlockError):
            run_allgather(alg, topo, machine, 128)

    def test_misrouted_final_send_detected(self, setup):
        """Redirecting a final send to the wrong target corrupts delivery —
        caught by verification on the receiving side."""
        topo, machine, alg = setup
        victim = next(rp for rp in alg.pattern.ranks if rp.final_sends)
        fs = victim.final_sends[0]
        wrong = (fs.target + 1) % topo.n
        victim.final_sends[0] = FinalSend(target=wrong, blocks=fs.blocks)
        with pytest.raises((AssertionError, DeadlockError)):
            run = run_allgather(alg, topo, machine, 128)
            verify_allgather(topo, run)


@pytest.fixture
def planned(small_machine):
    """``planned(name)``: ``(topology, machine, algorithm)``, set up."""
    topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.4, seed=71)

    def _planned(name):
        alg = get_algorithm(name)
        alg.setup(topo, small_machine)
        return topo, small_machine, alg

    return _planned


class TestCorruptedPlans:
    """Each check of the generic rank program, tripped by a corrupted plan
    outside Distance Halving: the engine run fails naming the rank."""

    def test_cn_phase2_send_of_unheld_block(self, planned):
        topo, machine, alg = planned("common_neighbor")
        rank, plan = next((r, p) for r, p in enumerate(alg.plans) if p.phase2_sends)
        target, blocks = plan.phase2_sends[0]
        stranger = next(u for u in range(topo.n) if u not in plan.group)
        plan.phase2_sends = ((target, (stranger, *blocks[1:])), *plan.phase2_sends[1:])
        unheld = rf"rank {rank}: .*\[{stranger}\] it does not hold"
        with pytest.raises(AssertionError, match=unheld):
            run_allgather(alg, topo, machine, 128)

    def test_bruck_rotation_send_of_unheld_block(self, planned):
        topo, machine, alg = planned("bruck")
        rank, plan = next(
            (r, p) for r, p in enumerate(alg.plans) if p.rounds and p.rounds[0][0] >= 0
        )
        send_to, send_blocks, recv_from, recv_blocks, tag = plan.rounds[0]
        held = {rank, *plan.gather_recvs}
        stranger = next(u for u in range(topo.n) if u not in held)
        plan.rounds = (
            (send_to, (stranger, *send_blocks[1:]), recv_from, recv_blocks, tag),
            *plan.rounds[1:],
        )
        unheld = rf"rank {rank}: .*\[{stranger}\] it does not hold"
        with pytest.raises(AssertionError, match=unheld):
            run_allgather(alg, topo, machine, 128)

    def test_cn_phase2_recv_one_block_off(self, planned):
        topo, machine, alg = planned("common_neighbor")
        rank, plan = next((r, p) for r, p in enumerate(alg.plans) if p.phase2_recvs)
        sender, blocks = plan.phase2_recvs[0]
        plan.phase2_recvs = ((sender, (*blocks, blocks[0])), *plan.phase2_recvs[1:])
        wrong_size = rf"rank {rank}: message from {sender} .*expected"
        with pytest.raises(AssertionError, match=wrong_size):
            run_allgather(alg, topo, machine, 128)

    def test_hierarchical_exch_recv_one_block_off(self, planned):
        topo, machine, alg = planned("hierarchical")
        rank, plan = next((r, p) for r, p in enumerate(alg.plans) if p.exch_recvs)
        peer, blocks = plan.exch_recvs[0]
        plan.exch_recvs = ((peer, blocks[1:]), *plan.exch_recvs[1:])
        wrong_size = rf"rank {rank}: message from {peer} .*expected"
        with pytest.raises(AssertionError, match=wrong_size):
            run_allgather(alg, topo, machine, 128)

    def test_cn_delivery_of_block_from_outside_the_group(self, planned):
        topo, machine, alg = planned("common_neighbor")
        rank, plan = 0, alg.plans[0]
        stranger = next(u for u in range(topo.n) if u not in plan.group)
        plan.phase1_for_me = (*plan.phase1_for_me, stranger)
        never_arrived = rf"rank {rank}: delivers block {stranger}, which never arrived"
        with pytest.raises(AssertionError, match=never_arrived):
            run_allgather(alg, topo, machine, 128)


class TestCorruptedAlltoall:
    def test_dropped_pair_detected(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.4, seed=72)
        alg = DistanceHalvingAlltoall()
        alg.setup(topo, small_machine)
        # Remove one duty pair from a step's send list: the block stays in
        # the store and the executor flags it as undelivered.
        for rp in alg.pattern.ranks:
            for i, step in enumerate(rp.steps):
                if step.agent is not None and step.send_pairs:
                    rp.steps[i] = dataclasses.replace(
                        step, send_pairs=step.send_pairs[1:]
                    )
                    with pytest.raises(AssertionError):
                        run_alltoall(alg, topo, small_machine, 64)
                    return
        raise AssertionError("no pair-carrying step found")


class TestStalePatternReuse:
    def test_pattern_not_reused_across_topologies(self, small_machine):
        """setup() keys on the topology object: a new topology rebuilds."""
        t1 = erdos_renyi_topology(small_machine.spec.n_ranks, 0.3, seed=73)
        t2 = erdos_renyi_topology(small_machine.spec.n_ranks, 0.3, seed=74)
        alg = get_algorithm("distance_halving")
        run1 = run_allgather(alg, t1, small_machine, 64)
        verify_allgather(t1, run1)
        run2 = run_allgather(alg, t2, small_machine, 64)
        verify_allgather(t2, run2)  # would fail if the t1 pattern leaked
