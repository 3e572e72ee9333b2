"""Unit tests for the hierarchical leader-based baseline."""

import pytest

from repro.collectives import (
    RunOptions,
    get_algorithm,
    run_allgather,
    verify_allgather,
)
from repro.sim.faults import FaultPlan, RankCrash
from repro.topology import DistGraphTopology, erdos_renyi_topology, moore_topology


class TestPlanStructure:
    def test_leaders_round_robin(self, small_machine, small_topology):
        alg = get_algorithm("hierarchical", leaders_per_node=2)
        alg.setup(small_topology, small_machine)
        rpn = small_machine.spec.ranks_per_node
        for r, plan in enumerate(alg.plans):
            node_base = (r // rpn) * rpn
            assert plan.leader in (node_base, node_base + 1)
            assert small_machine.spec.node_of(plan.leader) == small_machine.spec.node_of(r)

    def test_single_leader_mode(self, small_machine, small_topology):
        alg = get_algorithm("hierarchical", leaders_per_node=1)
        alg.setup(small_topology, small_machine)
        rpn = small_machine.spec.ranks_per_node
        assert all(plan.leader % rpn == 0 for plan in alg.plans)

    def test_leaders_capped_by_node_size(self, small_machine, small_topology):
        alg = get_algorithm("hierarchical", leaders_per_node=1000)
        stats = alg.setup(small_topology, small_machine)
        assert stats.extras["leaders_per_node"] == small_machine.spec.ranks_per_node

    def test_invalid_leaders(self):
        with pytest.raises(ValueError):
            get_algorithm("hierarchical", leaders_per_node=0)

    def test_intra_node_edges_bypass_hierarchy(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {0: [1]})  # same socket
        alg = get_algorithm("hierarchical")
        run = run_allgather(alg, topo, small_machine, 64)
        verify_allgather(topo, run)
        assert run.messages_sent == 1  # direct, no leader hops

    def test_cross_node_edge_takes_three_hops(self, small_machine):
        n = small_machine.spec.n_ranks
        rpn = small_machine.spec.ranks_per_node
        # last rank of node 0 -> last rank of node 1: member->leader,
        # leader->leader, leader->member.
        topo = DistGraphTopology(n, {rpn - 1: [2 * rpn - 1]})
        alg = get_algorithm("hierarchical")
        run = run_allgather(alg, topo, small_machine, 64)
        verify_allgather(topo, run)
        assert run.messages_sent == 3

    def test_leader_source_skips_aggregation(self, small_machine):
        n = small_machine.spec.n_ranks
        rpn = small_machine.spec.ranks_per_node
        # rank 0 IS a leader; its cross-node message needs only 2 hops
        # (exchange + distribute), or 1 if the target is also a leader.
        topo = DistGraphTopology(n, {0: [2 * rpn - 1]})
        run = run_allgather("hierarchical", topo, small_machine, 64)
        verify_allgather(topo, run)
        assert run.messages_sent == 2


class TestCorrectness:
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    @pytest.mark.parametrize("leaders", [1, 2, 4])
    def test_random_graphs(self, small_machine, density, leaders):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, density, seed=81)
        alg = get_algorithm("hierarchical", leaders_per_node=leaders)
        run = run_allgather(alg, topo, small_machine, 256)
        verify_allgather(topo, run)

    def test_moore(self, small_machine):
        topo = moore_topology(small_machine.spec.n_ranks, r=1, d=2)
        run = run_allgather("hierarchical", topo, small_machine, 256)
        verify_allgather(topo, run)

    def test_self_loops(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {r: [r] for r in range(n)})
        run = run_allgather("hierarchical", topo, small_machine, 256)
        verify_allgather(topo, run)
        assert run.messages_sent == 0

    def test_allgatherv(self, small_machine, small_topology):
        from repro.collectives import run_allgatherv

        sizes = [(r % 5 + 1) * 64 for r in range(small_topology.n)]
        run = run_allgatherv("hierarchical", small_topology, small_machine, sizes)
        verify_allgather(small_topology, run)


class TestPerformanceShape:
    def test_combines_cross_node_messages(self, small_machine):
        """Dense graph: leader exchange sends far fewer network messages."""
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.6, seed=82)
        naive = run_allgather("naive", topo, small_machine, 64, options=RunOptions(trace=True))
        hier = run_allgather("hierarchical", topo, small_machine, 64, options=RunOptions(trace=True))
        assert hier.trace.off_socket_messages() < naive.trace.off_socket_messages()

    def test_wins_on_dense_graphs(self, medium_machine):
        topo = erdos_renyi_topology(medium_machine.spec.n_ranks, 0.5, seed=83)
        t_naive = run_allgather("naive", topo, medium_machine, 4096).simulated_time
        t_hier = run_allgather("hierarchical", topo, medium_machine, 4096).simulated_time
        assert t_naive / t_hier > 1.3


class TestShrinkRecovery:
    def test_replan_keeps_the_leader_count(self, small_machine):
        """Regression: a shrink recovery rebuilt the plan with the default
        two leaders per node, so three leaders recovered like two (71
        replan messages each)."""
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.4, seed=3)
        options = RunOptions(fault_plan=FaultPlan(crashes=(RankCrash(rank=5, time=2e-6),)),
                             on_failure="shrink")
        replan_messages = {}
        for leaders in (2, 3):
            alg = get_algorithm("hierarchical", leaders_per_node=leaders)
            run = run_allgather(alg, topo, small_machine, 1024, options=options)
            assert run.recovery["recovered_with"] == "hierarchical"
            replan_messages[leaders] = run.recovery["replan_messages"]
        assert replan_messages == {2: 71, 3: 122}
