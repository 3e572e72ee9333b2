"""Unit tests for the Common Neighbor baseline."""

import pytest

from repro.collectives import get_algorithm, run_allgather, verify_allgather
from repro.topology import DistGraphTopology, erdos_renyi_topology


class TestGroupFormation:
    def test_groups_respect_socket_boundaries(self, small_machine, small_topology):
        alg = get_algorithm("common_neighbor", k=3)  # 3 does not divide L=4
        alg.setup(small_topology, small_machine)
        L = small_machine.spec.ranks_per_socket
        for plan in alg.plans:
            sockets = {g // L for g in plan.group}
            assert len(sockets) == 1  # never straddles a socket

    def test_group_sizes_at_most_k(self, small_machine, small_topology):
        alg = get_algorithm("common_neighbor", k=3)
        alg.setup(small_topology, small_machine)
        assert all(1 <= len(p.group) <= 3 for p in alg.plans)

    def test_invalid_k_rejected(self):
        # A non-integral k must fail here, naming k, not later inside
        # setup() with "'float' object cannot be interpreted as an integer".
        for k, error in ((0, ValueError), (-2, ValueError), (2.5, TypeError), (2.0, TypeError)):
            with pytest.raises(error, match=r"^k "):
                get_algorithm("common_neighbor", k=k)


class TestMessageCombining:
    def test_fewer_messages_than_naive_on_dense_graph(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.6, seed=4)
        naive = run_allgather("naive", topo, small_machine, 64)
        cn = run_allgather(get_algorithm("common_neighbor", k=4), topo, small_machine, 64)
        assert cn.messages_sent < naive.messages_sent

    def test_k1_degenerates_to_naive_message_count(self, small_machine, small_topology):
        """K=1 means singleton groups: no combining, exactly one message per
        off-self edge, like the naive algorithm."""
        naive = run_allgather("naive", small_topology, small_machine, 64)
        cn = run_allgather(get_algorithm("common_neighbor", k=1), small_topology, small_machine, 64)
        assert cn.messages_sent == naive.messages_sent

    def test_single_source_targets_keep_sender(self, small_machine):
        """A target needed by one member only must be sent by that member."""
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {0: [n - 1]})
        alg = get_algorithm("common_neighbor", k=4)
        alg.setup(topo, small_machine)
        sends = alg.plans[0].phase2_sends
        assert sends == (((n - 1), (0,)),)
        # And no intra-group traffic is needed for it.
        assert alg.plans[0].phase1_sends == ()

    def test_shared_target_combined_into_one_message(self, small_machine):
        """All K group members sending to one target => one phase-2 message."""
        n = small_machine.spec.n_ranks
        target = n - 1
        topo = DistGraphTopology(n, {g: [target] for g in range(4)})
        alg = get_algorithm("common_neighbor", k=4)
        run = run_allgather(alg, topo, small_machine, 64)
        verify_allgather(topo, run)
        phase2 = [p for p in alg.plans if p.phase2_sends]
        assert len(phase2) == 1
        (tgt, blocks), = phase2[0].phase2_sends
        assert tgt == target and sorted(blocks) == [0, 1, 2, 3]

    def test_member_targets_delivered_via_phase1(self, small_machine):
        """A target inside the group gets its blocks in phase 1, not phase 2."""
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1], 2: [1]})
        alg = get_algorithm("common_neighbor", k=4)
        run = run_allgather(alg, topo, small_machine, 64)
        verify_allgather(topo, run)
        assert all(not p.phase2_sends for p in alg.plans)
        assert set(alg.plans[1].phase1_for_me) == {0, 2}


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_all_k_values_correct(self, small_machine, small_topology, k):
        run = run_allgather(get_algorithm("common_neighbor", k=k), small_topology, small_machine, 128)
        verify_allgather(small_topology, run)

    @pytest.mark.parametrize("density", [0.05, 0.5, 1.0])
    def test_densities(self, small_machine, density):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, density, seed=6)
        run = run_allgather(get_algorithm("common_neighbor", k=4), topo, small_machine, 64)
        verify_allgather(topo, run)

    def test_setup_counts_matrix_a_exchange(self, small_machine, small_topology):
        alg = get_algorithm("common_neighbor", k=4)
        stats = alg.setup(small_topology, small_machine)
        n = small_topology.n
        assert stats.protocol_messages >= n * (n - 1)
