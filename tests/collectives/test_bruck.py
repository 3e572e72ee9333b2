"""Unit tests for the locality-aware Bruck allgather backend."""

import pytest

from repro.cluster import Machine
from repro.collectives import (
    RunOptions,
    get_algorithm,
    run_allgather,
    verify_allgather,
)
from repro.collectives.bruck import (
    LOCALITIES,
    LocalityAwareBruckAllgather,
    _rotation_offsets,
)
from repro.sim.faults import FaultPlan, RankCrash
from repro.topology import DistGraphTopology, erdos_renyi_topology


class TestRotationOffsets:
    def test_trivial_group_counts_need_no_rounds(self):
        assert _rotation_offsets(0) == ()
        assert _rotation_offsets(1) == ()

    @pytest.mark.parametrize("s", [2, 4, 8, 16])
    def test_power_of_two_doubling_rounds(self, s):
        offsets = _rotation_offsets(s)
        assert offsets == tuple((1 << r, 1 << r) for r in range(s.bit_length() - 1))

    @pytest.mark.parametrize("s", [3, 5, 6, 7, 11])
    def test_remainder_round_covers_every_group(self, s):
        offsets = _rotation_offsets(s)
        k = s.bit_length() - 1
        # floor(log2 S) full rounds plus one partial round.
        assert len(offsets) == k + 1
        assert offsets[-1] == (1 << k, s - (1 << k))
        # After all rounds each leader has accumulated every group's chunk.
        assert sum(cnt for _, cnt in offsets) == s - 1

    def test_offsets_distinct_mod_s(self):
        for s in range(2, 40):
            offsets = [o % s for o, _ in _rotation_offsets(s)]
            assert len(offsets) == len(set(offsets))


class TestPlanStructure:
    def test_invalid_locality_rejected(self):
        with pytest.raises(ValueError, match="locality"):
            get_algorithm("bruck", locality="rack")

    def test_localities_exposed(self):
        assert LOCALITIES == ("socket", "node")

    def test_socket_groups_one_leader_per_socket(self, small_machine, small_topology):
        alg = get_algorithm("bruck")
        alg.setup(small_topology, small_machine)
        width = small_machine.spec.ranks_per_socket
        leaders = [
            r for r, plan in enumerate(alg.plans)
            if plan.rounds or plan.gather_recvs or plan.dist_sends
        ]
        assert leaders and all(r % width == 0 for r in leaders)
        # Non-leaders never participate in rotation rounds.
        for r, plan in enumerate(alg.plans):
            if r % width != 0:
                assert plan.rounds == ()

    def test_node_locality_widens_groups(self, small_machine, small_topology):
        socket = get_algorithm("bruck")
        node = get_algorithm("bruck", locality="node")
        socket.setup(small_topology, small_machine)
        node.setup(small_topology, small_machine)
        assert (
            node.setup_stats.extras["groups"]
            < socket.setup_stats.extras["groups"]
        )
        assert node.setup_stats.extras["locality"] == "node"

    def test_log_round_count(self, small_machine, small_topology):
        alg = get_algorithm("bruck")
        alg.setup(small_topology, small_machine)
        groups = alg.setup_stats.extras["groups"]
        k = groups.bit_length() - 1
        expected = k + (0 if groups == 1 << k else 1)
        assert alg.setup_stats.extras["rounds"] == expected

    def test_replan_preserves_locality(self):
        alg = LocalityAwareBruckAllgather(locality="node")
        shrunk = alg.replan(survivors=(0, 1, 2), delivered_state={})
        assert isinstance(shrunk, LocalityAwareBruckAllgather)
        assert shrunk.locality == "node"
        assert not shrunk.is_setup


class TestCorrectness:
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.3, 0.7, 1.0])
    def test_densities_match_oracle(self, small_machine, density):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, density, seed=11)
        run = run_allgather("bruck", topo, small_machine, 128)
        verify_allgather(topo, run)

    @pytest.mark.parametrize("locality", LOCALITIES)
    def test_both_localities_correct(self, small_machine, small_topology, locality):
        run = run_allgather(
            get_algorithm("bruck", locality=locality),
            small_topology, small_machine, 256,
        )
        verify_allgather(small_topology, run)

    def test_non_power_of_two_group_count(self):
        # 5 sockets -> remainder rotation round (S=5: offsets 1, 2, 4).
        machine = Machine.single_switch(
            nodes=5, sockets_per_node=1, ranks_per_socket=2
        )
        topo = erdos_renyi_topology(10, 0.4, seed=3)
        alg = get_algorithm("bruck")
        run = run_allgather(alg, topo, machine, 64)
        verify_allgather(topo, run)
        assert alg.setup_stats.extras["groups"] == 5

    def test_self_loops_only(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {r: [r] for r in range(n)})
        run = run_allgather("bruck", topo, small_machine, 64)
        verify_allgather(topo, run)

    def test_zero_byte_messages(self, small_machine, small_topology):
        run = run_allgather("bruck", small_topology, small_machine, 0)
        verify_allgather(small_topology, run)

    def test_single_socket_machine_skips_rotation(self):
        machine = Machine.single_switch(
            nodes=1, sockets_per_node=1, ranks_per_socket=8
        )
        topo = erdos_renyi_topology(8, 0.5, seed=9)
        alg = get_algorithm("bruck")
        run = run_allgather(alg, topo, machine, 64)
        verify_allgather(topo, run)
        assert alg.setup_stats.extras["rounds"] == 0

    def test_fewer_messages_than_naive_on_dense_graph(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.7, seed=4)
        naive = run_allgather("naive", topo, small_machine, 64)
        bruck = run_allgather("bruck", topo, small_machine, 64)
        assert bruck.messages_sent < naive.messages_sent


class TestScheduleParity:
    def test_auto_mode_replays_bit_identically(self, small_machine, small_topology):
        des = run_allgather("bruck", small_topology, small_machine, "4KB")
        auto = run_allgather(
            "bruck", small_topology, small_machine, "4KB",
            options=RunOptions(sim_mode="auto"),
        )
        assert auto.simulated_time == des.simulated_time
        assert auto.messages_sent == des.messages_sent

    def test_idle_ranks_have_no_program(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {0: [1]})
        alg = get_algorithm("bruck")
        run = run_allgather(alg, topo, small_machine, 64)
        verify_allgather(topo, run)
        # Every rank outside 0/1's gather+dist chain contributes no events.
        assert run.messages_sent > 0


class TestShrinkRecovery:
    def test_shrink_replans_over_survivors(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = erdos_renyi_topology(n, 0.6, seed=21)
        victim = n - 1
        plan = FaultPlan(crashes=(RankCrash(rank=victim, time=1e-7),))
        run = run_allgather(
            "bruck", topo, small_machine, 256,
            options=RunOptions(fault_plan=plan, on_failure="shrink"),
        )
        assert victim in run.missing_ranks
        assert run.algorithm == "bruck"
        verify_allgather(topo, run, allow_missing=run.missing_ranks)

    def test_degrade_falls_back_to_setup_free(self, small_machine):
        from repro.collectives.base import SETUP_FREE_FALLBACK

        n = small_machine.spec.n_ranks
        topo = erdos_renyi_topology(n, 0.6, seed=22)
        plan = FaultPlan(crashes=(RankCrash(rank=0, time=1e-7),))
        run = run_allgather(
            "bruck", topo, small_machine, 256,
            options=RunOptions(
                fault_plan=plan, on_failure="degrade",
                fallback=SETUP_FREE_FALLBACK,
            ),
        )
        assert run.recovery["recovered_with"] == SETUP_FREE_FALLBACK
        verify_allgather(topo, run, allow_missing=run.missing_ranks)
