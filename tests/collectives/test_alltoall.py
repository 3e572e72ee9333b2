"""Unit + property tests for the neighborhood alltoall extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.collectives.alltoall import (
    CommonNeighborAlltoall,
    DistanceHalvingAlltoall,
    alltoall_algorithms,
    run_alltoall,
    verify_alltoall,
)
from repro.topology import DistGraphTopology, erdos_renyi_topology, moore_topology

ALGS = ("naive_alltoall", "common_neighbor_alltoall", "distance_halving_alltoall")


class TestBasics:
    def test_registry(self):
        assert set(alltoall_algorithms()) == set(ALGS)

    def test_unknown_algorithm(self, small_machine, small_topology):
        with pytest.raises(KeyError, match="unknown alltoall"):
            run_alltoall("smoke_signals", small_topology, small_machine, 64)

    @pytest.mark.parametrize("alg", ALGS)
    def test_correct_on_random_graph(self, small_machine, small_topology, alg):
        run = run_alltoall(alg, small_topology, small_machine, 64)
        verify_alltoall(small_topology, run)

    @pytest.mark.parametrize("alg", ALGS)
    def test_self_loops(self, small_machine, alg):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {r: [r, (r + 5) % n] for r in range(n)})
        run = run_alltoall(alg, topo, small_machine, 64)
        verify_alltoall(topo, run)

    @pytest.mark.parametrize("alg", ALGS)
    def test_empty_topology(self, small_machine, alg):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {})
        run = run_alltoall(alg, topo, small_machine, 64)
        verify_alltoall(topo, run)

    def test_custom_payloads(self, small_machine):
        topo = DistGraphTopology(small_machine.spec.n_ranks, {0: [1, 2]})
        fn = lambda u, v: f"{u}->{v}"  # noqa: E731
        run = run_alltoall("naive_alltoall", topo, small_machine, 64, payload_fn=fn)
        verify_alltoall(topo, run, payload_fn=fn)
        assert run.results[2][0] == "0->2"


class TestDistinctBlocks:
    """The defining alltoall property: each target gets ITS block, even
    though DH routes blocks through agents."""

    def test_blocks_not_interchanged(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = erdos_renyi_topology(n, 0.5, seed=41)
        run = run_alltoall("distance_halving_alltoall", topo, small_machine, 64)
        for v in range(n):
            for u, payload in run.results[v].items():
                assert payload == (u, v)

    def test_distinct_payload_fn(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.4, seed=42)
        fn = lambda u, v: u * 1000 + v  # noqa: E731
        run = run_alltoall(
            "distance_halving_alltoall", topo, small_machine, 64, payload_fn=fn
        )
        verify_alltoall(topo, run, payload_fn=fn)


class TestCosts:
    def test_naive_message_count_is_edges(self, small_machine, small_topology):
        run = run_alltoall("naive_alltoall", small_topology, small_machine, 64)
        assert run.messages_sent == small_topology.n_edges

    def test_dh_sends_fewer_messages_on_dense(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.7, seed=43)
        naive = run_alltoall("naive_alltoall", topo, small_machine, 64)
        dh = run_alltoall("distance_halving_alltoall", topo, small_machine, 64)
        assert dh.messages_sent < naive.messages_sent

    def test_dh_moves_more_bytes_due_to_forwarding(self, small_machine):
        """Distinct data cannot be deduplicated, so every extra hop a block
        takes adds its bytes again — the alltoall trade-off."""
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.7, seed=43)
        naive = run_alltoall("naive_alltoall", topo, small_machine, 4096)
        dh = run_alltoall("distance_halving_alltoall", topo, small_machine, 4096)
        assert dh.bytes_sent >= naive.bytes_sent

    def test_dh_wins_small_messages(self, medium_machine):
        topo = erdos_renyi_topology(medium_machine.spec.n_ranks, 0.5, seed=44)
        naive = run_alltoall("naive_alltoall", topo, medium_machine, 32)
        dh = run_alltoall("distance_halving_alltoall", topo, medium_machine, 32)
        assert naive.simulated_time / dh.simulated_time > 2.0

    def test_setup_reused_across_calls(self, small_machine, small_topology):
        alg = DistanceHalvingAlltoall()
        run_alltoall(alg, small_topology, small_machine, 64)
        pattern = alg.pattern
        run_alltoall(alg, small_topology, small_machine, 4096)
        assert alg.pattern is pattern

    def test_setup_never_replays_a_freed_topology(self, small_machine):
        """Regression: the setup memo was keyed on ``id(topology)``, so a
        new topology allocated at a freed one's address replayed the freed
        one's pattern, and its run failed the rank program's block checks."""
        n = small_machine.spec.n_ranks
        first, second = (
            [erdos_renyi_topology(n, 0.3, seed=seed).out_neighbors(u) for u in range(n)]
            for seed in (1, 2)
        )
        alg = DistanceHalvingAlltoall()
        topology = DistGraphTopology(n, first)
        alg.setup(topology, small_machine)
        address = id(topology)
        del topology
        built = []
        for _ in range(256):  # until one lands at the freed address
            built.append(DistGraphTopology(n, second))
            if id(built[-1]) == address:
                break
        for topology in (built[-1], built[0]):
            run = run_alltoall(alg, topology, small_machine, 64)
            verify_alltoall(topology, run)


class TestCommonNeighborAlltoall:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_any_k_correct(self, small_machine, small_topology, k):
        run = run_alltoall("common_neighbor_alltoall", small_topology, small_machine, 64, k=k)
        verify_alltoall(small_topology, run)

    def test_sits_between_naive_and_dh_on_small_messages(self, medium_machine):
        topo = erdos_renyi_topology(medium_machine.spec.n_ranks, 0.5, seed=45)
        t_naive = run_alltoall("naive_alltoall", topo, medium_machine, 64).simulated_time
        t_cn = run_alltoall(
            "common_neighbor_alltoall", topo, medium_machine, 64, k=8
        ).simulated_time
        t_dh = run_alltoall(
            "distance_halving_alltoall", topo, medium_machine, 64
        ).simulated_time
        assert t_dh < t_cn < t_naive

    def test_setup_reused_across_calls(self, small_machine, small_topology):
        """The plan and its phase-1 target lists are built once per
        topology and machine, and rebuilt for another topology."""
        alg = CommonNeighborAlltoall(k=4)
        run_alltoall(alg, small_topology, small_machine, 64)
        plans, pair_targets = alg._inner.plans, alg._pair_targets
        run = run_alltoall(alg, small_topology, small_machine, 4096)
        verify_alltoall(small_topology, run)
        assert alg._inner.plans is plans and alg._pair_targets is pair_targets
        other = erdos_renyi_topology(small_machine.spec.n_ranks, 0.3, seed=99)
        run = run_alltoall(alg, other, small_machine, 64)
        verify_alltoall(other, run)
        assert alg._pair_targets is not pair_targets

    def test_phase1_ships_distinct_target_blocks(self, small_machine):
        """A member covering 3 targets of peer g receives 3 distinct blocks."""
        n = small_machine.spec.n_ranks
        # ranks 0 and 1 (same group) both send to three shared targets.
        shared = [n - 1, n - 2, n - 3]
        topo = DistGraphTopology(n, {0: shared, 1: shared})
        alg = CommonNeighborAlltoall(k=4)
        run = run_alltoall(alg, topo, small_machine, 100)
        verify_alltoall(topo, run)
        # Combining: each shared target is covered by exactly one phase-2
        # message carrying both members' (distinct) blocks.
        plans = alg._inner.plans
        phase2 = [fs for p in plans for fs in p.phase2_sends]
        assert sorted(v for v, _ in phase2) == sorted(shared)
        assert all(sorted(blocks) == [0, 1] for _, blocks in phase2)


class TestAlltoallv:
    """Per-pair variable sizes (the v-variant, paper §VIII 'other variants')."""

    def pair_size(self, u, v):
        return 16 * ((u + 2 * v) % 7 + 1)

    @pytest.mark.parametrize("alg", ALGS)
    def test_correct_with_varied_pair_sizes(self, small_machine, small_topology, alg):
        run = run_alltoall(
            alg, small_topology, small_machine, 64, pair_sizes=self.pair_size
        )
        verify_alltoall(small_topology, run)

    def test_naive_bytes_exact(self, small_machine):
        n = small_machine.spec.n_ranks
        topo = DistGraphTopology(n, {0: [1, 2], 3: [1]})
        run = run_alltoall(
            "naive_alltoall", topo, small_machine, 64, pair_sizes=self.pair_size
        )
        expected = sum(self.pair_size(u, v) for u, v in topo.edges())
        assert run.bytes_sent == expected

    def test_zero_sized_pairs(self, small_machine, small_topology):
        for alg in ALGS:
            run = run_alltoall(
                alg, small_topology, small_machine, 64,
                pair_sizes=lambda u, v: 0 if (u + v) % 2 else 256,
            )
            verify_alltoall(small_topology, run)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
)
def test_alltoall_postcondition_property(nodes, rps, density, seed):
    """All alltoall algorithms deliver per-pair-correct blocks on arbitrary
    random topologies and machine shapes, including variable pair sizes."""
    machine = Machine.niagara_like(nodes=nodes, ranks_per_socket=rps)
    topo = erdos_renyi_topology(machine.spec.n_ranks, density, seed=seed)
    for alg in ALGS:
        run = run_alltoall(alg, topo, machine, 64)
        verify_alltoall(topo, run)
        run_v = run_alltoall(
            alg, topo, machine, 64, pair_sizes=lambda u, v: (u * 31 + v * 7) % 513
        )
        verify_alltoall(topo, run_v)
