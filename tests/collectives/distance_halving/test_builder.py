"""Unit + property tests for Algorithm 1 (pattern construction)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Machine
from repro.collectives.distance_halving import builder
from repro.collectives.distance_halving.builder import (
    build_patterns,
    check_pattern,
    halving_levels,
)
from repro.topology import (
    DistGraphTopology,
    cartesian_topology,
    erdos_renyi_topology,
    moore_topology,
)


@pytest.fixture
def machine():
    return Machine.niagara_like(nodes=4, ranks_per_socket=4)  # 32 ranks, L=4


class TestHalvingLevels:
    """The one halving geometry the builder and ``check_dh_structure`` share."""

    def test_power_of_two(self):
        assert len(halving_levels(16, 4)) == 2
        assert len(halving_levels(128, 8)) == 4

    def test_already_small(self):
        assert halving_levels(4, 8) == []
        assert halving_levels(8, 8) == []

    def test_single_socket_has_no_levels(self):
        # A communicator that fits on one socket has nothing to halve.
        for n in range(1, 9):
            assert halving_levels(n, 8) == []

    def test_multi_socket_halves(self):
        # One rank past the socket starts the halving.
        for n in (9, 16, 64):
            assert halving_levels(n, 8)

    def test_matches_log_formula_for_powers(self):
        for n, stop in ((32, 4), (2048, 16), (1024, 32), (2, 1), (256, 256)):
            assert len(halving_levels(n, stop)) == math.ceil(math.log2(n / stop))

    def test_non_power_of_two(self):
        # 2160 ranks, L=18: the largest half goes 1080, 540, 270, 135, 68,
        # 34, 17.
        assert len(halving_levels(2160, 18)) == 7

    def test_mid_matches_paper_formula(self):
        # Algorithm 1 line 13: mid_rank = (start + end) / 2, floor, over the
        # inclusive [start, end]; the lower half ends at mid_rank.
        for n, stop in ((8, 1), (7, 1), (10, 1), (2160, 18)):
            for level in halving_levels(n, stop):
                for (lo, cut), (_, hi) in level:
                    assert cut - 1 == (lo + (hi - 1)) // 2
        # [5, 10) is the upper half of [0, 10): inclusive [5, 9], mid 7.
        assert ((5, 8), (8, 10)) in halving_levels(10, 1)[1]

    def test_split_halves(self):
        assert halving_levels(8, 4) == [[((0, 4), (4, 8))]]
        assert halving_levels(8, 2)[1] == [((0, 2), (2, 4)), ((4, 6), (6, 8))]

    def test_split_odd_interval(self):
        # The midpoint stays low: the lower half keeps the odd rank.
        assert halving_levels(7, 4) == [[((0, 4), (4, 7))]]

    @given(st.integers(1, 10_000), st.integers(1, 64))
    def test_split_partitions(self, n, stop):
        intervals = [(0, n)]
        for level in halving_levels(n, stop):
            assert level  # a level exists only when something splits
            assert [(lower[0], upper[1]) for lower, upper in level] == [
                (lo, hi) for lo, hi in intervals if hi - lo > stop
            ]
            for (lo, cut), (cut_, hi) in level:
                assert lo < cut == cut_ < hi
                assert (cut - lo) - (hi - cut) in (0, 1)
            intervals = [half for split in level for half in split]
        assert all(hi - lo <= stop for lo, hi in intervals)

    @given(st.integers(1, 10_000), st.integers(1, 64))
    def test_steps_shrink_below_limit(self, n, stop):
        steps = len(halving_levels(n, stop))
        size = n
        for _ in range(steps):
            size = math.ceil(size / 2)
        assert size <= stop
        # One fewer step would not have been enough (unless already small).
        if steps:
            size = n
            for _ in range(steps - 1):
                size = math.ceil(size / 2)
            assert size > stop

    def test_builder_levels_are_the_geometry(self, machine):
        topo = erdos_renyi_topology(30, 0.4, seed=4)
        pattern = build_patterns(topo, machine)
        levels = halving_levels(30, 4)
        assert pattern.stats.levels == len(levels)
        for rp in pattern.ranks:
            for step in rp.steps:
                (lo, cut), (_, hi) = next(
                    split for split in levels[step.index]
                    if split[0][0] <= rp.rank < split[1][1]
                )
                for peer in (step.agent, step.origin):
                    if peer is not None:
                        assert lo <= peer < hi and (peer < cut) != (rp.rank < cut)

    def test_matching_scores_come_from_half_scores(self, machine, monkeypatch):
        calls = []
        original = builder.half_scores

        def recording(adj_f32, side_a, side_b, half):
            calls.append((side_a, side_b, half))
            return original(adj_f32, side_a, side_b, half)

        monkeypatch.setattr(builder, "half_scores", recording)
        topo = erdos_renyi_topology(32, 0.3, seed=0)
        build_patterns(topo, machine)
        splits = [split for level in halving_levels(32, 4) for split in level]
        # two matching rounds per split, each scored over the searchers'
        # opposite half
        assert len(calls) == 2 * len(splits)
        for lower, upper in splits:
            lower, upper = range(*lower), range(*upper)
            assert (lower, upper, upper) in calls and (upper, lower, lower) in calls


class TestStructure:
    def test_levels_match_halving_depth(self, machine):
        topo = erdos_renyi_topology(32, 0.3, seed=0)
        pattern = build_patterns(topo, machine)
        # 32 ranks, L=4: 32->16->8->4 = 3 levels.
        assert pattern.stats.levels == 3

    def test_steps_bounded_by_levels(self, machine):
        topo = erdos_renyi_topology(32, 0.5, seed=1)
        pattern = build_patterns(topo, machine)
        for rp in pattern.ranks:
            assert len(rp.steps) <= pattern.stats.levels
            indices = [s.index for s in rp.steps]
            assert indices == sorted(indices)

    def test_at_most_one_agent_and_origin_per_step(self, machine):
        topo = erdos_renyi_topology(32, 0.7, seed=2)
        pattern = build_patterns(topo, machine)
        for rp in pattern.ranks:
            seen = set()
            for step in rp.steps:
                assert step.index not in seen
                seen.add(step.index)

    def test_agents_in_opposite_half(self, machine):
        """At level t the agent must lie on the other side of the level-t
        split of the rank's current interval."""
        n = 32
        topo = erdos_renyi_topology(n, 0.5, seed=3)
        pattern = build_patterns(topo, machine)
        for rp in pattern.ranks:
            lo, hi = 0, n
            by_index = {s.index: s for s in rp.steps}
            for t in range(pattern.stats.levels):
                if hi - lo <= machine.spec.ranks_per_socket:
                    break
                mid = (lo + hi - 1) // 2
                in_lower = rp.rank <= mid
                step = by_index.get(t)
                if step is not None:
                    for peer in (step.agent, step.origin):
                        if peer is not None:
                            peer_lower = peer <= mid
                            assert peer_lower != in_lower
                lo, hi = (lo, mid + 1) if in_lower else (mid + 1, hi)

    def test_matching_is_one_to_one_per_level(self, machine):
        topo = erdos_renyi_topology(32, 0.7, seed=4)
        pattern = build_patterns(topo, machine)
        for t in range(pattern.stats.levels):
            agents = [
                s.agent for rp in pattern.ranks for s in rp.steps
                if s.index == t and s.agent is not None
            ]
            origins = [
                s.origin for rp in pattern.ranks for s in rp.steps
                if s.index == t and s.origin is not None
            ]
            assert len(agents) == len(set(agents))
            assert len(origins) == len(set(origins))
            # Every agent relationship has its mirror origin relationship.
            pairs_a = {
                (rp.rank, s.agent) for rp in pattern.ranks for s in rp.steps
                if s.index == t and s.agent is not None
            }
            pairs_o = {
                (s.origin, rp.rank) for rp in pattern.ranks for s in rp.steps
                if s.index == t and s.origin is not None
            }
            assert pairs_a == pairs_o

    def test_buffer_growth_is_consistent(self, machine):
        """send_block_count at step t equals 1 + sum of blocks received in
        earlier steps — the main_buf append-only discipline."""
        topo = erdos_renyi_topology(32, 0.5, seed=5)
        pattern = build_patterns(topo, machine)
        for rp in pattern.ranks:
            blocks = 1
            for step in rp.steps:
                if step.agent is not None:
                    assert step.send_block_count == blocks
                blocks += len(step.recv_blocks)

    def test_final_phase_mostly_socket_local(self, machine):
        """With good agent coverage, the bulk of final-phase messages stay
        on-socket (that is the point of stopping the halving at L)."""
        topo = erdos_renyi_topology(32, 0.7, seed=6)
        pattern = build_patterns(topo, machine)
        total, local = 0, 0
        for rp in pattern.ranks:
            for fs in rp.final_sends:
                total += 1
                local += machine.spec.same_socket(rp.rank, fs.target)
        assert total > 0
        assert local / total > 0.7


class TestDeliveryInvariant:
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.7, 1.0])
    def test_random_graphs(self, machine, density):
        topo = erdos_renyi_topology(32, density, seed=7)
        check_pattern(topo, build_patterns(topo, machine))

    def test_moore(self, machine):
        topo = moore_topology(32, r=1, d=2)
        check_pattern(topo, build_patterns(topo, machine))

    def test_cartesian(self, machine):
        topo = cartesian_topology(32, d=2)
        check_pattern(topo, build_patterns(topo, machine))

    def test_star_graphs(self, machine):
        n = 32
        out_star = DistGraphTopology(n, {0: list(range(1, n))})
        check_pattern(out_star, build_patterns(out_star, machine))
        in_star = DistGraphTopology(n, {u: [0] for u in range(1, n)})
        check_pattern(in_star, build_patterns(in_star, machine))

    def test_self_loops(self, machine):
        n = 32
        topo = DistGraphTopology(n, {r: [r, (r + 3) % n] for r in range(n)})
        pattern = build_patterns(topo, machine)
        check_pattern(topo, pattern)
        assert all(rp.self_copy for rp in pattern.ranks)

    def test_non_power_of_two_communicator(self):
        machine = Machine.niagara_like(nodes=3, ranks_per_socket=3)  # 18 ranks
        topo = erdos_renyi_topology(18, 0.4, seed=8)
        check_pattern(topo, build_patterns(topo, machine))

    def test_paper_like_odd_shape(self):
        machine = Machine.niagara_like(nodes=5, ranks_per_socket=9)  # 90 ranks
        topo = erdos_renyi_topology(90, 0.2, seed=9)
        check_pattern(topo, build_patterns(topo, machine))


class TestSelectionVariants:
    def test_protocol_equals_greedy_pattern(self, machine):
        topo = erdos_renyi_topology(32, 0.4, seed=10)
        greedy = build_patterns(topo, machine, selection="greedy")
        proto = build_patterns(topo, machine, selection="protocol")
        for r in range(32):
            assert [(s.index, s.agent, s.origin) for s in greedy[r].steps] == [
                (s.index, s.agent, s.origin) for s in proto[r].steps
            ]
        assert proto.stats.protocol_messages > 0
        assert greedy.stats.protocol_messages == 0

    def test_random_selection_still_correct(self, machine):
        topo = erdos_renyi_topology(32, 0.4, seed=11)
        check_pattern(topo, build_patterns(topo, machine, selection="random"))

    def test_random_selection_deterministic_by_seed(self, machine):
        topo = erdos_renyi_topology(32, 0.4, seed=12)
        a = build_patterns(topo, machine, selection="random", seed=5)
        b = build_patterns(topo, machine, selection="random", seed=5)
        for r in range(32):
            assert [(s.agent, s.origin) for s in a[r].steps] == [
                (s.agent, s.origin) for s in b[r].steps
            ]

    def test_unknown_selection_rejected(self, machine):
        topo = erdos_renyi_topology(32, 0.1, seed=0)
        with pytest.raises(ValueError, match="selection"):
            build_patterns(topo, machine, selection="psychic")


class TestStopGranularity:
    def test_stop_at_one_has_no_final_sends_needed_off_socket(self, machine):
        """Halving to single ranks leaves no interval bigger than one, so
        more levels and (near-)empty leftovers except unmatched duties."""
        topo = erdos_renyi_topology(32, 0.5, seed=13)
        deep = build_patterns(topo, machine, stop_ranks=1)
        normal = build_patterns(topo, machine)
        assert deep.stats.levels == math.ceil(math.log2(32))
        assert deep.stats.levels > normal.stats.levels
        check_pattern(topo, deep)

    def test_stop_larger_than_n_gives_no_halving(self, machine):
        topo = erdos_renyi_topology(32, 0.5, seed=14)
        flat = build_patterns(topo, machine, stop_ranks=32)
        assert flat.stats.levels == 0
        # Everything is delivered directly in the final phase => naive-like.
        assert flat.total_data_messages() == topo.n_edges
        check_pattern(topo, flat)

    def test_invalid_stop_rejected(self, machine):
        topo = erdos_renyi_topology(32, 0.1, seed=0)
        with pytest.raises(ValueError, match="stop_ranks"):
            build_patterns(topo, machine, stop_ranks=0)


class TestStats:
    def test_success_rate_bounds(self, machine):
        topo = erdos_renyi_topology(32, 0.3, seed=15)
        stats = build_patterns(topo, machine).stats
        assert 0.0 <= stats.success_rate <= 1.0
        assert stats.agent_successes <= stats.agent_attempts

    def test_high_density_high_success(self, machine):
        topo = erdos_renyi_topology(32, 0.9, seed=16)
        stats = build_patterns(topo, machine).stats
        assert stats.success_rate > 0.9

    def test_message_counts_grow_with_density(self, machine):
        sparse = build_patterns(erdos_renyi_topology(32, 0.05, seed=17), machine,
                                selection="protocol").stats
        dense = build_patterns(erdos_renyi_topology(32, 0.7, seed=17), machine,
                               selection="protocol").stats
        assert dense.protocol_messages > sparse.protocol_messages

    def test_fewer_data_messages_than_naive_on_dense(self, machine):
        topo = erdos_renyi_topology(32, 0.7, seed=18)
        pattern = build_patterns(topo, machine)
        assert pattern.total_data_messages() < topo.n_edges
