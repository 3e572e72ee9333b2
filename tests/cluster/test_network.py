"""Unit + property tests for network topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.network import DragonflyPlus, FatTree, SingleSwitch, Torus
from repro.cluster.spec import LinkClass


class TestSingleSwitch:
    def test_all_inter_node(self):
        net = SingleSwitch()
        assert net.classify(0, 1) is LinkClass.INTER_NODE
        assert net.classify(3, 3) is LinkClass.SELF
        assert net.hops(0, 5) == 2
        assert net.link_choices(0, 5) == ()


class TestDragonflyPlus:
    def test_grouping(self):
        net = DragonflyPlus(nodes_per_group=4)
        assert net.group_of(0) == 0
        assert net.group_of(3) == 0
        assert net.group_of(4) == 1

    def test_classification(self):
        net = DragonflyPlus(nodes_per_group=4)
        assert net.classify(0, 3) is LinkClass.INTER_NODE
        assert net.classify(0, 4) is LinkClass.INTER_GROUP
        assert net.classify(2, 2) is LinkClass.SELF

    def test_hops(self):
        net = DragonflyPlus(nodes_per_group=4)
        assert net.hops(0, 0) == 0
        assert net.hops(0, 1) == 2
        assert net.hops(0, 7) == 5  # leaf-spine-global-spine-leaf

    def test_global_link_keys(self):
        net = DragonflyPlus(nodes_per_group=4, links_per_pair=2)
        (group,) = net.link_choices(0, 4)
        assert len(group) == 2
        for lane, (tag, lo, hi, key_lane) in enumerate(group):
            assert tag == "global" and (lo, hi) == (0, 1) and key_lane == lane
        assert net.link_choices(0, 1) == ()

    def test_key_symmetry(self):
        net = DragonflyPlus(nodes_per_group=3, links_per_pair=4)
        assert net.link_choices(1, 7) == net.link_choices(7, 1)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_classify_symmetric(self, a, b):
        net = DragonflyPlus(nodes_per_group=8)
        assert net.classify(a, b) is net.classify(b, a)
        assert net.hops(a, b) == net.hops(b, a)


class TestFatTree:
    def test_classification(self):
        net = FatTree(nodes_per_leaf=4)
        assert net.classify(0, 3) is LinkClass.INTER_NODE
        assert net.classify(0, 4) is LinkClass.INTER_GROUP

    def test_taper_limits_uplinks(self):
        net = FatTree(nodes_per_leaf=8, taper=0.25)
        assert net.uplinks_per_leaf == 2
        lanes = {key for src in range(8) for key in net.link_choices(src, 8)[0]}
        assert lanes == {("up", 0, 0), ("up", 0, 1)}  # 8 nodes share 2 uplink lanes

    def test_cross_leaf_uses_both_ends(self):
        net = FatTree(nodes_per_leaf=4)
        groups = net.link_choices(0, 5)
        assert len(groups) == 2
        # source leaf, then dest leaf
        assert [{k[1] for k in group} for group in groups] == [{0}, {1}]

    def test_invalid_taper(self):
        with pytest.raises(ValueError):
            FatTree(nodes_per_leaf=4, taper=0.0)
        with pytest.raises(ValueError):
            FatTree(nodes_per_leaf=4, taper=1.5)


class TestTorus:
    def test_coords_roundtrip(self):
        net = Torus(dims=(4, 4))
        assert net.coords_of(0) == (0, 0)
        assert net.coords_of(5) == (1, 1)
        assert net.coords_of(15) == (3, 3)

    def test_wraparound_distance(self):
        net = Torus(dims=(8,))
        assert net.hops(0, 7) == 1 + 1  # neighbors through the wrap + switch hop
        assert net.hops(0, 4) == 4 + 1

    def test_bisection_classification(self):
        net = Torus(dims=(4, 2))
        # dim-0 halves: x in {0,1} vs {2,3}.
        assert net.classify(0, 2) is LinkClass.INTER_NODE  # x=0 -> x=1
        assert net.classify(0, 4) is LinkClass.INTER_GROUP  # x=0 -> x=2

    def test_bisection_keys_only_when_crossing(self):
        net = Torus(dims=(4, 2), bisection_ways=2)
        assert net.link_choices(0, 2) == ()
        (group,) = net.link_choices(0, 4)
        assert group == (("bisect", 0), ("bisect", 1))

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            Torus(dims=(2, 2)).coords_of(4)

    @given(st.integers(0, 31), st.integers(0, 31))
    def test_hops_symmetric(self, a, b):
        net = Torus(dims=(4, 4, 2))
        assert net.hops(a, b) == net.hops(b, a)
        assert net.classify(a, b) is net.classify(b, a)
