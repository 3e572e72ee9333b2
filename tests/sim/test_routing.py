"""Unit tests for adaptive (UGAL-like) lane routing."""

from repro.cluster import DragonflyPlus, FatTree, Machine, Torus
from repro.cluster.hockney import NIAGARA_LIKE
from repro.cluster.spec import ClusterSpec
from repro.sim.fabric import Fabric


def dragonfly_machine() -> Machine:
    """Four Dragonfly+ groups of two nodes, two global links per group pair."""
    return Machine(
        spec=ClusterSpec(nodes=8, sockets_per_node=2, ranks_per_socket=2),
        network=DragonflyPlus(nodes_per_group=2, links_per_pair=2),
        params=NIAGARA_LIKE,
    )


class TestLinkChoices:
    def test_dragonfly_offers_all_lanes(self):
        net = DragonflyPlus(nodes_per_group=2, links_per_pair=3)
        (group,) = net.link_choices(0, 4)
        assert len(group) == 3
        assert {k[3] for k in group} == {0, 1, 2}

    def test_dragonfly_same_group_no_choices(self):
        net = DragonflyPlus(nodes_per_group=2)
        assert net.link_choices(0, 1) == ()

    def test_fat_tree_two_groups(self):
        net = FatTree(nodes_per_leaf=4, taper=0.5)
        choices = net.link_choices(0, 5)
        assert len(choices) == 2
        assert all(len(group) == net.uplinks_per_leaf for group in choices)

    def test_torus_bisection_lanes(self):
        net = Torus(dims=(4, 2), bisection_ways=3)
        (group,) = net.link_choices(0, 4)
        assert len(group) == 3


class TestAdaptiveRouting:
    def test_adaptive_spreads_load(self):
        """Two concurrent cross-group transfers claim different lanes, so
        the second is not serialized behind the first on a global link."""
        rpn = 4  # ranks per node
        big = 1 << 22
        fabric = Fabric(dragonfly_machine())
        fabric.transmit(0, 4 * rpn, big, post_time=0.0)
        fabric.transmit(1, 4 * rpn + 1, big, post_time=0.0)
        # Two lanes, both busy: each carries one of the two transfers.
        busy = fabric.busy()["links"]
        assert len(busy) == 2 and all(b > 0 for b in busy.values())

    def test_adaptive_uses_both_lanes(self):
        """Both global lanes of the group pair carry traffic: the fabric
        lists every lane a route may choose, so check busy time, not keys."""
        fabric = Fabric(dragonfly_machine())
        rpn = 4
        for i in range(4):
            fabric.transmit(i, 4 * rpn + i, 1 << 20, post_time=0.0)
        links = fabric.utilization(horizon=1.0)["links"]
        assert len(links) == 2
        assert all(frac > 0 for frac in links.values())
