"""Unit tests for the Machine bundle."""

from repro.cluster import DragonflyPlus, Machine, SingleSwitch
from repro.cluster.spec import LinkClass
from repro.sim.fabric import LANES_NONE, LANES_PAIR, RouteTable


def route(machine, src, dst):
    """The route row of ``src``'s socket to ``dst``'s, on a fresh table."""
    rps = machine.spec.ranks_per_socket
    key = (src // rps) * machine.spec.n_sockets + dst // rps
    return RouteTable().resolve(machine, src, dst, key)


class TestLinkQueries:
    def test_refines_inter_node_with_network(self):
        m = Machine.niagara_like(nodes=8, ranks_per_socket=2, nodes_per_group=2)
        rpn = m.spec.ranks_per_node
        assert m.link_class(0, 1) is LinkClass.INTRA_SOCKET
        assert m.link_class(0, 2) is LinkClass.INTER_SOCKET
        assert m.link_class(0, rpn) is LinkClass.INTER_NODE  # same group
        assert m.link_class(0, 2 * rpn) is LinkClass.INTER_GROUP

    def test_path_alpha_increases_with_distance(self):
        m = Machine.niagara_like(nodes=8, ranks_per_socket=2, nodes_per_group=2)
        rpn = m.spec.ranks_per_node
        rows = [route(m, 0, dst) for dst in (1, 2, rpn, 2 * rpn)]
        alphas = [row.alpha + row.hop_extra for row in rows]
        assert alphas == sorted(alphas)
        assert alphas[-1] > alphas[-2]

    def test_hop_extra_only_for_network_links(self):
        m = Machine.niagara_like(nodes=8, ranks_per_socket=2, nodes_per_group=2)
        assert m.hop_extra_alpha(0, 1) == 0.0
        assert m.hop_extra_alpha(0, 2 * m.spec.ranks_per_node) > 0.0

    def test_shared_keys_empty_within_node(self):
        m = Machine.niagara_like(nodes=4, ranks_per_socket=2)
        within = route(m, 0, 1)
        assert (within.lane_mode, within.lanes, within.tx) == (LANES_NONE, (), -1)
        # Another Dragonfly+ group: a pair of global-link lanes.
        assert route(m, 0, 2 * m.spec.ranks_per_node).lane_mode == LANES_PAIR


class TestConstructors:
    def test_niagara_like_single_node_uses_flat_network(self):
        m = Machine.niagara_like(nodes=1, ranks_per_socket=4)
        assert isinstance(m.network, SingleSwitch)

    def test_niagara_like_defaults_to_dragonfly(self):
        m = Machine.niagara_like(nodes=16, ranks_per_socket=4)
        assert isinstance(m.network, DragonflyPlus)

    def test_describe_mentions_shape(self):
        m = Machine.niagara_like(nodes=4, ranks_per_socket=4)
        assert "4 nodes" in m.describe()
