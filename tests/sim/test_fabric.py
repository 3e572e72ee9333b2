"""Unit tests for the fabric's message-timing model."""

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import DragonflyPlus, FatTree, Machine, Torus
from repro.cluster.hockney import NIAGARA_LIKE
from repro.cluster.spec import ClusterSpec, LinkClass
from repro.collectives.base import ExecutionContext, get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim import fabric as fabric_module
from repro.sim.fabric import Fabric, routes_for
from repro.sim.fastpath import _compile_multi
from repro.sim.plancache import plan_cache_stats, reset_plan_cache
from repro.sim.schedule import Schedule
from repro.topology.graph import DistGraphTopology


@pytest.fixture
def machine():
    return Machine.niagara_like(nodes=8, ranks_per_socket=2, nodes_per_group=2)


class TestUncontended:
    def test_self_message_is_memcpy(self, machine):
        fabric = Fabric(machine)
        t = fabric.transmit(0, 0, 6000, post_time=1.0)
        assert t.link_class is LinkClass.SELF
        assert t.arrival == pytest.approx(1.0 + 6000 / machine.params.memcpy_beta)

    def test_single_message_is_hockney(self, machine):
        fabric = Fabric(machine)
        cost = machine.params.cost(LinkClass.INTRA_SOCKET)
        t = fabric.transmit(0, 1, 1024, post_time=0.0)
        assert t.link_class is LinkClass.INTRA_SOCKET
        assert t.arrival == pytest.approx(cost.alpha + 1024 / cost.beta)

    def test_inter_group_pays_hops(self, machine):
        fabric = Fabric(machine)
        rpn = machine.spec.ranks_per_node
        near = fabric.transmit(0, rpn, 64, post_time=0.0).arrival
        fabric2 = Fabric(machine)
        far = fabric2.transmit(0, 2 * rpn, 64, post_time=0.0).arrival
        assert far > near

    def test_send_complete_before_arrival(self, machine):
        fabric = Fabric(machine)
        t = fabric.transmit(0, machine.spec.ranks_per_node, 1 << 20, post_time=0.0)
        assert t.send_complete <= t.arrival

    def test_zero_bytes_costs_alpha(self, machine):
        fabric = Fabric(machine)
        t = fabric.transmit(0, 1, 0, post_time=0.0)
        assert t.arrival == pytest.approx(machine.params.cost(LinkClass.INTRA_SOCKET).alpha)


class TestContention:
    def test_sender_port_serializes_full_hockney(self, machine):
        """The paper's single-port model: each message occupies the port
        for alpha + m/beta, so k messages take ~k times one message."""
        fabric = Fabric(machine)
        cost = machine.params.cost(LinkClass.INTRA_SOCKET)
        one = cost.alpha + 1024 / cost.beta
        last = None
        for _ in range(10):
            last = fabric.transmit(0, 1, 1024, post_time=0.0)
        assert last.arrival == pytest.approx(10 * one, rel=0.05)

    def test_receiver_port_serializes(self, machine):
        fabric = Fabric(machine)
        arrivals = [fabric.transmit(src, 0, 1024, post_time=0.0).arrival for src in (1, 1, 1)]
        assert arrivals[0] < arrivals[1] < arrivals[2]

    def test_nic_shared_within_node(self, machine):
        """Two different senders on one node contend for the node NIC."""
        fabric = Fabric(machine)
        rpn = machine.spec.ranks_per_node
        a1 = fabric.transmit(0, rpn, 1 << 20, post_time=0.0).arrival
        a2 = fabric.transmit(1, rpn + 1, 1 << 20, post_time=0.0).arrival
        # Second message (distinct ports, same NIC) lands later.
        assert a2 > a1

    def test_global_link_contention(self, machine):
        """Cross-group traffic from different nodes shares the global link."""
        rpn = machine.spec.ranks_per_node
        fabric = Fabric(machine)
        solo = fabric.transmit(0, 2 * rpn, 1 << 22, post_time=0.0).arrival

        fabric = Fabric(machine)
        sends = []
        for i in range(4):  # four node-pairs across the same group pair
            src = i * rpn  # ranks on nodes 0..3 hmm nodes 0,1 are group 0
            sends.append(src)
        # Same group pair: nodes 0,1 (group 0) -> nodes 4,5 (group 2)? Use
        # node 0 and node 1 senders to nodes in group 1 (nodes 2, 3).
        a1 = fabric.transmit(0, 2 * rpn, 1 << 22, post_time=0.0).arrival
        a2 = fabric.transmit(rpn, 3 * rpn, 1 << 22, post_time=0.0).arrival
        contended = max(a1, a2)
        # If both messages hash to the same global-link lane they serialize;
        # with links_per_pair=2 they may split, so just require no speedup.
        assert contended >= solo

    def test_intra_node_does_not_touch_nic(self, machine):
        fabric = Fabric(machine)
        fabric.transmit(0, 1, 1 << 20, post_time=0.0)
        util = fabric.utilization(horizon=1.0)
        assert not util["nic_tx"] and not util["nic_rx"]


class TestUtilization:
    def test_reports_all_families(self, machine):
        fabric = Fabric(machine)
        fabric.transmit(0, 2 * machine.spec.ranks_per_node, 4096, post_time=0.0)
        util = fabric.utilization(horizon=1.0)
        assert set(util) == {"send_ports", "recv_ports", "nic_tx", "nic_rx", "links"}
        assert util["send_ports"] and util["links"]

    def test_cut_through_extension_counts_as_busy_time(self, machine):
        """Regression: a stage outrun by upstream streaming stays occupied
        until the pipeline drains past it.  The extension used to push
        ``next_free`` without crediting ``busy_time``, so NIC/link
        utilization under-reported whenever the endpoint port (higher
        alpha) was the slow stage."""
        params = machine.params
        rpn = machine.spec.ranks_per_node
        src, dst = 0, rpn  # inter-node, same group: port -> NICs -> port
        cost = params.cost(LinkClass.INTER_NODE)
        nbytes = 1 << 20
        dur = nbytes / cost.beta
        port_dur = cost.alpha + dur
        nic_dur = params.nic_message_overhead + dur
        # The scenario only exercises the bug if the NIC stage is faster
        # than the upstream port stage.
        assert nic_dur < port_dur

        fabric = Fabric(machine)
        fabric.transmit(src, dst, nbytes, post_time=0.0)
        node = machine.spec.node_of(src)
        busy, next_free = fabric._tx_busy[node], fabric._tx_next[node]
        # Single message from t=0: the TX NIC starts with the send port and
        # cannot release before the port stops streaming into it.
        assert busy == pytest.approx(port_dur)
        assert next_free == pytest.approx(busy)
        util = fabric.utilization(horizon=port_dur)
        (frac,) = util["nic_tx"].values()
        assert frac == pytest.approx(1.0)


def _property_machines():
    """Adaptive and oblivious Dragonfly+, fat-tree and torus, 32 ranks each."""
    spec = ClusterSpec(nodes=8, sockets_per_node=2, ranks_per_socket=2)
    networks = (
        DragonflyPlus(nodes_per_group=2, links_per_pair=2),
        FatTree(nodes_per_leaf=2, taper=1.0),
        Torus(dims=(4, 2), bisection_ways=2),
    )
    return [
        Machine(spec=spec, network=network,
                params=dataclasses.replace(NIAGARA_LIKE, adaptive_routing=adaptive))
        for network in networks
        for adaptive in (True, False)
    ]


PROPERTY_MACHINES = _property_machines()


@settings(deadline=None, max_examples=60)
@given(
    machine=st.sampled_from(PROPERTY_MACHINES),
    messages=st.lists(
        st.tuples(
            st.integers(0, 31),                     # src
            st.integers(0, 31),                     # dst
            st.integers(0, 1 << 20),                # nbytes
            st.floats(0.0, 2e-5, allow_nan=False),  # gap since the last post
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_claims_never_overlap(machine, messages):
    """Random transmit sequences with non-decreasing post times: every
    listed resource is busy for no longer than its claims span, no send
    completes before its uncontended Hockney cost, and nothing arrives
    before its send completes."""
    fabric = Fabric(machine)
    post = 0.0
    for src, dst, nbytes, gap in messages:
        post += gap
        t = fabric.transmit(src, dst, nbytes, post)
        cost = machine.params.cost(t.link_class)
        # 1e-12 absorbs one rounding: the fabric multiplies by 1/beta.
        assert t.send_complete >= (post + cost.alpha + nbytes / cost.beta) * (1 - 1e-12)
        assert t.arrival >= t.send_complete

    families = (
        (fabric._send_next, fabric._send_busy),
        (fabric._recv_next, fabric._recv_busy),
        (fabric._tx_next, fabric._tx_busy),
        (fabric._rx_next, fabric._rx_busy),
        (fabric._lane_next, fabric._lane_busy),
    )
    listed = 0
    for next_free, busy in families:
        for nf, b in zip(next_free, busy):
            if nf != -math.inf:
                listed += 1
                # Busy time sums each claim's duration and cut-through
                # extension; 1e-12 absorbs the rounding of those sums.
                assert b <= nf * (1 + 1e-12)
    util = fabric.utilization(0.0)
    assert sum(len(family) for family in util.values()) == listed
    assert all(v == 0.0 for family in util.values() for v in family.values())


def _machine(**kw):
    return MachineSpec(nodes=8, sockets_per_node=2, ranks_per_socket=2, **kw).build()


def test_equal_machines_share_one_route_table():
    a, b = _machine(), _machine()
    assert a is not b
    table = routes_for(a)
    assert routes_for(b) is table
    # A route resolved through one machine serves the other's fabric.
    dst = 3 * a.spec.ranks_per_node  # another Dragonfly+ group
    Fabric(a).transmit(0, dst, 64, post_time=0.0)
    rows = dict(table.rows)
    Fabric(b).transmit(0, dst, 64, post_time=0.0)
    assert table.rows == rows


def test_permuted_and_oblivious_machines_get_their_own_tables():
    plain = _machine()
    permuted = _machine(placement_seed=3)
    oblivious = dataclasses.replace(
        plain, params=dataclasses.replace(plain.params, adaptive_routing=False)
    )
    tables = [routes_for(m) for m in (plain, permuted, oblivious)]
    assert len({id(t) for t in tables}) == 3
    assert routes_for(_machine(placement_seed=3)) is tables[1]


def test_route_memo_is_bounded():
    """At most the bound; the least recently used table goes first."""
    bound = fabric_module._ROUTE_TABLES_MAX
    kept = routes_for(_machine())
    first = routes_for(Machine.niagara_like(nodes=2, ranks_per_socket=1))
    for nodes in range(3, bound + 6):
        routes_for(Machine.niagara_like(nodes=nodes, ranks_per_socket=1))
        assert len(fabric_module._ROUTE_TABLES) <= bound
        assert routes_for(_machine()) is kept  # each use makes it the most recent
    assert routes_for(Machine.niagara_like(nodes=2, ranks_per_socket=1)) is not first


def test_route_memo_does_not_keep_machines_alive():
    machine = Machine.niagara_like(nodes=4, ranks_per_socket=2, nodes_per_group=2)
    dst = 2 * machine.spec.ranks_per_node  # another Dragonfly+ group
    fabric = Fabric(machine)
    fabric.transmit(0, dst, 64, post_time=0.0)
    ops = [None] * machine.spec.n_ranks
    ops[0] = [("send", dst, 1, 0, (0,)), ("wait",)]
    ops[dst] = [("recv", 0, 0, 1), ("wait",)]
    deliveries = [[] for _ in ops]
    deliveries[dst] = [0]
    plan = _compile_multi(Schedule(len(ops), ops, deliveries), machine)
    table = routes_for(machine)
    alive = weakref.ref(machine)

    del machine, fabric, plan
    gc.collect()
    assert alive() is None
    # The entry is keyed on structure, so it outlives the machine and
    # serves the next equal one.
    assert any(t is table for t in fabric_module._ROUTE_TABLES.values())
    again = Machine.niagara_like(nodes=4, ranks_per_socket=2, nodes_per_group=2)
    assert routes_for(again) is table


@pytest.mark.parametrize("name,kwargs", [
    ("naive", {}),
    ("common_neighbor", {"k": 4}),
    ("distance_halving", {}),
    ("bruck", {}),
    ("hierarchical", {}),
])
def test_fast_path_compiles_against_the_engine_filled_table(name, kwargs):
    """The engine fills the shared table in its event order; the fast path,
    on a second, equal machine, compiles against those lane ids — numbered
    differently from its own first-use order — and agrees bit for bit."""
    spec = MachineSpec(nodes=8, sockets_per_node=2, ranks_per_socket=2)
    topology = TopologySpec("random", 32, density=0.4, seed=11).build()

    # The lane ids the compiler alone assigns, on a fresh table.
    fabric_module._ROUTE_TABLES.clear()
    machine = spec.build()
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    ctx = ExecutionContext(topology, machine, 1, list(range(32)), [{} for _ in range(32)])
    _compile_multi(algorithm.schedule_for(ctx), machine)
    own_order = list(routes_for(machine).lane_keys)
    fabric_module._ROUTE_TABLES.clear()
    reset_plan_cache()
    engine_machine, fast_machine = spec.build(), spec.build()
    # The engine meets the group pairs in another order first: a naive run
    # in which every rank sends only to its mirror image 31 - u resolves
    # the routes between groups 0 and 3 and groups 1 and 2 before any other.
    mirror_pairs = DistGraphTopology(32, [[31 - u] for u in range(32)])
    des_options = RunOptions(sim_mode="des")
    run_allgather("naive", mirror_pairs, engine_machine, 1024, options=des_options)
    des = run_allgather(get_algorithm(name, **kwargs), topology, engine_machine,
                        1024, options=des_options)
    table = routes_for(fast_machine)
    engine_order = list(table.lane_keys)
    assert sorted(engine_order, key=repr) == sorted(own_order, key=repr)
    assert engine_order != own_order
    fast = run_allgather(get_algorithm(name, **kwargs), topology, fast_machine,
                         1024, options=RunOptions(sim_mode="auto"))
    assert fast.sim_path == "fastpath"
    assert plan_cache_stats()["misses"] >= 1 and plan_cache_stats()["hits"] == 0
    assert table.lane_keys == engine_order
    assert fast.simulated_time == des.simulated_time
    assert fast.finish_times == des.finish_times
