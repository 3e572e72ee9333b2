"""The contention analyzer against a per-message recount.

``analyze_contention`` reads ports, NICs and lanes from the machine's route
rows.  The reference below classifies every message on its own, through
``Machine.link_class``, ``ClusterSpec.node_of`` and
``NetworkTopology.shared_link_keys``, and must give the same reports.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.cluster import DragonflyPlus, FatTree, Machine, Torus
from repro.cluster.hockney import NIAGARA_LIKE
from repro.cluster.network import SingleSwitch
from repro.cluster.spec import ClusterSpec, LinkClass
from repro.collectives.base import ExecutionContext, get_algorithm
from repro.sim.schedule import _stage_messages, analyze_contention
from repro.topology import erdos_renyi_topology

N_RANKS = 48
DENSITIES = (0.05, 0.2, 0.5)
ALGORITHMS = (
    ("naive", {}),
    ("common_neighbor", {"k": 4}),
    ("distance_halving", {}),
    ("bruck", {}),
    ("hierarchical", {}),
)


def _machines() -> dict[str, Machine]:
    spec = ClusterSpec(nodes=6, sockets_per_node=2, ranks_per_socket=4)
    machines = {}
    for adaptive in (True, False):
        params = dataclasses.replace(NIAGARA_LIKE, adaptive_routing=adaptive)
        routing = "adaptive" if adaptive else "oblivious"
        dragonfly = Machine(spec, DragonflyPlus(nodes_per_group=2), params)
        machines[f"dragonfly-{routing}"] = dragonfly
        machines[f"fattree-{routing}"] = Machine(
            spec, FatTree(nodes_per_leaf=2, taper=1.0), params)
        machines[f"torus-{routing}"] = Machine(
            spec, Torus(dims=(3, 2), bisection_ways=2), params)
        machines[f"permuted-{routing}"] = dragonfly.with_node_permutation(
            [3, 0, 5, 1, 4, 2])
    machines["switch"] = Machine(spec, SingleSwitch(), NIAGARA_LIKE)
    return machines


MACHINES = _machines()


def _recount(schedule, machine: Machine) -> list[tuple[int, int, dict]]:
    """Per stage ``(stage, messages, max_claims)``, one message at a time."""
    node_of = machine.spec.node_of
    out = []
    for stage, msgs in enumerate(_stage_messages(schedule)):
        if not msgs:
            out.append((stage, 0, {}))
            continue
        counts = {family: Counter() for family in
                  ("send_ports", "recv_ports", "nic_tx", "nic_rx", "links")}
        for src, dst, _nbytes in msgs:
            if src == dst:
                continue
            counts["send_ports"][src] += 1
            counts["recv_ports"][dst] += 1
            cls = machine.link_class(src, dst)
            if cls in (LinkClass.INTER_NODE, LinkClass.INTER_GROUP):
                ns, nd = node_of(src), node_of(dst)
                counts["nic_tx"][ns] += 1
                counts["nic_rx"][nd] += 1
                if cls is LinkClass.INTER_GROUP:
                    for key in machine.network.shared_link_keys(ns, nd):
                        counts["links"][key] += 1
        out.append((stage, len(msgs), {
            family: max(c.values(), default=0) for family, c in counts.items()
        }))
    return out


@pytest.mark.parametrize("machine_name", list(MACHINES))
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("name,kwargs", ALGORITHMS, ids=[a for a, _ in ALGORITHMS])
def test_reports_match_per_message_recount(name, kwargs, density, machine_name):
    machine = MACHINES[machine_name]
    topology = erdos_renyi_topology(N_RANKS, density, seed=9)
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    ctx = ExecutionContext(
        topology=topology, machine=machine, msg_size=1024,
        payloads=list(range(N_RANKS)), results=[{} for _ in range(N_RANKS)],
    )
    schedule = algorithm.schedule_for(ctx)
    reports = analyze_contention(schedule, machine)
    assert [(r.stage, r.messages, r.max_claims) for r in reports] == \
        _recount(schedule, machine)
