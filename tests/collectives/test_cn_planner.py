"""Common Neighbor's mask planner against the per-target planner it replaced.

``reference_plans`` is the earlier planner, kept here as the reference: it
walks every (group, target) pair through dicts and sets, picks each shared
target's assignee with ``min(..., key=...)`` and mirrors the phase-2 sends
into sorted receive lists.  ``repro.collectives.common_neighbor._plan``
must build equal ``_RankPlan`` lists (and equal reprs, so no numpy scalar
leaks into a plan) on every graph below.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.cluster import Machine
from repro.collectives.common_neighbor import CommonNeighborAllgather, _plan, _RankPlan
from repro.exec import MachineSpec, TopologySpec
from repro.topology import DistGraphTopology, erdos_renyi_topology


def reference_plans(
    topology: DistGraphTopology, groups: list[tuple[int, ...]]
) -> list[_RankPlan]:
    """The per-target planner: ``_plan_group`` per group, then the mirror loop."""
    n = topology.n
    plans = [_RankPlan() for _ in range(n)]
    for group in groups:
        _reference_plan_group(topology, group, plans)
    recvs: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(n)}
    for r, plan in enumerate(plans):
        if r in topology.out_neighbors(r):
            plan.self_copy = True
        for target, blocks in plan.phase2_sends:
            recvs[target].append((r, blocks))
    for v, lst in recvs.items():
        plans[v].phase2_recvs = tuple(sorted(lst))
    return plans


def _reference_plan_group(topology, group, plans) -> None:
    members = set(group)
    # srcs[v]: group members whose block target v needs, in member order.
    srcs: dict[int, list[int]] = {}
    for g in group:
        for v in topology.out_neighbors(g):
            if v == g:
                continue  # self-loops handled locally
            srcs.setdefault(v, []).append(g)

    # Assignment: member targets deliver to themselves (via phase 1);
    # single-source targets keep their original sender; shared external
    # targets round-robin to the least-loaded member.
    load = {g: 0 for g in group}
    assignee: dict[int, int] = {}
    for v in sorted(srcs):
        if v in members:
            assignee[v] = v
        elif len(srcs[v]) == 1:
            assignee[v] = srcs[v][0]
            load[srcs[v][0]] += 1
        else:
            best = min(group, key=lambda g: (load[g], g))
            assignee[v] = best
            load[best] += len(srcs[v])

    # Phase-1 pairs: g's block must reach assignee a for every target.
    p1_pairs: set[tuple[int, int]] = set()
    for v, a in assignee.items():
        for g in srcs[v]:
            if g != a:
                p1_pairs.add((g, a))

    p1_send: dict[int, list[int]] = {g: [] for g in group}
    p1_recv: dict[int, list[int]] = {g: [] for g in group}
    for g, a in sorted(p1_pairs):
        p1_send[g].append(a)
        p1_recv[a].append(g)

    p2_send: dict[int, list[tuple[int, tuple[int, ...]]]] = {g: [] for g in group}
    for v in sorted(assignee):
        a = assignee[v]
        if v in members:
            continue  # delivered by phase 1 + local rbuf copy
        p2_send[a].append((v, tuple(srcs[v])))

    for g in group:
        plan = plans[g]
        plan.group = group
        plan.phase1_sends = tuple(p1_send[g])
        plan.phase1_recvs = tuple(p1_recv[g])
        plan.phase1_for_me = tuple(
            src for src in p1_recv[g] if g in topology.out_neighbors(src)
        )
        plan.phase2_sends = tuple(p2_send[g])


def _assert_same_plans(topology, machine, k):
    groups = CommonNeighborAllgather(k=k)._form_groups(topology.n, machine)
    got = _plan(topology, groups)
    want = reference_plans(topology, groups)
    assert len(got) == len(want) == topology.n
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"rank {rank}: {g} != {w}"
    assert repr(got) == repr(want)


def _machine(ranks_per_socket: int, n: int) -> Machine:
    """One socket per node, enough nodes for ``n`` ranks."""
    nodes = -(-n // ranks_per_socket)
    return Machine.niagara_like(nodes=nodes, sockets_per_node=1, ranks_per_socket=ranks_per_socket)


def _benchmark_cn_patterns():
    """A ``(topology spec, machine spec, k)`` param for every Common
    Neighbor pattern whose setup the repository benchmark times
    (``perf/``), on its two seeds."""
    path = Path(__file__).resolve().parents[2] / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    cases = []
    for name in workloads.WORKLOADS:
        for seed in (23, 24):
            for algorithm, kwargs, topology, machine in workloads.setup_targets(name, seed):
                if algorithm == "common_neighbor":
                    case_id = f"{name}-{seed}-d{topology.density}"
                    cases.append(pytest.param(topology, machine, dict(kwargs)["k"], id=case_id))
    return cases


@pytest.mark.parametrize("topology,machine,k", _benchmark_cn_patterns())
def test_benchmark_setup_patterns(topology, machine, k):
    _assert_same_plans(topology.build(), machine.build(), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 13])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 1.0])
def test_random_graphs(k, density):
    """k above the socket's 12 ranks too; 60 ranks fill five sockets."""
    topology = erdos_renyi_topology(60, density, seed=int(1000 * density) + k)
    _assert_same_plans(topology, _machine(12, 60), k)


@pytest.mark.parametrize("seed", range(12))
def test_irregular_graphs(seed):
    """Sockets whose size k does not divide, a short last socket, self-loops,
    ranks without out-edges, and skewed out-degrees."""
    rng = random.Random(seed)
    rps = rng.choice([5, 7, 10])
    n = rng.randrange(rps + 1, 6 * rps)  # the last socket is often partial
    out = {}
    for u in range(n):
        if rng.random() < 0.2:
            continue  # no out-edges
        degree = rng.choice([1, 2, n // 3, n])
        out[u] = rng.sample(range(n), min(degree, n))  # may include u
    topology = DistGraphTopology(n, out)
    for k in (2, 3, 4, rps + 2):
        _assert_same_plans(topology, _machine(rps, n), k)


def test_group_wider_than_an_int64_mask():
    """k=64 on a 70-rank socket: one group of 64 ranks, whose masks need 64
    bits, and a group of 6."""
    topology = erdos_renyi_topology(70, 0.3, seed=3)
    _assert_same_plans(topology, _machine(70, 70), 64)
    star = DistGraphTopology(70, {u: [69] for u in range(70)})  # every bit set
    _assert_same_plans(star, _machine(70, 70), 64)


def test_setup_leaves_no_object_per_target():
    # On a 264-rank density-0.3 graph (66 groups of 4, 13k group-target
    # pairs), the per-target planner runs 55 young collections, a mask
    # planner that still looped over every target ran 38, and this one 24:
    # its one object per pair is the (target, blocks) send entry.  The
    # bound sits between the last two, so a planner that makes objects per
    # target again fails it.
    topology = TopologySpec("random", 264, density=0.3, seed=5).build()
    machine = MachineSpec.for_ranks(264, 12).build()
    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    try:
        before = gc.get_stats()[0]["collections"]
        CommonNeighborAllgather(k=4).setup(topology, machine)
        young = gc.get_stats()[0]["collections"] - before
    finally:
        if not enabled:
            gc.disable()
    assert young < 32, f"{young} young collections in one setup"
