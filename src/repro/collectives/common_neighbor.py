"""The Common Neighbor algorithm (Ghazimirsaeed et al., IPDPS'19).

Groups of ``K`` ranks (consecutive, socket-local — the collaborating
processes must be cheap to reach) combine messages: members first exchange
their blocks inside the group (phase 1), then, for every outgoing neighbor
shared by group members, a single *assignee* delivers one combined message
carrying all the group's blocks destined to that neighbor (phase 2).
Neighbors of only one member keep their original sender, so combining never
adds hops where it cannot remove messages.

The paper runs this baseline "with various values of K" and reports the
best; the benchmarks do the same (see ``repro.bench``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from repro.cluster.machine import Machine
from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    register_algorithm,
)
from repro.cluster.spec import LinkClass
from repro.topology.graph import DistGraphTopology
from repro.utils.validation import check_positive

#: Tags for the two phases.
P1_TAG = 1
P2_TAG = 2


@dataclass
class _RankPlan:
    """Per-rank plan: who I exchange with in each phase."""

    group: tuple[int, ...] = ()
    phase1_sends: tuple[int, ...] = ()           #: members I send my block to
    phase1_recvs: tuple[int, ...] = ()           #: members whose block I receive
    phase1_for_me: tuple[int, ...] = ()          #: subset that lands in my rbuf
    phase2_sends: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (target, blocks)
    phase2_recvs: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (assignee, blocks)
    self_copy: bool = False


@register_algorithm(
    capabilities=("replan", "oracle", "bench", "tunable"),
    label="cn",
    bench_kwargs=(("k", 4),),
    tuning=(("k", (2, 4, 8)),),
)
class CommonNeighborAllgather(NeighborhoodAllgatherAlgorithm):
    """Message combining over groups of ``k`` common-neighbor ranks."""

    name = "common_neighbor"

    def __init__(self, k: int = 4) -> None:
        super().__init__()
        self.k = check_positive("k", k)
        self.plans: list[_RankPlan] | None = None

    def replan(self, survivors, delivered_state):
        """Carry the group size ``k`` into the shrunk communicator; groups
        are re-formed from scratch over the survivors' residual topology."""
        return CommonNeighborAllgather(k=self.k)

    # -------------------------------------------------------------- building
    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        start = time.perf_counter()
        n = topology.n
        plans = [_RankPlan() for _ in range(n)]
        groups = self._form_groups(n, machine)

        # Setup communication, as in the published design: every rank learns
        # the outgoing-neighbor lists of the others to build its Matrix A
        # (an all-to-all of neighbor lists, n*(n-1) messages), plus the
        # intra-group exchange that settles assignments.
        setup_messages = n * (n - 1)
        for group in groups:
            setup_messages += len(group) * (len(group) - 1)
            self._plan_group(topology, group, plans)
        # Mirror phase-2 sends into receive lists.
        recvs: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(n)}
        for r, plan in enumerate(plans):
            if r in topology.out_neighbors(r):
                plan.self_copy = True
            for target, blocks in plan.phase2_sends:
                recvs[target].append((r, blocks))
        for v, lst in recvs.items():
            plans[v].phase2_recvs = tuple(sorted(lst))
        self.plans = plans

        wall = time.perf_counter() - start
        cost = machine.params.cost(LinkClass.INTER_NODE)
        # Neighbor lists are outdegree 4-byte rank ids.
        avg_list_bytes = 4.0 * topology.average_outdegree
        simulated = 2.0 * (setup_messages / max(1, n)) * (cost.alpha + avg_list_bytes / cost.beta)
        return SetupStats(
            protocol_messages=setup_messages,
            simulated_time=simulated,
            wall_time=wall,
            extras={"k": self.k, "groups": len(groups)},
        )

    def _form_groups(self, n: int, machine: Machine) -> list[tuple[int, ...]]:
        """Consecutive chunks of ``k`` ranks, never straddling a socket."""
        L = machine.spec.ranks_per_socket
        groups: list[tuple[int, ...]] = []
        for socket_start in range(0, n, L):
            socket_end = min(socket_start + L, n)
            for lo in range(socket_start, socket_end, self.k):
                groups.append(tuple(range(lo, min(lo + self.k, socket_end))))
        return groups

    def _plan_group(
        self,
        topology: DistGraphTopology,
        group: tuple[int, ...],
        plans: list[_RankPlan],
    ) -> None:
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

    # -------------------------------------------------------------- operation
    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple]:
        self.require_setup()
        assert self.plans is not None
        plan = self.plans[rank]
        my_size = ctx.size_of(rank)
        own = (rank,)
        if plan.self_copy:
            yield ("charge", my_size)
            yield ("deliver", own)

        # Phase 1: exchange blocks within the group.
        for src in plan.phase1_recvs:
            yield ("recv", src, P1_TAG, ctx.size_of(src))
        for dst in plan.phase1_sends:
            yield ("send", dst, my_size, P1_TAG, own)
        if plan.phase1_recvs or plan.phase1_sends:
            yield ("wait",)
        for src in plan.phase1_recvs:
            yield ("charge", ctx.size_of(src))  # stage into the combining buffer
        if plan.phase1_for_me:
            yield ("deliver", plan.phase1_for_me)

        # Phase 2: one combined message per assigned external target.
        for target, blocks in plan.phase2_sends:
            nbytes = ctx.sizes_of(blocks)
            yield ("charge", nbytes)  # pack
            yield ("send", target, nbytes, P2_TAG, blocks)
        for sender, blocks in plan.phase2_recvs:
            yield ("recv", sender, P2_TAG, ctx.sizes_of(blocks))
        if plan.phase2_sends or plan.phase2_recvs:
            yield ("wait",)
        for _, blocks in plan.phase2_recvs:
            yield ("charge", ctx.sizes_of(blocks))  # unpack into rbuf
            yield ("deliver", blocks)
