"""Hierarchical leader-based neighborhood allgather.

The paper's related work (Ghazimirsaeed et al., SC'20 [9]) improves
medium/large-message neighborhood collectives with a *hierarchical,
load-aware* design: node leaders aggregate their node's outgoing blocks,
exchange combined node-to-node messages, and distribute incoming blocks
locally.  The paper cites it but benchmarks against the Common Neighbor
algorithm; we ship this as an additional baseline because large-message
users would reach for it.

Three phases per call:

1. **Aggregation** (intra-node): each rank with off-node targets sends its
   block to its assigned leader (round-robin over ``leaders_per_node``
   leaders — the load-aware knob).
2. **Exchange** (inter-node): leader ``a`` sends leader ``b`` one combined
   message with every block of ``a``'s flock needed by ``b``'s flock.
3. **Distribution** (intra-node): leaders forward received blocks to their
   local targets, one combined message per target.

Intra-node edges bypass the hierarchy (direct shared-memory sends), and
self-edges are local copies.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    register_algorithm,
)
from repro.topology.graph import DistGraphTopology
from repro.utils.validation import check_positive

#: Phase tags.
AGG_TAG, EXCH_TAG, DIST_TAG, LOCAL_TAG = 11, 12, 13, 14


@dataclass
class _HierPlan:
    """Per-rank plan for the three phases."""

    leader: int = -1                      #: my assigned leader (may be myself)
    agg_send: bool = False                #: phase 1: ship my block to the leader
    agg_recvs: tuple[int, ...] = ()       #: leader: flock members whose block arrives
    exch_sends: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (peer leader, blocks)
    exch_recvs: tuple[tuple[int, tuple[int, ...]], ...] = ()
    dist_sends: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (local target, blocks)
    dist_recvs: tuple[tuple[int, tuple[int, ...]], ...] = ()
    local_sends: tuple[int, ...] = ()     #: direct intra-node targets
    local_recvs: tuple[int, ...] = ()
    self_copy: bool = False


@register_algorithm
class HierarchicalAllgather(NeighborhoodAllgatherAlgorithm):
    """Leader-based hierarchical neighborhood allgather (SC'20-style)."""

    name = "hierarchical"

    def __init__(self, leaders_per_node: int = 2) -> None:
        super().__init__()
        self.leaders_per_node = check_positive("leaders_per_node", leaders_per_node)
        self.plans: list[_HierPlan] | None = None

    # ------------------------------------------------------------------ setup
    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        start = time.perf_counter()
        n = topology.n
        spec = machine.spec
        n_leaders = min(self.leaders_per_node, spec.ranks_per_node)

        def node_of(r: int) -> int:
            return spec.node_of(r)

        def leader_of(r: int) -> int:
            base = node_of(r) * spec.ranks_per_node
            local = r - base
            slot = local % n_leaders
            return min(base + slot, n - 1)

        plans = [_HierPlan() for _ in range(n)]
        for r in range(n):
            plans[r].leader = leader_of(r)

        # (leader_a, leader_b) -> ordered blocks; (leader_b, target) -> blocks
        exch: dict[tuple[int, int], list[int]] = defaultdict(list)
        dist: dict[tuple[int, int], list[int]] = defaultdict(list)
        agg_needed: dict[int, set[int]] = defaultdict(set)   # leader -> members
        local_edges: list[tuple[int, int]] = []

        for u in range(n):
            for v in topology.out_neighbors(u):
                if v == u:
                    plans[u].self_copy = True
                elif node_of(u) == node_of(v):
                    local_edges.append((u, v))
                else:
                    a, b = leader_of(u), leader_of(v)
                    agg_needed[a].add(u)
                    key = (a, b)
                    if u not in exch[key]:
                        exch[key].append(u)
                    dist[(b, v)].append(u)

        for leader, members in agg_needed.items():
            senders = tuple(sorted(m for m in members if m != leader))
            plans[leader].agg_recvs = senders
            for m in senders:
                plans[m].agg_send = True
            if leader in members:
                pass  # leader's own block is already local

        exch_recv: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
        for (a, b), blocks in sorted(exch.items()):
            if a == b:
                continue  # both flocks on... distinct nodes ⇒ a != b always
            plans[a].exch_sends += ((b, tuple(blocks)),)
            exch_recv[b].append((a, tuple(blocks)))
        for b, lst in exch_recv.items():
            plans[b].exch_recvs = tuple(sorted(lst))

        dist_recv: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)
        for (b, v), blocks in sorted(dist.items()):
            blocks_t = tuple(dict.fromkeys(blocks))
            if v == b:
                continue  # the leader is itself the target: recorded on receive
            plans[b].dist_sends += ((v, blocks_t),)
            dist_recv[v].append((b, blocks_t))
        for v, lst in dist_recv.items():
            plans[v].dist_recvs = tuple(sorted(lst))

        for u, v in local_edges:
            plans[u].local_sends += (v,)
            plans[v].local_recvs += (u,)

        self.plans = plans
        wall = time.perf_counter() - start
        # Setup cost: members announce their off-node neighbor lists to the
        # leaders; leaders exchange per-node summaries.
        setup_messages = sum(len(p.agg_recvs) for p in plans) + len(exch)
        cost = machine.params.cost(LinkClass.INTER_NODE)
        simulated = 2.0 * (setup_messages / max(1, n)) * cost.alpha
        return SetupStats(
            protocol_messages=setup_messages,
            simulated_time=simulated,
            wall_time=wall,
            extras={
                "leaders_per_node": n_leaders,
                "exchange_pairs": len(exch),
            },
        )

    # -------------------------------------------------------------- operation
    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple]:
        self.require_setup()
        assert self.plans is not None
        plan = self.plans[rank]
        sizes_of = ctx.sizer()
        size = ctx.size_table
        my_size = size[rank]
        own = (rank,)
        if plan.self_copy:
            yield ("charge", my_size)
            yield ("deliver", own)

        # Phase 0+1: direct intra-node edges and aggregation to leaders.
        for m in plan.agg_recvs:
            yield ("recv", m, AGG_TAG, size[m])
        for u in plan.local_recvs:
            yield ("recv", u, LOCAL_TAG, size[u])
        if plan.agg_send:
            yield ("send", plan.leader, my_size, AGG_TAG, own)
        for v in plan.local_sends:
            yield ("send", v, my_size, LOCAL_TAG, own)
        if plan.agg_send or plan.agg_recvs or plan.local_sends or plan.local_recvs:
            yield ("wait",)
        if plan.local_recvs:
            yield ("deliver", plan.local_recvs)
        for m in plan.agg_recvs:
            yield ("charge", size[m])  # stage into the node buffer

        # Phase 2: leader-to-leader combined exchange.
        for peer, block_ids in plan.exch_sends:
            nbytes = sizes_of(block_ids)
            yield ("charge", nbytes)
            yield ("send", peer, nbytes, EXCH_TAG, block_ids)
        for peer, block_ids in plan.exch_recvs:
            yield ("recv", peer, EXCH_TAG, sizes_of(block_ids))
        if plan.exch_sends or plan.exch_recvs:
            yield ("wait",)
        out_neighbors = ctx.topology.out_neighbors
        for _, block_ids in plan.exch_recvs:
            yield ("charge", sizes_of(block_ids))
            # The leader may itself be a target of a block it forwards.
            mine = tuple(src for src in block_ids if rank in out_neighbors(src))
            if mine:
                yield ("deliver", mine)

        # Phase 3: distribute to local targets.
        for target, block_ids in plan.dist_sends:
            nbytes = sizes_of(block_ids)
            yield ("charge", nbytes)
            yield ("send", target, nbytes, DIST_TAG, block_ids)
        for leader, block_ids in plan.dist_recvs:
            yield ("recv", leader, DIST_TAG, sizes_of(block_ids))
        if plan.dist_sends or plan.dist_recvs:
            yield ("wait",)
        for _, block_ids in plan.dist_recvs:
            yield ("charge", sizes_of(block_ids))
            yield ("deliver", block_ids)
