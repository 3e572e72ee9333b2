"""Locality-aware Bruck neighborhood allgather (Bienz et al., arXiv:2206.03564).

The classic Bruck allgather finishes in ``ceil(log2 P)`` rotation rounds:
in round ``r`` process ``i`` sends everything it holds so far to
``(i - 2^r) mod P`` and receives from ``(i + 2^r) mod P``.  The
locality-aware variant keeps the log-round structure but runs it between
*group leaders* only (one leader per socket, or per node with
``locality="node"``), bracketed by cheap local stages:

1. **Gather** — every *active* rank (one with a non-self outgoing
   neighbor) sends its block to its group leader.
2. **Rotation** — the leaders run the Bruck rotation over the ``S``
   groups.  Leader ``g`` at offset ``o`` sends the blocks of groups
   ``[g, g + cnt) mod S`` to leader ``(g - o) mod S`` and receives the
   blocks of groups ``[g + o, g + o + cnt) mod S``; after ``floor(log2 S)``
   doubling rounds plus one partial remainder round every leader holds
   every active block.  A rotation message whose block set is empty is
   skipped on both sides (the plan is static, so sender and receiver
   agree).
3. **Redistribute** — each leader sends every group member one combined
   message carrying exactly the blocks of that member's incoming
   neighbors; its own incoming blocks it copies locally.

The round count is topology-independent (``O(log S)`` latency terms versus
the naive design's per-edge messages), bandwidth is paid for the *active*
blocks only, and all inter-group traffic flows leader-to-leader — the same
socket/node locality hierarchy the paper's designs exploit.  Like the
other backends it is defined once, as the per-rank op stream of
:meth:`~LocalityAwareBruckAllgather.rank_ops`, which the engine runs and the
hybrid fast path replays bit-identically.
"""

from __future__ import annotations

import time
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

#: Tags: gather and redistribution stages, plus one tag per rotation round
#: (``BRUCK_ROUND_TAG + r``).  Distinct from the other algorithms' tag
#: spaces so mixed traces stay readable.
BRUCK_GATHER_TAG = 21
BRUCK_DIST_TAG = 22
BRUCK_ROUND_TAG = 23

#: Valid ``locality`` arguments -> the group width they induce.
LOCALITIES = ("socket", "node")


@dataclass
class _BruckPlan:
    """Per-rank plan: every message this rank exchanges, all three stages."""

    gather_send: int = -1                 #: leader I send my block to (-1: none)
    gather_recvs: tuple[int, ...] = ()    #: members whose block I collect
    #: Rotation rounds, leaders only: (send_to, send_blocks, recv_from,
    #: recv_blocks, tag); -1 peers mark a skipped (empty) direction.
    rounds: tuple[tuple[int, tuple[int, ...], int, tuple[int, ...], int], ...] = ()
    dist_sends: tuple[tuple[int, tuple[int, ...]], ...] = ()  #: (member, blocks)
    dist_recv: tuple[int, tuple[int, ...]] | None = None      #: (leader, blocks)
    self_needs: tuple[int, ...] = ()      #: leader: blocks I copy from my store
    self_copy: bool = False               #: self-loop edge -> local rbuf copy

    @property
    def has_work(self) -> bool:
        return bool(
            self.self_copy
            or self.gather_send >= 0
            or self.gather_recvs
            or self.rounds
            or self.dist_sends
            or self.dist_recv
        )


def _rotation_offsets(n_groups: int) -> tuple[tuple[int, int], ...]:
    """Bruck round structure for ``n_groups``: (offset, chunk_count) pairs.

    ``floor(log2 S)`` doubling rounds (offset ``2^r`` moving ``2^r``
    chunks) plus, when ``S`` is not a power of two, one remainder round
    (offset ``2^K`` moving the last ``S - 2^K`` chunks).  All offsets are
    distinct modulo ``S``, so each round's tag pairs with a unique peer.
    """
    if n_groups <= 1:
        return ()
    k = n_groups.bit_length() - 1
    rounds = [(1 << r, 1 << r) for r in range(k)]
    rem = n_groups - (1 << k)
    if rem:
        rounds.append((1 << k, rem))
    return tuple(rounds)


@register_algorithm(
    capabilities=("replan", "oracle", "bench"),
    label="bruck",
)
class LocalityAwareBruckAllgather(NeighborhoodAllgatherAlgorithm):
    """Rotation-indexed log-round allgather between socket/node leaders.

    Parameters
    ----------
    locality:
        ``"socket"`` (default) groups ranks by socket — one rotation
        participant per socket, matching the paper's ``L``-rank locality
        domains; ``"node"`` widens the groups to whole nodes (fewer,
        fatter rotation rounds).
    """

    name = "bruck"

    def __init__(self, locality: str = "socket") -> None:
        super().__init__()
        if locality not in LOCALITIES:
            raise ValueError(
                f"locality must be one of {LOCALITIES}, got {locality!r}"
            )
        self.locality = locality
        self.plans: list[_BruckPlan] | None = None

    def replan(self, survivors, delivered_state):
        """Carry the locality domain into the shrunk communicator; groups,
        leaders, and rotation rounds are rebuilt over the survivors'
        residual topology."""
        return LocalityAwareBruckAllgather(locality=self.locality)

    # -------------------------------------------------------------- building
    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        start = time.perf_counter()
        n = topology.n
        width = (
            machine.spec.ranks_per_socket
            if self.locality == "socket"
            else machine.spec.ranks_per_node
        )
        n_groups = -(-n // width)  # ceil: block placement keeps groups contiguous
        groups = [range(g * width, min((g + 1) * width, n)) for g in range(n_groups)]
        leaders = [g * width for g in range(n_groups)]

        def active(u: int) -> bool:
            out = topology.out_neighbors(u)
            return bool(out) and out != (u,)

        # chunks[g]: the group's active blocks, the unit the rotation moves.
        chunks = [tuple(u for u in grp if active(u)) for grp in groups]
        plans = [_BruckPlan() for _ in range(n)]
        offsets = _rotation_offsets(n_groups)

        setup_messages = 0
        for g, grp in enumerate(groups):
            leader = leaders[g]
            plan = plans[leader]
            # Stage 1 — members announce + send their block to the leader.
            plan.gather_recvs = tuple(u for u in chunks[g] if u != leader)
            for u in plan.gather_recvs:
                plans[u].gather_send = leader
            setup_messages += 2 * (len(grp) - 1)  # neighbor lists + manifests

            # Stage 2 — rotation rounds (leaders agree on chunk composition).
            rounds = []
            for idx, (offset, cnt) in enumerate(offsets):
                send_blocks = tuple(
                    u for j in range(cnt) for u in chunks[(g + j) % n_groups]
                )
                recv_blocks = tuple(
                    u
                    for j in range(cnt)
                    for u in chunks[(g + offset + j) % n_groups]
                )
                send_to = leaders[(g - offset) % n_groups] if send_blocks else -1
                recv_from = leaders[(g + offset) % n_groups] if recv_blocks else -1
                if send_to >= 0 or recv_from >= 0:
                    rounds.append(
                        (send_to, send_blocks, recv_from, recv_blocks,
                         BRUCK_ROUND_TAG + idx)
                    )
                setup_messages += 1  # per-round chunk-composition exchange
            plan.rounds = tuple(rounds)

            # Stage 3 — redistribute exactly what each member needs.
            dist_sends = []
            for m in grp:
                needed = tuple(src for src in topology.in_neighbors(m) if src != m)
                if m == leader:
                    plan.self_needs = needed
                elif needed:
                    dist_sends.append((m, needed))
                    plans[m].dist_recv = (leader, needed)
                if m in topology.out_neighbors(m):
                    plans[m].self_copy = True
            plan.dist_sends = tuple(dist_sends)
        self.plans = plans

        wall = time.perf_counter() - start
        cost = machine.params.cost(LinkClass.INTER_NODE)
        avg_list_bytes = 4.0 * topology.average_outdegree
        simulated = 2.0 * (setup_messages / max(1, n)) * (
            cost.alpha + avg_list_bytes / cost.beta
        )
        return SetupStats(
            protocol_messages=setup_messages,
            simulated_time=simulated,
            wall_time=wall,
            extras={
                "locality": self.locality,
                "groups": n_groups,
                "rounds": len(offsets),
            },
        )

    # -------------------------------------------------------------- operation
    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple] | None:
        self.require_setup()
        assert self.plans is not None
        plan = self.plans[rank]
        if not plan.has_work:
            return None
        return self._ops(ctx, rank, plan)

    @staticmethod
    def _ops(ctx: ExecutionContext, rank: int, plan: _BruckPlan) -> Iterator[tuple]:
        my_size = ctx.size_of(rank)
        if plan.self_copy:
            yield ("charge", my_size)
            yield ("deliver", (rank,))

        # Stage 1 — gather into the leader's rotation store.
        for src in plan.gather_recvs:
            yield ("recv", src, BRUCK_GATHER_TAG, ctx.size_of(src))
        if plan.gather_send >= 0:
            yield ("send", plan.gather_send, my_size, BRUCK_GATHER_TAG, (rank,))
        if plan.gather_recvs or plan.gather_send >= 0:
            yield ("wait",)
        for src in plan.gather_recvs:
            yield ("charge", ctx.size_of(src))  # stage into store

        # Stage 2 — rotation rounds.
        for send_to, send_blocks, recv_from, recv_blocks, tag in plan.rounds:
            if recv_from >= 0:
                yield ("recv", recv_from, tag, ctx.sizes_of(recv_blocks))
            if send_to >= 0:
                nbytes = ctx.sizes_of(send_blocks)
                yield ("charge", nbytes)  # pack rotation message
                yield ("send", send_to, nbytes, tag, send_blocks)
            yield ("wait",)
            if recv_from >= 0:
                yield ("charge", ctx.sizes_of(recv_blocks))  # unpack

        # Stage 3 — redistribute to members / local copies.
        for member, blocks in plan.dist_sends:
            nbytes = ctx.sizes_of(blocks)
            yield ("charge", nbytes)  # pack
            yield ("send", member, nbytes, BRUCK_DIST_TAG, blocks)
        if plan.dist_recv is not None:
            leader, blocks = plan.dist_recv
            yield ("recv", leader, BRUCK_DIST_TAG, ctx.sizes_of(blocks))
        if plan.dist_sends or plan.dist_recv is not None:
            yield ("wait",)
        if plan.dist_recv is not None:
            blocks = plan.dist_recv[1]
            yield ("charge", ctx.sizes_of(blocks))  # unpack into rbuf
            yield ("deliver", blocks)
        # A leader copies its own in-neighbours' blocks from the store only
        # after redistribution: under a crash, what was delivered by then
        # shapes the recovery round's residual topology.
        if plan.self_needs:
            yield ("deliver", plan.self_needs)
