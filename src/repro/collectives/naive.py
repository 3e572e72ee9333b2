"""The naive (default Open MPI) neighborhood allgather.

One point-to-point message per topology edge, posted non-blocking and
completed with a single waitall — exactly how mainstream MPI libraries
implement ``MPI_Neighbor_allgather`` today, "regardless of the virtual
topology, network topology and the underlying hardware" (paper Section I).
There is no setup cost: the virtual topology itself is the plan.
"""

from __future__ import annotations

from typing import Iterator

from repro.cluster.machine import Machine
from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    register_algorithm,
)
from repro.topology.graph import DistGraphTopology

#: Tag used by all naive data messages.
NAIVE_TAG = 0


@register_algorithm(
    capabilities=("setup_free", "oracle", "bench"),
    label="naive",
)
class NaiveAllgather(NeighborhoodAllgatherAlgorithm):
    """Direct isend/irecv to every outgoing/incoming neighbor."""

    name = "naive"

    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        return SetupStats()  # nothing to build

    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple] | None:
        topo = ctx.topology
        out_nbrs = topo.out_neighbors(rank)
        in_nbrs = topo.in_neighbors(rank)
        if not out_nbrs and not in_nbrs:
            return None
        return self._ops(ctx, rank, out_nbrs, in_nbrs)

    @staticmethod
    def _ops(ctx: ExecutionContext, rank: int, out_nbrs, in_nbrs) -> Iterator[tuple]:
        size = ctx.size_table
        m = size[rank]
        own = (rank,)
        srcs = tuple(src for src in in_nbrs if src != rank)
        for src in srcs:
            yield ("recv", src, NAIVE_TAG, size[src])
        posted = bool(srcs)
        for dst in out_nbrs:
            if dst != rank:
                yield ("send", dst, m, NAIVE_TAG, own)
                posted = True
        if rank in out_nbrs:  # MPI self-edge: local copy into own recvbuf
            yield ("charge", m)
            yield ("deliver", own)
        if posted:
            yield ("wait",)
        yield ("deliver", srcs)
