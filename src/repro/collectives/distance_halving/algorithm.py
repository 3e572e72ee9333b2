"""The registered Distance Halving algorithm (setup + operation glue)."""

from __future__ import annotations

import time
from typing import Iterator

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.collectives.base import (
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    register_algorithm,
)
from repro.collectives.distance_halving.builder import build_patterns
from repro.collectives.distance_halving.operation import distance_halving_ops
from repro.collectives.distance_halving.pattern import CommunicationPattern
from repro.topology.graph import DistGraphTopology


@register_algorithm(
    capabilities=("oracle", "bench"),
    label="dh",
)
class DistanceHalvingAllgather(NeighborhoodAllgatherAlgorithm):
    """Topology- and load-aware distance-halving neighborhood allgather.

    Parameters
    ----------
    selection:
        ``"greedy"`` (default, fast fixed point), ``"protocol"``
        (message-level emulation of Algorithms 2/3; identical matching,
        records control-message counts for the overhead study), or
        ``"random"`` (ablation: ignore the load-aware scores).
    stop_ranks:
        Halving stop granularity; ``None`` (default) stops at the socket
        (the paper's ``L``), ``1`` halves all the way down (ablation).
    """

    name = "distance_halving"

    def __init__(self, selection: str = "greedy", stop_ranks: int | None = None) -> None:
        super().__init__()
        self.selection = selection
        self.stop_ranks = stop_ranks
        self.pattern: CommunicationPattern | None = None

    def _build(self, topology: DistGraphTopology, machine: Machine) -> SetupStats:
        start = time.perf_counter()
        self.pattern = build_patterns(
            topology, machine, selection=self.selection, stop_ranks=self.stop_ranks
        )
        wall = time.perf_counter() - start
        stats = self.pattern.stats
        # Price the setup's control messages: the negotiation dominates and
        # runs concurrently across ranks, so charge each rank its average
        # share of signals, serialized at the inter-node latency (signals
        # are tiny; bandwidth is irrelevant).
        cost = machine.params.cost(LinkClass.INTER_NODE)
        n = topology.n
        # Matrix A construction ships neighbor lists; negotiation signals,
        # notifications and descriptors are small control messages.
        list_bytes = 4.0 * topology.average_outdegree
        signal_msgs = (
            stats.protocol_messages + stats.notification_messages + stats.descriptor_messages
        )
        simulated = (2.0 / n) * (
            stats.matrix_a_messages * (cost.alpha + list_bytes / cost.beta)
            + signal_msgs * (cost.alpha + 16.0 / cost.beta)
        )
        return SetupStats(
            protocol_messages=stats.total_setup_messages,
            simulated_time=simulated,
            wall_time=wall,
            extras={
                "matrix_a_messages": stats.matrix_a_messages,
                "levels": stats.levels,
                "agent_attempts": stats.agent_attempts,
                "agent_successes": stats.agent_successes,
                "agent_success_rate": stats.success_rate,
                "negotiation_messages": stats.protocol_messages,
                "notification_messages": stats.notification_messages,
                "descriptor_messages": stats.descriptor_messages,
                "data_messages_per_call": self.pattern.total_data_messages(),
            },
        )

    def rank_ops(self, ctx: ExecutionContext, rank: int) -> Iterator[tuple]:
        self.require_setup()
        assert self.pattern is not None
        return distance_halving_ops(ctx, rank, self.pattern[rank])
