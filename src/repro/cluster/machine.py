"""The :class:`Machine`: cluster shape + network topology + Hockney costs.

Everything the simulator needs to price a message between two ranks lives
here; :class:`Machine` is the single object passed around by the collectives
harness, the benchmarks, and the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.hockney import NIAGARA_LIKE, HockneyParameters
from repro.cluster.network import (
    DragonflyPlus,
    NetworkTopology,
    PermutedNodes,
    SingleSwitch,
)
from repro.cluster.spec import ClusterSpec, LinkClass
from repro.utils.rng import RandomState, resolve_rng


@dataclass(frozen=True)
class Machine:
    """A fully specified target machine.

    Attributes
    ----------
    spec:
        Node/socket/rank shape.
    network:
        Cross-node topology (classification, hops, shared bottlenecks).
    params:
        Hockney costs per link class plus host constants.
    """

    spec: ClusterSpec
    network: NetworkTopology
    params: HockneyParameters

    # ------------------------------------------------------------- link query
    def link_class(self, rank_a: int, rank_b: int) -> LinkClass:
        """Distance class of a rank pair, refined by the network topology."""
        base = self.spec.intra_node_class(rank_a, rank_b)
        if base is not LinkClass.INTER_NODE:
            return base
        return self.network.classify(self.spec.node_of(rank_a), self.spec.node_of(rank_b))

    def hop_extra_alpha(self, rank_a: int, rank_b: int) -> float:
        """Latency surcharge for hops beyond the 2-hop base path."""
        cls = self.link_class(rank_a, rank_b)
        if cls in (LinkClass.INTER_NODE, LinkClass.INTER_GROUP):
            hops = self.network.hops(self.spec.node_of(rank_a), self.spec.node_of(rank_b))
            return self.params.per_hop_alpha * max(0, hops - 2)
        return 0.0

    # ----------------------------------------------------------- constructors
    @classmethod
    def niagara_like(
        cls,
        nodes: int,
        sockets_per_node: int = 2,
        ranks_per_socket: int = 18,
        nodes_per_group: int | None = None,
        params: HockneyParameters = NIAGARA_LIKE,
    ) -> "Machine":
        """A Dragonfly+ machine shaped like the paper's testbed runs."""
        spec = ClusterSpec(nodes, sockets_per_node, ranks_per_socket)
        if nodes_per_group is None:
            nodes_per_group = max(2, nodes // 4) if nodes >= 4 else nodes
        network: NetworkTopology
        network = DragonflyPlus(nodes_per_group) if nodes > 1 else SingleSwitch()
        return cls(spec=spec, network=network, params=params)

    @classmethod
    def single_switch(
        cls,
        nodes: int,
        sockets_per_node: int = 2,
        ranks_per_socket: int = 4,
        params: HockneyParameters = NIAGARA_LIKE,
    ) -> "Machine":
        """Small flat machine, handy for tests."""
        return cls(
            spec=ClusterSpec(nodes, sockets_per_node, ranks_per_socket),
            network=SingleSwitch(),
            params=params,
        )

    # ------------------------------------------------------------- placements
    def with_node_permutation(self, perm) -> "Machine":
        """This machine under a different physical node assignment.

        Models a scheduler giving the job other nodes: logical node ``i``
        runs on physical node ``perm[i]``.  Rank numbering (and therefore
        every algorithm's pattern) is unchanged; only distances move.
        """
        from dataclasses import replace

        if len(tuple(perm)) != self.spec.nodes:
            raise ValueError(
                f"permutation has {len(tuple(perm))} entries for {self.spec.nodes} nodes"
            )
        return replace(self, network=PermutedNodes(self.network, perm))

    def random_placement(self, seed: RandomState = None) -> "Machine":
        """Shuffled node assignment — one draw of the scheduler lottery."""
        rng = resolve_rng(seed)
        return self.with_node_permutation(rng.permutation(self.spec.nodes))

    def describe(self) -> str:
        return f"{self.spec.describe()} over {self.network.describe()}"
