"""Hockney (alpha-beta) cost parameters per link distance class.

The paper models point-to-point time as ``alpha + m / beta`` (note it writes
``m/beta`` with beta in bytes/second).  Real machines have a different
(alpha, beta) per transport: shared memory within a socket, UPI/QPI across
sockets, InfiniBand across nodes, and a longer, more congested path across
the network's global links.  :class:`HockneyParameters` carries one
:class:`LinkCost` per :class:`LinkClass` plus memory-copy bandwidth and MPI
per-call overhead, and is the single source of truth for both the
discrete-event simulator and the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.spec import LinkClass
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinkCost:
    """One Hockney pair: startup latency (s) and bandwidth (bytes/s)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_non_negative("alpha", self.alpha)
        check_positive("beta", self.beta)


@dataclass(frozen=True)
class HockneyParameters:
    """Per-class link costs plus host-side constants.

    Attributes
    ----------
    links:
        Mapping from :class:`LinkClass` to :class:`LinkCost`.  ``SELF`` is
        not required; self-messages cost a memory copy.
    memcpy_beta:
        Local memory-copy bandwidth (bytes/s) used for buffer staging
        (packing into ``main_buf``, temp buffers, rbuf copies).
    call_overhead:
        Per-MPI-call CPU overhead (s) charged for each isend/irecv posting.
    per_hop_alpha:
        Extra latency added per network hop beyond the first (used by
        hop-counted topologies such as the torus).
    nic_message_overhead:
        Per-message processing time at a node's NIC (the message-rate
        limit of real HCAs); serializes a node's traffic for small
        messages, which is what the paper's node-level serialization
        (Eq. 5) models.
    link_message_overhead:
        Per-message processing on a shared global link.
    jitter:
        System-noise amplitude: each network message's startup latency is
        multiplied by ``1 + U(0, jitter)`` (deterministic per engine seed).
        0 (default) = noiseless; ~0.3 resembles a busy production fabric.
    """

    links: dict[LinkClass, LinkCost]
    memcpy_beta: float = 6.0e9
    call_overhead: float = 5.0e-8
    per_hop_alpha: float = 1.0e-7
    nic_message_overhead: float = 1.5e-7
    link_message_overhead: float = 2.0e-8
    jitter: float = 0.0

    def __post_init__(self) -> None:
        check_positive("memcpy_beta", self.memcpy_beta)
        check_non_negative("call_overhead", self.call_overhead)
        check_non_negative("per_hop_alpha", self.per_hop_alpha)
        check_non_negative("nic_message_overhead", self.nic_message_overhead)
        check_non_negative("link_message_overhead", self.link_message_overhead)
        check_non_negative("jitter", self.jitter)
        required = {
            LinkClass.INTRA_SOCKET,
            LinkClass.INTER_SOCKET,
            LinkClass.INTER_NODE,
            LinkClass.INTER_GROUP,
        }
        missing = required - set(self.links)
        if missing:
            raise ValueError(f"missing link classes: {sorted(c.name for c in missing)}")

    def cost(self, link_class: LinkClass) -> LinkCost:
        """Link cost for a class; ``SELF`` maps to a memcpy-rate pseudo-link."""
        if link_class is LinkClass.SELF:
            return LinkCost(alpha=0.0, beta=self.memcpy_beta)
        return self.links[link_class]

    def with_overrides(self, **link_costs: LinkCost) -> "HockneyParameters":
        """Copy with some classes replaced, e.g. ``with_overrides(INTER_NODE=...)``."""
        links = dict(self.links)
        for name, cost in link_costs.items():
            links[LinkClass[name]] = cost
        return replace(self, links=links)


#: Default parameters loosely calibrated to the paper's testbed class
#: (Skylake/Cascade Lake nodes, EDR InfiniBand, Dragonfly+): sub-microsecond
#: shared-memory latency, ~1 us RDMA latency, and a global-link path with
#: higher startup cost and reduced effective bandwidth.
NIAGARA_LIKE = HockneyParameters(
    links={
        LinkClass.INTRA_SOCKET: LinkCost(alpha=3.0e-7, beta=8.0e9),
        LinkClass.INTER_SOCKET: LinkCost(alpha=6.0e-7, beta=5.0e9),
        LinkClass.INTER_NODE: LinkCost(alpha=1.2e-6, beta=1.0e10),
        LinkClass.INTER_GROUP: LinkCost(alpha=2.2e-6, beta=7.0e9),
    },
    memcpy_beta=6.0e9,
    call_overhead=5.0e-8,
    per_hop_alpha=1.0e-7,
)
