"""Communication-pattern data model for Distance Halving.

The pattern is what ``MPI_Dist_graph_create_adjacent`` would attach to the
communicator: for every rank, its per-step agent/origin, the exact block
composition of every message it will send or receive, and the final
intra-socket phase's send/receive lists.  Everything Algorithm 4 needs at
operation time — no control information travels with the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class HalvingStep(NamedTuple):
    """One halving step of one rank (Algorithm 1's ``step``).

    Attributes
    ----------
    index:
        Global halving level ``t`` (doubles as the message tag).
    agent:
        Rank receiving this rank's ``main_buf`` this step, or ``None`` if
        agent selection failed / was not needed.
    origin:
        Rank whose ``main_buf`` arrives this step, or ``None``.
    send_block_count:
        Number of ``m``-byte blocks in ``main_buf`` at the start of the
        step (the ``d_old`` bytes of Algorithm 4, divided by ``m``).
    recv_blocks:
        Source ranks of the blocks in the incoming message, in buffer
        order (may contain duplicates: buffers are forwarded wholesale).
    recv_for_me:
        Sources among ``recv_blocks`` whose block is destined to this
        rank's own receive buffer (this rank appeared in the incoming
        descriptor ``D``).
    send_pairs / recv_pairs:
        Only populated when the pattern is built with ``record_pairs=True``
        (needed by the alltoall variant, where every (source, target) pair
        carries distinct data): the exact duty pairs shipped to the agent /
        received from the origin this step, in a deterministic order.

    The pattern's records are named tuples: the builder makes thousands per
    setup, at the cost of a tuple each.  Change a field with ``_replace``.
    Being tuples, they compare equal to plain tuples of the same values,
    and ``step.index`` is the level, not ``tuple.index``.
    """

    index: int
    agent: int | None
    origin: int | None
    send_block_count: int
    recv_blocks: tuple[int, ...]
    recv_for_me: tuple[int, ...]
    send_pairs: tuple[tuple[int, int], ...] | None = None
    recv_pairs: tuple[tuple[int, int], ...] | None = None


class FinalSend(NamedTuple):
    """Intra-socket-phase (or direct leftover) message to ``target``.

    ``blocks`` lists the source ranks whose data is packed, in main-buffer
    order; every block is destined to ``target``'s receive buffer.
    """

    target: int
    blocks: tuple[int, ...]


class FinalRecv(NamedTuple):
    """Final-phase message expected from ``sender``; all blocks are for me."""

    sender: int
    blocks: tuple[int, ...]


@dataclass
class RankPattern:
    """Complete plan for one rank."""

    rank: int
    steps: list[HalvingStep] = field(default_factory=list)
    final_sends: list[FinalSend] = field(default_factory=list)
    final_recvs: list[FinalRecv] = field(default_factory=list)
    self_copy: bool = False  #: topology has a self-loop: copy sbuf -> rbuf locally

    @property
    def halving_sends(self) -> int:
        return sum(1 for s in self.steps if s.agent is not None)

    @property
    def halving_recvs(self) -> int:
        return sum(1 for s in self.steps if s.origin is not None)

    def max_buffer_blocks(self) -> int:
        """Peak ``main_buf`` size in blocks (memory footprint check)."""
        peak = 1
        for s in self.steps:
            peak = max(peak, s.send_block_count + len(s.recv_blocks))
        return peak


@dataclass
class PatternStats:
    """Aggregate construction statistics (Fig. 8 + the §VII-A success rate)."""

    levels: int = 0
    agent_attempts: int = 0
    agent_successes: int = 0
    matrix_a_messages: int = 0
    protocol_messages: int = 0
    notification_messages: int = 0
    descriptor_messages: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of agent searches that found an agent (paper: ~0.8 at δ=0.05)."""
        if self.agent_attempts == 0:
            return 0.0
        return self.agent_successes / self.agent_attempts

    @property
    def total_setup_messages(self) -> int:
        return (
            self.matrix_a_messages
            + self.protocol_messages
            + self.notification_messages
            + self.descriptor_messages
        )


@dataclass
class CommunicationPattern:
    """Per-rank plans plus construction statistics for one topology+machine."""

    n: int
    ranks_per_socket: int
    ranks: list[RankPattern]
    stats: PatternStats

    def __post_init__(self) -> None:
        if len(self.ranks) != self.n:
            raise ValueError(f"expected {self.n} rank patterns, got {len(self.ranks)}")

    def __getitem__(self, rank: int) -> RankPattern:
        return self.ranks[rank]

    def total_data_messages(self) -> int:
        """Messages per allgather call under this pattern (all ranks)."""
        total = 0
        for rp in self.ranks:
            total += rp.halving_sends + len(rp.final_sends)
        return total
