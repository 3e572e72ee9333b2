"""Algorithm 4: executing ``MPI_Neighbor_allgather`` from a built pattern.

:func:`distance_halving_ops` walks a :class:`RankPattern` as the rank's op
stream (see :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.rank_ops`):
per halving step it forwards its ``main_buf`` to the step's agent while
receiving (and appending) the origin's buffer, copying any blocks destined
to itself into the receive buffer; the final intra-socket phase packs
per-target combined messages and drains the expected final receives.

``main_buf`` is tracked as the block ids the pattern says it holds, and
every send carries those ids, so the engine checks the pattern against the
blocks that really arrived; byte counts use the pattern's block arithmetic
(``blocks * m``).  Memory-copy costs — the buffer staging the paper blames
for the large-message decline — are charged to the rank's clock at every
pack/append/rbuf copy.
"""

from __future__ import annotations

from typing import Iterator

from repro.collectives.base import ExecutionContext
from repro.collectives.distance_halving.pattern import RankPattern

#: Tag for final (intra-socket / leftover direct) phase messages; halving
#: steps use their level index as the tag.
FINAL_TAG = 1 << 20


def distance_halving_ops(ctx: ExecutionContext, rank: int, rp: RankPattern) -> Iterator[tuple]:
    my_size = ctx.size_of(rank)
    if rp.self_copy:
        yield ("charge", my_size)
        yield ("deliver", (rank,))

    # Line 3: copy sbuf into main_buf.
    yield ("charge", my_size)
    buf: list[int] = [rank]
    buf_bytes = my_size

    # ---------------------------------------------------------- halving phase
    for step in rp.steps:
        if step.agent is None and step.origin is None:
            continue
        if step.agent is not None:
            if len(buf) != step.send_block_count:
                raise AssertionError(
                    f"rank {rank} step {step.index}: buffer has {len(buf)} blocks, "
                    f"pattern says {step.send_block_count}"
                )
            yield ("send", step.agent, buf_bytes, step.index, tuple(buf))
        if step.origin is not None:
            recv_bytes = ctx.sizes_of(step.recv_blocks)
            yield ("recv", step.origin, step.index, recv_bytes)
        yield ("wait",)

        if step.origin is not None:
            yield ("charge", recv_bytes)  # append into main_buf (Line 8)
            buf.extend(step.recv_blocks)
            buf_bytes += recv_bytes
            if step.recv_for_me:  # Lines 15-17: copy to rbuf
                yield ("deliver", step.recv_for_me)
                yield ("charge", ctx.sizes_of(step.recv_for_me))

    # ------------------------------------------------------ intra-socket phase
    if not rp.final_sends and not rp.final_recvs:
        return
    for fs in rp.final_sends:  # Lines 21-28: pack into temp buffer, send
        nbytes = ctx.sizes_of(fs.blocks)
        yield ("charge", nbytes)
        yield ("send", fs.target, nbytes, FINAL_TAG, fs.blocks)
    for fr in rp.final_recvs:
        yield ("recv", fr.sender, FINAL_TAG, ctx.sizes_of(fr.blocks))
    yield ("wait",)

    for fr in rp.final_recvs:  # Line 33: copy to rbuf
        yield ("charge", ctx.sizes_of(fr.blocks))
        yield ("deliver", fr.blocks)
