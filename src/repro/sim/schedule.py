"""Static communication schedules: the hybrid fast path's input.

A :class:`Schedule` is a rank-by-rank, stage-by-stage transcript of every
operation a collective performs — memcpy charges, non-blocking
sends/receives, and waitall boundaries.  It is every rank's op stream
(:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.rank_ops`)
materialised: the same stream the engine runs through its rank program
(:func:`~repro.sim.program.rank_program`), so the schedule carries exactly
the information the discrete-event engine discovers lazily, which lets
:mod:`repro.sim.fastpath` replay the run without generator resumes,
receive slots, or matching-table bookkeeping while staying bit-identical.

Ops are plain tuples (the fast path compiles them into a size-free plan):

* ``("charge", nbytes)`` — advance the local clock by a memcpy.
* ``("send", dst, nbytes, tag, blocks)`` — post a non-blocking send of the
  source-rank block ids ``blocks``.
* ``("recv", src, tag, nbytes)`` — post a non-blocking receive of a message
  expected to carry ``nbytes``.
* ``("wait",)`` — wait for every send and receive posted since the last
  wait.

``nbytes`` counts blocks of the size the schedule is priced with
(``execute_schedule(..., unit=...)``): a uniform-size schedule is built in
1-byte blocks and priced per message size, an allgatherv one in raw bytes.
The stream's ``("deliver", blocks)`` ops are not in ``ops``; they become
``deliveries``.

Op order is the stream's program order (post order is what determines
resource-claim order and therefore timing).  A rank whose stream is ``None``
gets ``None`` instead of an op list — the engine never spawns such ranks,
and event sequence parity depends on reproducing that.

Storage is one immutable ``bytes`` per rank: the rank's op list encoded by
:func:`encode_ops` (``marshal`` format 2, which encodes every value in full,
with no references between equal objects, so the bytes depend only on the
ops' values).  A cold 264-rank cell's schedule holds tens of thousands of
ops; kept as tuples, every one is an object the cyclic garbage collector
walks for as long as the schedule lives, while the encoding is one opaque
buffer per rank.  :meth:`Schedule.iter_ops` decodes one rank at a time.
The encoding is in-process only: ``marshal`` bytes are never stored or
sent across processes or interpreter versions.
"""

from __future__ import annotations

import marshal
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

#: ``marshal`` format of the per-rank encodings: version 2 is the newest
#: that writes no back-references, so equal op lists encode to equal bytes.
_MARSHAL_VERSION = 2


def encode_ops(ops: list[tuple]) -> bytes:
    """One rank's op list as the immutable bytes a :class:`Schedule` stores."""
    return marshal.dumps(ops, _MARSHAL_VERSION)


class RankOps:
    """One rank's encoded op list, read as a sequence of op tuples.

    ``len`` reads the op count from the encoding's list header (``marshal``
    writes ``[`` and a 4-byte little-endian length), so counting a
    schedule's ops decodes nothing; iterating, indexing, comparing and
    printing decode the whole list on each call.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytes) -> None:
        self._data = data

    def __len__(self) -> int:
        return int.from_bytes(self._data[1:5], "little")

    def __iter__(self) -> Iterator[tuple]:
        return iter(marshal.loads(self._data))

    def __getitem__(self, index):
        return marshal.loads(self._data)[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, RankOps):
            return self._data == other._data
        if isinstance(other, list):
            return marshal.loads(self._data) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(marshal.loads(self._data))


@dataclass
class Schedule:
    """Per-rank encoded op lists plus the result-buffer contents they imply.

    ``encoded[r]`` is rank ``r``'s operation list, encoded by
    :func:`encode_ops` (``None`` when the rank's stream is ``None`` — no
    events, no engine sequence number); :meth:`iter_ops` decodes it and
    :attr:`ops` reads it.  ``deliveries[r]`` lists the source ranks whose
    block lands in rank ``r``'s receive buffer (``results[r][src] =
    payloads[src]``), in the order of the stream's ``deliver`` ops.  The
    fast path's compiled plan keeps them and the runner copies them as
    declared; on the engine the rank program checks each one against the
    blocks that really arrived.
    """

    n_ranks: int
    encoded: tuple[bytes | None, ...]
    deliveries: list[list[int]]

    def __post_init__(self) -> None:
        if len(self.encoded) != self.n_ranks or len(self.deliveries) != self.n_ranks:
            raise ValueError(
                f"schedule arity mismatch: {self.n_ranks} ranks, "
                f"{len(self.encoded)} op lists, {len(self.deliveries)} delivery lists"
            )

    @classmethod
    def from_ops(
        cls,
        n_ranks: int,
        ops: Sequence[list[tuple] | None],
        deliveries: list[list[int]],
    ) -> "Schedule":
        """A schedule of per-rank op lists (``None`` for an unspawned rank)."""
        return cls(
            n_ranks,
            tuple(None if op_list is None else encode_ops(op_list) for op_list in ops),
            deliveries,
        )

    def iter_ops(self) -> Iterator[list[tuple] | None]:
        """Each rank's op list (or ``None``), decoded one rank at a time."""
        for data in self.encoded:
            yield None if data is None else marshal.loads(data)

    @property
    def ops(self) -> list[RankOps | None]:
        """Every rank's op list (or ``None``) as a :class:`RankOps` view."""
        return [None if data is None else RankOps(data) for data in self.encoded]


def spawn_wake_order(schedule: Schedule) -> tuple[int, ...]:
    """The engine's deterministic stage-0 wake order, derived statically.

    ``Engine.spawn_all`` walks ranks in order and schedules one t=0 event
    (with the next sequence number) per rank whose program is not ``None``;
    the heap therefore pops stage 0 in exactly this rank order.  Every
    later wake order follows from the seq discipline — each waitall wake is
    pushed with a monotonically increasing sequence number at the moment
    its last pending receive is determined — which the fast path's
    executor reproduces (see :mod:`repro.sim.fastpath`).
    """
    return tuple(
        rank for rank, data in enumerate(schedule.encoded) if data is not None
    )


def static_matching(schedule: Schedule):
    """Cross-stage FIFO send/receive matching, resolved at compile time.

    Engine matching is FIFO per ``(dst, src, tag)`` key on both sides:
    posted receives and delivered sends each form a per-key queue, so the
    k-th posted receive of a key always pairs with the k-th delivered send
    of that key regardless of how posts and deliveries interleave.  Both
    per-key orders are static — a key's sends all originate from one rank
    and ranks execute their segments in program order — so the pairing is
    a compile-time function of the schedule alone, valid across stage
    boundaries.  It is computed as one stable sort of every receive and
    send by key, followed by a join on each op's FIFO ordinal within its
    key.

    Returns ``(send_slots, n_slots, fully_matched)``: receives are numbered
    ("slots") in rank-major program order, ``send_slots[i]`` is the slot
    matched by the i-th send in the same enumeration order (``-1`` when no
    receive ever matches it — the engine parks such messages in the
    unexpected table forever, with no timing effect), and ``fully_matched``
    is False when some receive has no matching send.  Such a receive keeps
    its slot and never completes, so its owner blocks in its waitall and
    the run deadlocks; the fast path's executor reports it with the
    engine's message.
    """
    # The key columns are int64 arrays from the start: a list would hold
    # an int object per peer and tag above 256.
    recv_src = array("q")
    recv_tag = array("q")
    send_dst = array("q")
    send_tag = array("q")
    recv_counts: list[int] = []
    send_counts: list[int] = []
    for ops in schedule.iter_ops():
        recvs = [op for op in ops if op[0] == "recv"] if ops else []
        sends = [op for op in ops if op[0] == "send"] if ops else []
        recv_src.fromlist([op[1] for op in recvs])
        recv_tag.fromlist([op[2] for op in recvs])
        send_dst.fromlist([op[1] for op in sends])
        send_tag.fromlist([op[3] for op in sends])
        recv_counts.append(len(recvs))
        send_counts.append(len(sends))
    n = schedule.n_ranks
    n_slots = len(recv_src)
    ranks = np.arange(n, dtype=np.int64)
    # Every receive (in slot order), then every send (in send order), as
    # (dst, src, tag).  A peer outside [0, n) names no rank, so its op gets
    # a key of its own and never matches, as under per-key FIFO queues.
    # Each intermediate is dropped once used, and the key is built in
    # place, so few full-length arrays are alive at once.
    dst = np.concatenate([np.repeat(ranks, recv_counts), np.frombuffer(send_dst, np.int64)])
    del send_dst
    src = np.concatenate([np.frombuffer(recv_src, np.int64), np.repeat(ranks, send_counts)])
    del recv_src, ranks
    tags = np.concatenate([np.frombuffer(recv_tag, np.int64),
                           np.frombuffer(send_tag, np.int64)])
    del recv_tag, send_tag
    tags, tag_ids = np.unique(tags, return_inverse=True)
    stray = (dst < 0) | (dst >= n) | (src < 0) | (src >= n)
    key = dst
    key *= n
    key += src
    del src
    key *= len(tags)
    key += tag_ids
    del dst, tag_ids
    total = len(key)
    stray_at = np.flatnonzero(stray)
    del stray
    key[stray_at] = -1 - stray_at
    del stray_at
    # A stable sort keeps program order within a key, and every receive
    # sits before every send: per key, the receives in slot order, then the
    # sends in send order.  The j-th send of a key takes its j-th receive.
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(total, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    start = np.arange(total)
    start *= first
    del first
    np.maximum.accumulate(start, out=start)
    is_recv = order < n_slots
    recvs_before = np.cumsum(is_recv)
    recvs_before -= is_recv
    send_pos = np.flatnonzero(~is_recv)
    del is_recv
    # At a send, every receive of its key lies between the key's start and
    # the send: key_recvs counts them, and ordinal is the send's FIFO place
    # among its key's sends.
    start = start[send_pos]
    key_recvs = recvs_before[send_pos]
    key_recvs -= recvs_before[start]
    del recvs_before
    ordinal = send_pos - start
    ordinal -= key_recvs
    matched = ordinal < key_recvs
    del key_recvs
    send_slots = np.full(total - n_slots, -1, dtype=np.int64)
    send_slots[order[send_pos[matched]] - n_slots] = (
        order[start[matched] + ordinal[matched]])
    return send_slots.tolist(), n_slots, int(np.count_nonzero(matched)) == n_slots
