"""Static communication schedules: the hybrid fast path's input.

A :class:`Schedule` is a rank-by-rank, stage-by-stage transcript of every
operation a collective performs — memcpy charges, non-blocking
sends/receives, and waitall boundaries.  It is every rank's op stream
(:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.rank_ops`)
materialised: the same stream the engine runs through the generic rank
program, so the schedule carries exactly the information the
discrete-event engine discovers lazily, which lets :mod:`repro.sim.fastpath`
replay the run without generator resumes, request objects, or
matching-table bookkeeping while staying bit-identical.

Ops are plain tuples (the fast path compiles them into a size-free plan):

* ``("charge", nbytes)`` — advance the local clock by a memcpy.
* ``("send", dst, nbytes, tag, blocks)`` — post a non-blocking send of the
  source-rank block ids ``blocks``.
* ``("recv", src, tag, nbytes)`` — post a non-blocking receive of a message
  expected to carry ``nbytes``.
* ``("wait",)`` — waitall over every request posted since the last wait.

``nbytes`` counts blocks of the size the schedule is priced with
(``execute_schedule(..., unit=...)``): a uniform-size schedule is built in
1-byte blocks and priced per message size, an allgatherv one in raw bytes.
The stream's ``("deliver", blocks)`` ops are not in ``ops``; they become
``deliveries``.

Op order is the stream's program order (post order is what determines
resource-claim order and therefore timing).  A rank whose stream is ``None``
gets ``None`` instead of an op list — the engine never spawns such ranks,
and event sequence parity depends on reproducing that.
"""

from __future__ import annotations

import hashlib
import marshal
from collections import deque
from dataclasses import dataclass


@dataclass
class Schedule:
    """Per-rank op lists plus the result-buffer contents they imply.

    ``ops[r]`` is rank ``r``'s operation list (``None`` when the rank's
    stream is ``None`` — no events, no engine sequence number);
    ``deliveries[r]`` lists the source ranks whose block lands in rank
    ``r``'s receive buffer (``results[r][src] = payloads[src]``), in the
    order of the stream's ``deliver`` ops.  The fast path copies them as
    declared; on the engine the generic program checks each one against
    the blocks that really arrived.
    """

    n_ranks: int
    ops: list[list[tuple] | None]
    deliveries: list[list[int]]

    def __post_init__(self) -> None:
        if len(self.ops) != self.n_ranks or len(self.deliveries) != self.n_ranks:
            raise ValueError(
                f"schedule arity mismatch: {self.n_ranks} ranks, "
                f"{len(self.ops)} op lists, {len(self.deliveries)} delivery lists"
            )


def structural_digest(schedule: Schedule) -> str:
    """Content digest of a schedule's op structure (cached on the object).

    Two schedules with equal digests compile to identical fast-path plans on
    the same machine: the digest covers the rank count and every rank's op
    stream (kinds, endpoints, block counts, tags, block ids, ``None``
    ranks) — the compiler's inputs, plus the block ids it ignores.
    ``deliveries`` is excluded on purpose: it names result-buffer contents,
    which no plan depends on.  The ops are hashed as
    ``marshal.dumps((n_ranks, ops), 2)``: format version 2 encodes every
    value in full, with no references between equal objects, so the bytes
    depend only on the ops' values, and it is several times cheaper than
    ``repr`` on block-carrying sends.  This is the schedule half of the
    compiled-plan cache key (the machine half is
    :func:`repro.sim.plancache.machine_digest`), realizing the
    isomorphic-neighborhood observation: sweep cells whose schedules are
    structurally identical share one compilation.
    """
    digest = getattr(schedule, "_structural_digest", None)
    if digest is None:
        encoded = marshal.dumps((schedule.n_ranks, schedule.ops), 2)
        digest = hashlib.blake2b(encoded, digest_size=16).hexdigest()
        schedule._structural_digest = digest
    return digest


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
        rank for rank, ops in enumerate(schedule.ops) if ops is not None
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
    boundaries.

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
    recv_q: dict[tuple, deque] = {}
    n_slots = 0
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        for op in ops:
            if op[0] == "recv":
                key = (rank, op[1], op[2])
                q = recv_q.get(key)
                if q is None:
                    recv_q[key] = q = deque()
                q.append(n_slots)
                n_slots += 1
    send_slots: list[int] = []
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        for op in ops:
            if op[0] == "send":
                q = recv_q.get((op[1], rank, op[3]))
                send_slots.append(q.popleft() if q else -1)
    fully_matched = not any(recv_q.values())
    return send_slots, n_slots, fully_matched
