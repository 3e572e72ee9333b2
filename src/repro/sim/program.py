"""The rank program: one rank's op stream, run on the engine.

Every process the :class:`~repro.sim.engine.Engine` runs is
:func:`rank_program` over one rank's op stream.  The allgather backends
(:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.rank_ops`),
the alltoall backends (:mod:`repro.collectives.alltoall`) and the
calibration ping-pong (:mod:`repro.cluster.calibration`) all write their
work in one vocabulary over opaque integer block ids:

* ``("charge", nbytes)`` — a memcpy of ``nbytes`` on the rank's clock;
* ``("send", dst, nbytes, tag, blocks)`` — a non-blocking send carrying
  the block ids ``blocks`` (a tuple);
* ``("recv", src, tag, nbytes)`` — a non-blocking receive of a message
  expected to carry ``nbytes``;
* ``("wait",)`` — wait for every receive posted since the last wait, and
  until every send posted since then has left the sender's port;
* ``("deliver", blocks)`` — copy these blocks into the rank's receive
  buffer.

Posting a send or a receive charges the machine's per-call overhead to the
rank's clock, so posting 1500 receives is not free — one of the naive
algorithm's real costs.  A ``charge`` followed by a ``wait`` with nothing
posted is how a stream models local work: the rank resumes once its clock
has passed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


def rank_program(
    engine: "Engine",
    rank: int,
    ops: Iterable[tuple],
    held: Iterable[int] = (),
    payloads: Any = None,
    results: dict | None = None,
) -> Generator:
    """Run ``ops`` as ``rank``'s process on ``engine`` (see the module
    docstring for the ops).

    ``held`` are the block ids the rank starts with, and each received
    message adds the ``blocks`` its send carried.  ``deliver`` sets
    ``results[block] = payloads[block]``: ``payloads`` is the block-id →
    payload lookup, any object with ``__getitem__``.  The program raises an
    :class:`AssertionError` naming the rank when a send carries a block the
    rank does not hold, a received message's size differs from its
    ``recv`` op, or a delivered block never arrived.

    Ops post straight into the engine (:meth:`~repro.sim.engine.Engine.send`,
    :meth:`~repro.sim.engine.Engine.recv`).  Sends keep nothing: a wait
    lists the receives' slots only, with the latest send completion since
    the last wait as its floor, and the received messages are read from
    the engine's receive lists.
    """
    send = engine.send
    recv = engine.recv
    waitall = engine.waitall_condition
    recv_nbytes = engine.recv_nbytes
    recv_payload = engine.recv_payload
    clock = engine.rank_now
    params = engine.machine.params
    overhead = params.call_overhead
    memcpy_beta = params.memcpy_beta
    held = set(held)
    # Receive slots, sources, tags and expected sizes since the last wait,
    # in parallel int lists: an object per receive (a request, or the recv
    # op kept) would live until the wait, and thousands of them alive at
    # once make the garbage collector a large share of a dense naive run.
    recv_slots: list[int] = []
    recv_srcs: list[int] = []
    recv_tags: list[int] = []
    recv_sizes: list[int] = []
    floor = 0.0
    for op in ops:
        kind = op[0]
        if kind == "send":
            blocks = op[4]
            if not held.issuperset(blocks):
                raise AssertionError(
                    f"rank {rank}: send to {op[1]} (tag {op[3]}) carries "
                    f"block(s) {sorted(set(blocks) - held)} it does not hold"
                )
            clock[rank] += overhead
            done = send(rank, op[1], op[2], op[3], blocks).send_complete
            if done > floor:
                floor = done
        elif kind == "recv":
            src = op[1]
            clock[rank] += overhead
            recv_slots.append(recv(rank, src, op[2]))
            recv_srcs.append(src)
            recv_tags.append(op[2])
            recv_sizes.append(op[3])
        elif kind == "charge":
            nbytes = op[1]
            if nbytes < 0:
                raise ValueError(f"nbytes must be >= 0, got {nbytes}")
            clock[rank] += nbytes / memcpy_beta
        elif kind == "wait":
            yield waitall(recv_slots, floor)
            floor = 0.0
            for slot, src, tag, nbytes in zip(recv_slots, recv_srcs, recv_tags, recv_sizes):
                if recv_nbytes[slot] != nbytes:
                    raise AssertionError(
                        f"rank {rank}: message from {src} (tag {tag}) has "
                        f"{recv_nbytes[slot]} bytes, expected {nbytes}"
                    )
                held.update(recv_payload[slot])
            recv_slots = []
            recv_srcs = []
            recv_tags = []
            recv_sizes = []
        else:  # deliver
            for block in op[1]:
                if block not in held:
                    raise AssertionError(
                        f"rank {rank}: delivers block {block}, which never arrived"
                    )
                results[block] = payloads[block]
