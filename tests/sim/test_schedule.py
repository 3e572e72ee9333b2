"""The schedule's per-rank encoding and its sort-and-join matching.

A :class:`~repro.sim.schedule.Schedule` stores one ``marshal``-encoded op
list per rank, and :func:`~repro.sim.schedule.static_matching` pairs sends
with receives by one stable sort over ``(dst, src, tag)`` keys.  The
per-key FIFO queues below are the matching's definition, kept as its
reference: the two must agree on every registered backend's schedule, on
hand-built edge cases and on the executor differential's random
schedules.  The collector test pins why the encoding exists: building a
dense 264-rank schedule must not leave an object per op behind; the
tracemalloc test pins what the compiled plan of such a schedule holds per
message.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import deque

import pytest

from repro.collectives.base import ExecutionContext, get_algorithm, list_algorithms
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.fastpath import compile_schedule
from repro.sim.schedule import Schedule, encode_ops, static_matching
from tests.sim.test_executor_differential import _random_schedule


def reference_matching(schedule):
    """Per-key FIFO queues: the k-th receive of a ``(dst, src, tag)`` key
    pairs with the k-th send of that key (rank-major program order)."""
    recv_q: dict[tuple, deque] = {}
    n_slots = 0
    for rank, ops in enumerate(schedule.ops):
        for op in ops or ():
            if op[0] == "recv":
                recv_q.setdefault((rank, op[1], op[2]), deque()).append(n_slots)
                n_slots += 1
    send_slots = []
    for rank, ops in enumerate(schedule.ops):
        for op in ops or ():
            if op[0] == "send":
                q = recv_q.get((op[1], rank, op[3]))
                send_slots.append(q.popleft() if q else -1)
    return send_slots, n_slots, not any(recv_q.values())


def _context(topology, machine):
    n = topology.n
    return ExecutionContext(
        topology=topology, machine=machine, msg_size=64,
        payloads=list(range(n)), results=[{} for _ in range(n)],
    )


def _built(name, n, rps, density, seed=5, **kwargs):
    topology = TopologySpec("random", n, density=density, seed=seed).build()
    machine = MachineSpec.for_ranks(n, rps).build()
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    return algorithm, _context(topology, machine)


class TestEncoding:
    OPS = [
        [("charge", 3), ("send", 1, 2, 0, (0, 2)), ("recv", 1, 0, 1), ("wait",)],
        None,
        [],
        [("recv", 0, 0, 2), ("send", 0, 1, 0, (1,)), ("wait",)],
    ]

    def test_round_trip(self):
        schedule = Schedule.from_ops(4, self.OPS, [[], [], [], [0]])
        assert schedule.ops == self.OPS
        assert list(schedule.iter_ops()) == self.OPS
        assert schedule.encoded[1] is None
        assert all(isinstance(data, bytes) for i, data in
                   enumerate(schedule.encoded) if i != 1)

    def test_ops_view_counts_without_decoding(self):
        schedule = Schedule.from_ops(4, self.OPS, [[], [], [], [0]])
        views = schedule.ops
        assert [None if v is None else len(v) for v in views] == [4, None, 0, 3]
        assert not views[2]  # an empty op list is falsy, like a list
        assert views[0][1] == ("send", 1, 2, 0, (0, 2))
        assert list(views[3]) == self.OPS[3]
        assert views == Schedule.from_ops(4, self.OPS, [[]] * 4).ops
        assert views[0] != views[3] and views[0] != self.OPS[3]
        assert repr(views[3]) == repr(self.OPS[3])

    def test_arity_is_checked(self):
        with pytest.raises(ValueError, match="arity"):
            Schedule.from_ops(3, self.OPS, [[], [], []])

    def test_bytes_depend_only_on_values(self):
        # Format 2 writes no interning flags and no back-references: equal
        # op lists built from distinct (and non-interned) objects encode to
        # the same bytes.
        kind = "".join(["se", "nd"])
        blocks = (0, 2)
        shared = [("send", 1, 2, 0, blocks), ("send", 1, 2, 0, blocks)]
        fresh = [(kind, 1, 2, 0, (0, 2)), (kind, 1, 2, 0, tuple([0, 2]))]
        assert encode_ops(shared) == encode_ops(fresh)

    @pytest.mark.parametrize("name", [info.name for info in list_algorithms()])
    def test_build_schedule_encodes_every_stream(self, name):
        algorithm, ctx = _built(name, 24, 6, 0.3)
        schedule = algorithm.build_schedule(ctx)
        for rank, ops in enumerate(schedule.ops):
            stream = algorithm.rank_ops(ctx, rank)
            if stream is None:
                assert ops is None
            else:
                assert ops == [op for op in stream if op[0] != "deliver"]


class TestMatchingAgreesWithReference:
    @pytest.mark.parametrize("density", [0.1, 0.5])
    @pytest.mark.parametrize("name", [info.name for info in list_algorithms()])
    def test_registered_backends(self, name, density):
        # Every registered backend, hierarchical included (no fuzzer or
        # bench runs it).
        algorithm, ctx = _built(name, 48, 6, density)
        schedule = algorithm.schedule_for(ctx)
        got = static_matching(schedule)
        assert got == reference_matching(schedule)
        assert got[2] is True  # allgather schedules never deadlock

    def test_random_schedules(self):
        # The executor differential's generator: None ranks, self-sends,
        # sends no receive matches, receives no send matches, receives
        # posted a stage before or after their send.
        rng = random.Random(20240607)
        for _ in range(300):
            schedule = _random_schedule(rng, rng.randint(1, 12))
            assert static_matching(schedule) == reference_matching(schedule)

    CASES = {
        # A send no receive matches gets slot -1.
        "unmatched_send": (
            [[("send", 1, 64, 0), ("send", 1, 64, 99), ("wait",)],
             [("recv", 0, 0), ("wait",)]],
            ([0, -1], 1, True),
        ),
        # A receive no send matches keeps its slot; the run deadlocks.
        "unmatched_recv": (
            [[("send", 1, 64, 0), ("wait",)],
             [("recv", 0, 0), ("recv", 0, 7), ("wait",)]],
            ([0], 2, False),
        ),
        # Per key, sends and receives pair in program order, across stages.
        "cross_stage_fifo": (
            [[("send", 1, 1, 3), ("wait",), ("send", 1, 2, 3), ("send", 1, 3, 4),
              ("wait",), ("send", 1, 4, 3), ("wait",)],
             [("recv", 0, 4), ("recv", 0, 3), ("wait",), ("recv", 0, 3),
              ("wait",), ("recv", 0, 3), ("wait",)]],
            ([1, 2, 0, 3], 4, True),
        ),
        # A rank sending to itself matches its own receive.
        "self_send": (
            [[("charge", 512), ("send", 0, 128, 0), ("recv", 0, 0),
              ("wait",), ("charge", 64), ("wait",)]],
            ([0], 1, True),
        ),
        # Ranks with no program and peers that name no rank never match.
        "none_ranks_and_stray_peers": (
            [None,
             [("send", 2, 1, 0), ("send", 7, 1, 0), ("send", -1, 1, 0), ("wait",)],
             [("recv", 1, 0), ("recv", 9, 0), ("recv", -3, 0), ("wait",)]],
            ([0, -1, -1], 3, False),
        ),
        # In a 3-rank schedule, a receive at rank 0 from "rank 3" must not
        # take rank 0's send to rank 1, whose (dst, src) a flat
        # dst * n + src key would confuse with it.
        "stray_peer_is_no_alias": (
            [[("send", 1, 1, 0), ("recv", 3, 0), ("wait",)], [("wait",)], None],
            ([-1], 1, False),
        ),
        "no_messages": ([[("charge", 1), ("wait",)], None], ([], 0, True)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hand_built(self, case):
        ops, expected = self.CASES[case]
        schedule = Schedule.from_ops(len(ops), ops, [[] for _ in ops])
        assert reference_matching(schedule) == expected
        assert static_matching(schedule) == expected


@pytest.mark.parametrize("name,kwargs", [("naive", {}), ("common_neighbor", {"k": 4})])
def test_building_a_dense_schedule_leaves_no_object_per_op(name, kwargs):
    # A 264-rank density-0.3 schedule has 42k (naive) to 55k (CN) ops.
    # Kept as op tuples, building one ran 55 and 73 young collections; the
    # encoded schedule keeps each rank's tuples alive only while its
    # stream drains.
    algorithm, ctx = _built(name, 264, 12, 0.3, **kwargs)
    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    try:
        before = gc.get_stats()[0]["collections"]
        schedule = algorithm.build_schedule(ctx)
        young = gc.get_stats()[0]["collections"] - before
    finally:
        if not enabled:
            gc.disable()
    assert sum(len(ops) for ops in schedule.ops if ops) > 40_000
    assert young < 5, f"{name}: {young} young collections while building"


def test_a_compiled_plan_holds_few_bytes_per_message():
    # The same 264-rank density-0.3 naive schedule, compiled: the plan
    # keeps one send tuple per message, the receives as parallel position
    # and slot tuples, one int object per slot number, rank id and op
    # position, and the deliveries, one tuple per rank naming each source
    # through the rank-id table (about 156 B per message, 8 of them the
    # deliveries).  A tuple per receive and a second int per slot number
    # read about 227 B without deliveries.
    algorithm, ctx = _built("naive", 264, 12, 0.3)
    schedule = algorithm.schedule_for(ctx)
    compile_schedule(schedule, ctx.machine)  # resolves the route rows it needs
    gc.collect()
    tracemalloc.start()
    try:
        plan = compile_schedule(schedule, ctx.machine)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan.messages > 20_000
    assert size / plan.messages < 180, f"{size / plan.messages:.1f} B per message"
