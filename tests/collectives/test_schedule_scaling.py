"""The assumptions the fast path's plan cache rests on, pinned for every
backend.

``schedule_for`` builds a uniform-size schedule on a copy of the context
with ``msg_size=1``, so its byte fields are block counts; the fast path
prices it per call with ``unit=m``.  That is sound only while every
backend sizes its ops through ``ctx.size_table`` and ``ctx.sizer()``: the
schedule at ``m`` must then be the block-count schedule times ``m``, op for
op.  The reference schedules below are built on a context whose
``msg_size`` is deliberately wrong (sizes come from ``block_sizes``), so a
backend that reads ``ctx.msg_size`` directly fails here.

The plan cache keys a schedule by what the instance was set up with
(``plan_key``), not by the schedule, so two instances constructed and set
up independently on equal inputs must build byte-equal schedules with
equal deliveries.
"""

import pytest

from repro.collectives.base import ExecutionContext, get_algorithm, list_algorithms
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.fastpath import multi_plan_for
from repro.sim.plancache import reset_plan_cache

SIZES = (0, 8, 4096, 4 << 20)
SCHEDULED = [info.name for info in list_algorithms()]
N = 24


def _scaled(schedule, m):
    """``schedule`` with every charge, send and receive byte field multiplied
    by ``m`` (a send keeps its block ids)."""
    out = []
    for ops in schedule.ops:
        if ops is None:
            out.append(None)
            continue
        out.append([
            ("charge", op[1] * m) if op[0] == "charge"
            else ("send", op[1], op[2] * m, op[3], op[4]) if op[0] == "send"
            else ("recv", op[1], op[2], op[3] * m) if op[0] == "recv"
            else op
            for op in ops
        ])
    return out


def _context(topology, machine, msg_size, block_sizes=None):
    return ExecutionContext(
        topology=topology, machine=machine, msg_size=msg_size,
        payloads=list(range(N)), results=[{} for _ in range(N)],
        block_sizes=block_sizes,
    )


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "self_loops"])
def cell(request):
    machine = MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=6).build()
    topology = TopologySpec(
        "random", N, density=0.3, seed=5, self_loops=request.param,
    ).build()
    return topology, machine


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", SCHEDULED)
def test_block_count_schedule_scales_to_every_size(name, size, cell):
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    counts = algorithm.schedule_for(_context(topology, machine, size))
    direct = algorithm.build_schedule(_context(topology, machine, size))
    # Sizes only through size_table and sizer(): msg_size is poisoned here.
    reference = algorithm.build_schedule(
        _context(topology, machine, size + 1, block_sizes=[size] * N),
    )
    scaled = _scaled(counts, size)
    for expected in (direct, reference):
        assert expected.n_ranks == counts.n_ranks
        for rank, (got, want) in enumerate(zip(scaled, expected.ops)):
            assert got == want, f"{name}: rank {rank} ops differ at m={size}"
        assert counts.deliveries == expected.deliveries


@pytest.mark.parametrize("name", SCHEDULED)
def test_uniform_sizes_share_one_schedule(name, cell, monkeypatch):
    # Every uniform size has one plan key, so the fast path builds the
    # pattern's schedule once, in block counts, for the whole size axis.
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    built = []
    build = algorithm.build_schedule
    monkeypatch.setattr(algorithm, "build_schedule",
                        lambda ctx: built.append(ctx.msg_size) or build(ctx))
    reset_plan_cache()
    try:
        first = multi_plan_for(algorithm, _context(topology, machine, 8))
        for size in SIZES:
            ctx = _context(topology, machine, size)
            assert algorithm.plan_key(ctx) == algorithm.plan_key(_context(topology, machine, 8))
            assert multi_plan_for(algorithm, ctx) is first
    finally:
        reset_plan_cache()
    assert built == [1]


@pytest.mark.parametrize("name", SCHEDULED)
def test_allgatherv_schedule_keeps_raw_bytes(name, cell):
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    sizes = [(r % 5) * 128 + 8 for r in range(N)]
    ctx = _context(topology, machine, max(sizes), block_sizes=sizes)
    schedule = algorithm.schedule_for(ctx)
    assert schedule.ops == algorithm.build_schedule(ctx).ops
    # block_sizes are part of the plan key
    other = [s + 1 for s in sizes]
    other_ctx = _context(topology, machine, max(other), block_sizes=other)
    assert algorithm.plan_key(other_ctx) != algorithm.plan_key(ctx)
    assert algorithm.plan_key(_context(topology, machine, 0, block_sizes=list(sizes))) \
        == algorithm.plan_key(ctx)
    assert algorithm.schedule_for(other_ctx).ops == algorithm.build_schedule(other_ctx).ops


@pytest.mark.parametrize("sizes", ["uniform", "allgatherv"])
@pytest.mark.parametrize("name", SCHEDULED)
def test_equal_set_up_inputs_build_equal_schedules(name, sizes):
    """The plan key's premise: two instances, each constructed and set up
    on its own topology and machine built from equal specs (a placement
    draw included), have equal plan keys and build byte-equal schedules
    with equal deliveries."""
    block_sizes = None if sizes == "uniform" else [(r % 5) * 128 + 8 for r in range(N)]
    schedules, keys = [], []
    for _ in range(2):
        topology = TopologySpec("random", N, density=0.3, seed=5).build()
        machine = MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=6,
                              placement_seed=7).build()
        algorithm = get_algorithm(name)
        algorithm.setup(topology, machine)
        ctx = _context(topology, machine, 64, block_sizes=block_sizes)
        schedules.append(algorithm.schedule_for(ctx))
        keys.append(algorithm.plan_key(ctx))
    a, b = schedules
    assert keys[0] == keys[1]
    assert a.n_ranks == b.n_ranks
    assert a.encoded == b.encoded
    assert a.deliveries == b.deliveries


@pytest.mark.parametrize("sizes", ["uniform", "allgatherv"])
@pytest.mark.parametrize("name", SCHEDULED)
def test_stream_invariants(name, sizes, cell):
    """Every backend's op streams deliver each rank exactly its in-neighbours'
    blocks, and every send is sized by the blocks it carries."""
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    block_sizes = None if sizes == "uniform" else [(r % 5) * 128 + 8 for r in range(N)]
    ctx = _context(topology, machine, 64 if block_sizes is None else max(block_sizes),
                   block_sizes=block_sizes)
    schedule = algorithm.build_schedule(ctx)
    for rank in range(N):
        assert sorted(schedule.deliveries[rank]) == sorted(topology.in_neighbors(rank))
        for op in schedule.ops[rank] or ():
            if op[0] == "send":
                nbytes = sum(ctx.size_table[src] for src in op[4])
                assert op[2] == nbytes, f"{name}: rank {rank} {op}"
