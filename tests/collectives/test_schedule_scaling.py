"""The size-free schedule assumption, pinned for every backend.

``schedule_for`` builds a uniform-size schedule once, on a copy of the
context with ``msg_size=1``, so its byte fields are block counts; the fast
path prices it per call with ``unit=m``.  That is sound only while every
backend sizes its ops through ``ctx.size_of``/``ctx.sizes_of``: the
schedule at ``m`` must then be the block-count schedule times ``m``, op for
op.  The reference schedules below are built on a context whose
``msg_size`` is deliberately wrong (sizes come from ``block_sizes``), so a
backend that reads ``ctx.msg_size`` directly fails here.
"""

import pytest

from repro.collectives.base import ExecutionContext, get_algorithm, list_algorithms
from repro.exec.spec import MachineSpec, TopologySpec

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
    # Sizes only through size_of/sizes_of: msg_size is poisoned here.
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
def test_uniform_sizes_share_one_schedule(name, cell):
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    first = algorithm.schedule_for(_context(topology, machine, 8))
    for size in SIZES:
        assert algorithm.schedule_for(_context(topology, machine, size)) is first


@pytest.mark.parametrize("name", SCHEDULED)
def test_allgatherv_schedule_keeps_raw_bytes(name, cell):
    topology, machine = cell
    algorithm = get_algorithm(name)
    algorithm.setup(topology, machine)
    sizes = [(r % 5) * 128 + 8 for r in range(N)]
    ctx = _context(topology, machine, max(sizes), block_sizes=sizes)
    schedule = algorithm.schedule_for(ctx)
    assert schedule.ops == algorithm.build_schedule(ctx).ops
    # block_sizes are part of the memo key
    other = [s + 1 for s in sizes]
    again = algorithm.schedule_for(
        _context(topology, machine, max(other), block_sizes=other),
    )
    assert again is not schedule
    assert again.ops == algorithm.build_schedule(
        _context(topology, machine, max(other), block_sizes=other),
    ).ops


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
                assert op[2] == ctx.sizes_of(op[4]), f"{name}: rank {rank} {op}"
