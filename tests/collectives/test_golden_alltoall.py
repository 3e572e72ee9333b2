"""Golden pin for the neighborhood alltoall and the calibration ping-pong.

``tests/data/golden_alltoall.json`` holds one discrete-event run per cell
of the grid below: the three alltoall backends (naive, Common Neighbor at
``k`` = 2, 4 and 8, Distance Halving) on the clean golden grid's three
machines (``tests/sim/test_golden_times.py``) at 8 B, 4 KiB and one
alltoallv ``pair_sizes`` function, 45 cells.  Each cell stores
``simulated_time``, ``finish_times``, ``messages_sent`` and ``bytes_sent``,
compared with ``==``.  It also stores :func:`simulated_ping_pong` on each
machine, which :func:`~repro.cluster.calibration.calibrate` fits and the
selector's distiller reads, so the pin guards the shipped decision table
too.

Re-record only for an intended change of the engine or of a backend, and
say why in the commit::

    PYTHONPATH=src python -m tests.collectives.test_golden_alltoall --record
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cluster.calibration import simulated_ping_pong
from repro.collectives.alltoall import run_alltoall, verify_alltoall
from repro.topology import erdos_renyi_topology
from tests.sim.test_golden_times import GOLDEN_PATH, MACHINES

ALLTOALL_PATH = GOLDEN_PATH.with_name("golden_alltoall.json")

ALGORITHMS = (
    ("naive_alltoall", {}),
    ("common_neighbor_alltoall", {"k": 2}),
    ("common_neighbor_alltoall", {"k": 4}),
    ("common_neighbor_alltoall", {"k": 8}),
    ("distance_halving_alltoall", {}),
)
SIZES = ("8", "4096", "v")


def _pair_size(u: int, v: int) -> int:
    """The alltoallv cells' per-pair byte count (zero for some pairs)."""
    return (u * 31 + v * 7) % 513


def _label(name: str, kwargs: dict) -> str:
    return name + "".join(f"-{k}{v}" for k, v in kwargs.items())


def _cases():
    """(case id, machine name, algorithm, kwargs, size)."""
    for machine_name in MACHINES:
        for name, kwargs in ALGORITHMS:
            for size in SIZES:
                yield (f"{machine_name}-{_label(name, kwargs)}-{size}",
                       machine_name, name, kwargs, size)


def _run(machine_name, algorithm_name, kwargs, size):
    factory, (n, density, seed) = MACHINES[machine_name]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed)
    if size == "v":
        run = run_alltoall(algorithm_name, topology, machine, 64,
                           pair_sizes=_pair_size, **kwargs)
    else:
        run = run_alltoall(algorithm_name, topology, machine, int(size), **kwargs)
    verify_alltoall(topology, run)
    return {
        "simulated_time": run.simulated_time,
        "finish_times": sorted([r, t] for r, t in run.finish_times.items()),
        "messages_sent": run.messages_sent,
        "bytes_sent": run.bytes_sent,
    }


def _ping_pong(machine_name):
    factory, _ = MACHINES[machine_name]
    return sorted([s, t] for s, t in simulated_ping_pong(factory()).items())


def _golden() -> dict:
    return json.loads(ALLTOALL_PATH.read_text())


_CASES = list(_cases())


@pytest.mark.parametrize(
    "machine_name,algorithm_name,kwargs,size",
    [pytest.param(*case[1:], id=case[0]) for case in _CASES],
)
def test_alltoall_matches_golden(request, machine_name, algorithm_name, kwargs, size):
    expected = _golden()["cells"][request.node.callspec.id]
    assert _run(machine_name, algorithm_name, kwargs, size) == expected


@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_ping_pong_matches_golden(machine_name):
    assert _ping_pong(machine_name) == _golden()["ping_pong"][machine_name]


def test_golden_file_covers_every_case():
    golden = _golden()
    assert set(golden["cells"]) == {case[0] for case in _CASES}
    assert set(golden["ping_pong"]) == set(MACHINES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {ALLTOALL_PATH.name}"
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    cells = {case[0]: _run(*case[1:]) for case in _CASES}
    pings = {name: _ping_pong(name) for name in MACHINES}
    note = ("discrete-event alltoall runs of three backends (Common Neighbor "
            "at k = 2, 4, 8) on the golden grid's three machines x three "
            "message sizes, plus the calibration ping-pong per machine; see "
            "tests/collectives/test_golden_alltoall.py")
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cells.items())
    ping_lines = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in pings.items()
    )
    ALLTOALL_PATH.write_text(
        f'{{\n "note": {json.dumps(note)},\n "cells": {{\n{lines}\n }},\n'
        f' "ping_pong": {{\n{ping_lines}\n }}\n}}\n'
    )
    print(f"recorded {len(cells)} cells and {len(pings)} ping-pongs to "
          f"{ALLTOALL_PATH}")


if __name__ == "__main__":
    main()
