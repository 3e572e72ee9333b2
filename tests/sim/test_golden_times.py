"""Golden regression grid: the optimized hot path must reproduce the seed
engine's results bit-for-bit.

``tests/data/golden_sim_times.json`` was captured from the pre-optimization
engine over a machines x algorithms x sizes grid.  ``simulated_time`` floats
are compared with ``==`` (no tolerance): the fast path is only allowed to
change wall-clock time, never a simulation result.  JSON round-trips Python
floats exactly, so the archived values are the seed engine's doubles.

Every row runs twice: on the discrete-event engine (``sim_mode="des"``) and
on the fast path (``sim_mode="auto"``, ids suffixed ``-auto``), whose
size-free plans are compiled once per pattern and priced per message size.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import Machine
from repro.collectives.base import get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.topology import erdos_renyi_topology

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_sim_times.json"

#: machine name -> (factory, (ranks, density, topology seed)); must match
#: how the golden file was generated (see its "note" field).
MACHINES = {
    "single_switch_8": (
        lambda: Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2),
        (8, 0.5, 7),
    ),
    "niagara_32": (
        lambda: Machine.niagara_like(nodes=4, ranks_per_socket=4),
        (32, 0.3, 1234),
    ),
    "niagara_64": (
        lambda: Machine.niagara_like(nodes=8, ranks_per_socket=4, nodes_per_group=2),
        (64, 0.2, 42),
    ),
}


def _rows():
    rows = json.loads(GOLDEN_PATH.read_text())["rows"]
    params = []
    for sim_mode, suffix in (("des", ""), ("auto", "-auto")):
        params.extend(
            pytest.param(
                row, sim_mode,
                id=f'{row["machine"]}-{row["algorithm"]}-{row["msg_bytes"]}{suffix}',
            )
            for row in rows
        )
    return params


@pytest.mark.parametrize("row,sim_mode", _rows())
def test_matches_seed_engine_exactly(row, sim_mode):
    factory, (n, density, seed) = MACHINES[row["machine"]]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed)
    algorithm = get_algorithm(row["algorithm"], **row["kwargs"])
    run = run_allgather(
        algorithm, topology, machine, row["msg_bytes"],
        options=RunOptions(sim_mode=sim_mode),
    )
    assert run.sim_path == ("des" if sim_mode == "des" else "fastpath")
    assert run.simulated_time == row["simulated_time"]
    assert run.messages_sent == row["messages_sent"]
    assert run.bytes_sent == row["bytes_sent"]
