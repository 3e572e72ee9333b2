"""Zero-valued fault plans are a strict no-op.

A :class:`FaultPlan` whose specs all carry unit factors / zero
probabilities / zero delays routes every message through the fault-aware
transmit path (``Fabric._transmit_faulty``), which claims through the same
``Fabric._claim`` as the pristine path — so this grid pins the perturb /
drop pass-through: the zero-valued specs must hand the claim the route's
own costs, bit for bit against the archived seed-engine golden times.
"""

import json
from pathlib import Path

import pytest

from repro.collectives.base import get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.sim.faults import FaultPlan, LinkFault, MessageLoss, RetryPolicy, Straggler
from repro.topology import erdos_renyi_topology

from tests.sim.test_golden_times import GOLDEN_PATH, MACHINES

#: Explicitly zero-valued specs — not just an empty plan — so the perturb /
#: drop / straggler code paths are all exercised and all must pass through.
ZERO_PLAN = FaultPlan(
    link_faults=(
        LinkFault(alpha_factor=1.0, beta_factor=1.0),
        LinkFault(link_class=None, alpha_factor=1.0, beta_factor=1.0, end=1e9),
    ),
    stragglers=(Straggler(rank=0, compute_factor=1.0, startup_delay=0.0),),
    losses=(MessageLoss(probability=0.0),),
    retry=RetryPolicy(),
    seed=1234,
)


def _rows():
    rows = json.loads(Path(GOLDEN_PATH).read_text())["rows"]
    return [
        pytest.param(row, id=f'{row["machine"]}-{row["algorithm"]}-{row["msg_bytes"]}')
        for row in rows
    ]


def test_zero_plan_is_marked_noop():
    assert ZERO_PLAN.is_noop()


@pytest.mark.parametrize("row", _rows())
def test_zero_plan_matches_golden_grid_exactly(row):
    factory, (n, density, seed) = MACHINES[row["machine"]]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed)
    algorithm = get_algorithm(row["algorithm"], **row["kwargs"])
    run = run_allgather(
        algorithm, topology, machine, row["msg_bytes"],
        options=RunOptions(fault_plan=ZERO_PLAN),
    )
    assert run.simulated_time == row["simulated_time"]
    assert run.messages_sent == row["messages_sent"]
    assert run.bytes_sent == row["bytes_sent"]
    assert run.fault_stats == {"drops": 0, "retransmissions": 0, "messages_lost": 0}
