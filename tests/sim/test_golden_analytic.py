"""Golden pin for ``sim_mode="analytic"``: the closed-form costing, bit for bit.

``tests/data/golden_analytic_times.json`` holds the analytic run of every
row of the golden grid (the 36 machine x algorithm x size cells of
``golden_sim_times.json``) plus, per algorithm, one allgatherv cell and one
cell on a topology with self-loops: ``simulated_time``, ``messages_sent``,
``bytes_sent`` and every rank's finish time, compared with ``==``.  Unlike
``auto``, the closed form has no engine to be checked against (it ignores
contention on purpose), so this file is its reference.

Re-record only for an intended change of the closed form, and say why in
the commit::

    PYTHONPATH=src python -m tests.sim.test_golden_analytic --record
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.collectives.base import get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.topology import erdos_renyi_topology
from tests.sim.test_golden_times import GOLDEN_PATH, MACHINES

ANALYTIC_PATH = GOLDEN_PATH.with_name("golden_analytic_times.json")

#: Machine of the allgatherv and self-loop cells (see ``MACHINES``).
EXTRA_MACHINE = "niagara_32"
#: Message size of the self-loop cells.
SELF_LOOP_MSG = 512


def _cases():
    """(case id, machine name, algorithm, kwargs, message, self loops).

    ``message`` is a byte count, or a per-rank list for allgatherv.
    """
    rows = json.loads(GOLDEN_PATH.read_text())["rows"]
    kwargs_of = {}
    for row in rows:
        kwargs_of.setdefault(row["algorithm"], row["kwargs"])
        yield (
            f'{row["machine"]}-{row["algorithm"]}-{row["msg_bytes"]}',
            row["machine"], row["algorithm"], row["kwargs"], row["msg_bytes"],
            False,
        )
    n = MACHINES[EXTRA_MACHINE][1][0]
    for name, kwargs in kwargs_of.items():
        yield (f"{EXTRA_MACHINE}-{name}-v", EXTRA_MACHINE, name, kwargs,
               [(r % 5) * 128 + 8 for r in range(n)], False)
        yield (f"{EXTRA_MACHINE}-{name}-selfloop", EXTRA_MACHINE, name, kwargs,
               SELF_LOOP_MSG, True)


def _run(machine_name, algorithm_name, kwargs, message, self_loops):
    factory, (n, density, seed) = MACHINES[machine_name]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed,
                                    allow_self_loops=self_loops)
    algorithm = get_algorithm(algorithm_name, **kwargs)
    run = run_allgather(algorithm, topology, machine, message,
                        options=RunOptions(sim_mode="analytic", verify=True))
    assert run.sim_path == "analytic"
    return {
        "simulated_time": run.simulated_time,
        "messages_sent": run.messages_sent,
        "bytes_sent": run.bytes_sent,
        "finish_times": [run.finish_times[r] for r in range(n)],
    }


def _golden() -> dict[str, dict]:
    return json.loads(ANALYTIC_PATH.read_text())["cells"]


_CASES = list(_cases())


@pytest.mark.parametrize(
    "machine_name,algorithm_name,kwargs,message,self_loops",
    [pytest.param(*case[1:], id=case[0]) for case in _CASES],
)
def test_analytic_matches_golden(request, machine_name, algorithm_name, kwargs,
                                 message, self_loops):
    expected = _golden()[request.node.callspec.id]
    assert _run(machine_name, algorithm_name, kwargs, message,
                self_loops) == expected


def test_golden_file_covers_every_case():
    assert set(_golden()) == {case[0] for case in _CASES}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {ANALYTIC_PATH.name}"
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    cells = {case[0]: _run(*case[1:]) for case in _CASES}
    ANALYTIC_PATH.write_text(
        json.dumps(
            {
                "note": "sim_mode='analytic' runs of the golden grid plus one "
                "allgatherv and one self-loop cell per algorithm; see "
                "tests/sim/test_golden_analytic.py",
                "cells": cells,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(cells)} cells to {ANALYTIC_PATH}")


if __name__ == "__main__":
    main()
