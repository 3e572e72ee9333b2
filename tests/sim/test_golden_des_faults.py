"""Golden pin for the engine's fault paths: faults, fallback, crashes, recovery.

``tests/data/golden_des_faults.json`` holds one discrete-event run per cell
of the grid below: five backends (naive, Common Neighbor with ``k=4``,
Distance Halving, Bruck and hierarchical) x the seven resilience profiles
x three message sizes (8 B, 4 KiB and one allgatherv size list) on two
random graphs, 210 cells.  Each cell stores ``simulated_time``,
``messages_sent``, ``bytes_sent``, the finish times, the missing ranks,
the recovery summary, the fault counters and the requested algorithm of a
fallback, compared with ``==``.  The clean golden grid
(``golden_sim_times.json``) has no faults and no hierarchical; this file
pins what the engine does when ranks straggle, messages drop, setups fail
and ranks crash.

Re-record only for an intended change of the engine or of a backend, and
say why in the commit::

    PYTHONPATH=src python -m tests.sim.test_golden_des_faults --record
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.collectives.base import get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.exec.spec import MachineSpec, TopologySpec
from repro.sim.faults import CRASH_PROFILE_MODES, PROFILE_NAMES, resilience_profiles
from tests.sim.test_golden_times import GOLDEN_PATH

FAULTS_PATH = GOLDEN_PATH.with_name("golden_des_faults.json")

ALGORITHMS = (
    ("naive", {}),
    ("common_neighbor", {"k": 4}),
    ("distance_halving", {}),
    ("bruck", {}),
    ("hierarchical", {}),
)
#: (n, density, topology seed); each graph runs on ``MachineSpec.for_ranks(n, 4)``.
GRAPHS = ((32, 0.3, 11), (48, 0.1, 12))
#: Seed of the fault plans (``resilience_profiles(n, seed=PLAN_SEED)``).
PLAN_SEED = 7
SIZES = ("8", "4096", "v")


def _message(size: str, n: int):
    if size == "v":
        return [(r % 5) * 128 + 8 for r in range(n)]
    return int(size)


def _cases():
    """(case id, n, density, topology seed, algorithm, kwargs, profile, size)."""
    for n, density, seed in GRAPHS:
        for name, kwargs in ALGORITHMS:
            for profile in PROFILE_NAMES:
                for size in SIZES:
                    yield (f"n{n}-{name}-{profile}-{size}", n, density, seed,
                           name, kwargs, profile, size)


def _run(n, density, seed, algorithm_name, kwargs, profile, size):
    machine = MachineSpec.for_ranks(n, 4).build()
    topology = TopologySpec("random", n, density=density, seed=seed).build()
    plan = resilience_profiles(n, seed=PLAN_SEED).get(profile)  # clean: None
    options = RunOptions(
        fault_plan=plan,
        fallback="naive" if plan is not None else None,
        max_sim_time=5.0,
        max_events=200 * n * n,
        verify=True,
        on_failure=CRASH_PROFILE_MODES.get(profile, "abort"),
    )
    run = run_allgather(get_algorithm(algorithm_name, **kwargs), topology,
                        machine, _message(size, n), options=options)
    assert run.sim_path == "des"
    return {
        "simulated_time": run.simulated_time,
        "messages_sent": run.messages_sent,
        "bytes_sent": run.bytes_sent,
        "finish_times": sorted([r, t] for r, t in run.finish_times.items()),
        "missing_ranks": list(run.missing_ranks),
        "recovery": run.recovery,
        "fault_stats": run.fault_stats,
        "requested_algorithm": run.requested_algorithm,
    }


def _golden() -> dict[str, dict]:
    return json.loads(FAULTS_PATH.read_text())["cells"]


_CASES = list(_cases())


@pytest.mark.parametrize(
    "n,density,seed,algorithm_name,kwargs,profile,size",
    [pytest.param(*case[1:], id=case[0]) for case in _CASES],
)
def test_des_faults_match_golden(request, n, density, seed, algorithm_name,
                                 kwargs, profile, size):
    expected = _golden()[request.node.callspec.id]
    assert _run(n, density, seed, algorithm_name, kwargs, profile,
                size) == expected


def test_golden_file_covers_every_case():
    assert set(_golden()) == {case[0] for case in _CASES}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {FAULTS_PATH.name}"
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    cells = {case[0]: _run(*case[1:]) for case in _CASES}
    note = ("discrete-event runs of five backends x the seven resilience "
            "profiles x three message sizes on two random graphs; see "
            "tests/sim/test_golden_des_faults.py")
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cells.items())
    FAULTS_PATH.write_text(
        f'{{\n "note": {json.dumps(note)},\n "cells": {{\n{lines}\n }}\n}}\n'
    )
    print(f"recorded {len(cells)} cells to {FAULTS_PATH}")


if __name__ == "__main__":
    main()
