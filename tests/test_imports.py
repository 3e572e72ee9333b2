"""The simulation, sweep, selection, bench and CLI paths import no scipy.

scipy serves SpMM, sparse-matrix topologies and model validation, and each
of those imports it inside the function that calls it.  Every check here
runs a fresh interpreter, so what the pytest process has already imported
does not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Appended to every script: exit non-zero, naming each scipy module loaded.
NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit("scipy modules loaded: " + ", ".join(loaded))
"""

CELLS = """
import sys

import repro
import repro.bench
import repro.cli
import repro.exec
import repro.select
from repro.collectives import RunOptions
from repro.exec import MachineSpec, RunSpec, TopologySpec, execute
from repro.sim.faults import get_profile

n = 32
topology = TopologySpec("random", n, density=0.3, seed=5)
machine = MachineSpec.for_ranks(n, 4)
lossy = RunOptions(fault_plan=get_profile("lossy", n), fallback="naive", verify=True)
fast = RunOptions(sim_mode="auto", verify=True)
sweep = execute([
    RunSpec("distance_halving", topology, machine, 1024, options=lossy),
    RunSpec("auto", topology, machine, 1024, options=fast),
]).raise_errors()
paths = [run.sim_path for run in sweep.runs]
assert paths == ["des", "fastpath"], paths
"""

HELP = """
import runpy
import sys

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert exc.code in (None, 0), exc.code
"""


def _run(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script + NO_SCIPY],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_sweep_selection_and_fault_cells_import_no_scipy():
    _run(CELLS)


def test_cli_help_imports_no_scipy():
    assert "usage:" in _run(HELP).stdout
