"""Checks of the benchmark itself (smoke mode).

Run with ``PYTHONPATH=src python -m pytest perf -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
BENCH = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
sys.path.insert(0, str(PERF.parent / "src"))


def run(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    code, result = run("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def _planted_run(tmp_path, plant) -> tuple[int, dict | None]:
    """A smoke run of fig5_cold against a reference with its first cell edited."""
    from workloads import build_rounds, reference_key

    reference = json.loads((PERF / "reference.json").read_text())
    label, _ = build_rounds("fig5_cold", 23, 1, smoke=True)[0][0]
    key = reference_key("fig5_cold", 23, None, label)
    plant(reference["cells"], key)
    planted = tmp_path / "reference.json"
    planted.write_text(json.dumps(reference))
    return run("--workload", "fig5_cold", "--seed", "23", "--reference", str(planted))


def test_planted_reference_mismatch_fails_the_run(tmp_path):
    def corrupt(cells, key):
        cells[key] = [cells[key][0] * 1.5, *cells[key][1:]]

    code, result = _planted_run(tmp_path, corrupt)
    assert code != 0
    assert result["failed"] == 1 and not result["correct"]


def test_missing_reference_entry_fails_the_run(tmp_path):
    code, result = _planted_run(tmp_path, lambda cells, key: cells.pop(key))
    assert code != 0
    assert result["failed"] == 1 and not result["correct"]


def test_missing_trace_target_is_reported_absent():
    from layers import LAYERS, Tracer

    missing = ["repro.sim.fastpath.no_such_function", "no_such_package.module.fn"]
    layers = dict(LAYERS, **{"sim.compile": (*LAYERS["sim.compile"], missing[0]),
                             "gone": (missing[1],)})
    import repro.sim.fastpath as fastpath

    original = fastpath.compiled_for
    with Tracer(layers) as tracer:
        assert fastpath.compiled_for is not original
    assert tracer.absent == missing
    assert fastpath.compiled_for is original
