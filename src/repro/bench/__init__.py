"""Benchmark harness: regenerates every figure of the paper's evaluation.

Each ``figN_*`` driver in :mod:`repro.bench.figures` produces the rows the
corresponding paper figure plots (who is compared, over which sweep), at a
configurable scale (:mod:`repro.bench.config`; paper scale is available but
slow in pure Python).  ``benchmarks/`` wraps these drivers in
pytest-benchmark targets; EXPERIMENTS.md records paper-vs-measured.
"""

from repro.bench.config import BenchScale, bench_machine, get_scale
from repro.bench.reporting import format_table, save_results
from repro.bench.wallclock import wallclock_bench

__all__ = [
    "BenchScale",
    "bench_machine",
    "get_scale",
    "format_table",
    "save_results",
    "wallclock_bench",
]
