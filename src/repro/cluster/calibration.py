"""Ping-pong calibration of the analytic model's (alpha, beta).

The paper parameterizes its performance model "based on parameters obtained
from ping-pong tests conducted on the Niagara cluster".  We do the same
against our simulated machine: run a ping-pong between two ranks through the
discrete-event simulator at several message sizes, then least-squares fit
Hockney's ``t = alpha + m / beta`` to the one-way times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Machine
from repro.utils.sizes import parse_size

#: Default sizes used for the fit: small sizes pin alpha, large sizes pin beta.
DEFAULT_PING_PONG_SIZES = (64, 1024, 8192, 65536, 524288, 4194304)


@dataclass(frozen=True)
class HockneyFit:
    """Fitted Hockney parameters: ``time(m) = alpha + m / beta``."""

    alpha: float
    beta: float
    residual: float

    def time(self, nbytes: float) -> float:
        return self.alpha + nbytes / self.beta


def simulated_ping_pong(
    machine: Machine,
    rank_a: int = 0,
    rank_b: int | None = None,
    sizes: tuple[int, ...] = DEFAULT_PING_PONG_SIZES,
    repeats: int = 3,
) -> dict[int, float]:
    """One-way latency per message size between two ranks on ``machine``.

    ``rank_b`` defaults to a rank on a *different node* when the machine has
    more than one node (the paper's ping-pong crosses the network), else the
    farthest rank available.  Returns {size: one_way_seconds}.
    """
    # Imported late: repro.sim depends on repro.cluster, not vice versa.
    from repro.sim.engine import Engine
    from repro.sim.program import rank_program

    n = machine.spec.n_ranks
    if rank_b is None:
        rank_b = machine.spec.ranks_per_node if n > machine.spec.ranks_per_node else n - 1
    if rank_a == rank_b:
        raise ValueError("ping-pong needs two distinct ranks")

    results: dict[int, float] = {}
    for size in sizes:
        size = parse_size(size)
        # Each message carries no block (``()``); a wait after every op
        # makes each leg blocking.  The other ranks have no program.
        ops: dict[int, list[tuple]] = {rank_a: [], rank_b: []}
        for i in range(repeats):
            ops[rank_a] += [("send", rank_b, size, 2 * i, ()), ("wait",),
                            ("recv", rank_b, 2 * i + 1, size), ("wait",)]
            ops[rank_b] += [("recv", rank_a, 2 * i, size), ("wait",),
                            ("send", rank_a, size, 2 * i + 1, ()), ("wait",)]
        engine = Engine(n_ranks=n, machine=machine)
        for rank in sorted(ops):
            engine.spawn(rank, rank_program(engine, rank, ops[rank]))
        engine.run()
        round_trip = engine.finish_time(rank_a) / repeats
        results[size] = round_trip / 2.0
    return results


def fit_hockney(samples: dict[int, float]) -> HockneyFit:
    """Least-squares fit of ``t = alpha + m / beta`` to {size: time} samples."""
    if len(samples) < 2:
        raise ValueError("need at least two (size, time) samples to fit")
    sizes = np.array(sorted(samples), dtype=float)
    times = np.array([samples[int(s)] for s in sizes], dtype=float)
    design = np.column_stack([np.ones_like(sizes), sizes])
    coeffs, residuals, _, _ = np.linalg.lstsq(design, times, rcond=None)
    alpha, inv_beta = float(coeffs[0]), float(coeffs[1])
    if inv_beta <= 0:
        raise ValueError("fit produced non-positive bandwidth; samples look degenerate")
    alpha = max(alpha, 0.0)
    residual = float(residuals[0]) if residuals.size else 0.0
    return HockneyFit(alpha=alpha, beta=1.0 / inv_beta, residual=residual)


def calibrate(machine: Machine, **kwargs) -> HockneyFit:
    """Ping-pong then fit, in one call (what the benchmarks use)."""
    return fit_hockney(simulated_ping_pong(machine, **kwargs))
