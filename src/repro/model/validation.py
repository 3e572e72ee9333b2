"""Model-vs-simulation validation (the paper's Fig. 4 claim, quantified).

The paper states its measurements "confirm the validity of our performance
model" while acknowledging absolute differences.  :func:`validate_model`
makes that statement precise: it measures both algorithms on the simulator
over a (density x size) grid, evaluates Eqs. (5)/(8) on the same grid, and
reports

* the Spearman rank correlation between predicted and measured speedups
  (does the model order the cells correctly?),
* sign agreement (does the model pick the right winner per cell?), and
* the mean absolute log-ratio error (how far off are the magnitudes?).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.calibration import calibrate
from repro.cluster.machine import Machine
from repro.collectives.base import get_algorithm
from repro.collectives.runner import run_allgather
from repro.model.equations import ModelParams, dh_total_time, naive_total_time
from repro.topology.random_graphs import erdos_renyi_topology
from repro.utils.sizes import parse_size


@dataclass
class ModelValidation:
    """Agreement metrics between model and simulation over a grid."""

    cells: int
    spearman: float          #: rank correlation of speedups (1.0 = same order)
    sign_agreement: float    #: fraction of cells where both pick the same winner
    mean_abs_log_error: float  #: mean |ln(predicted/measured)| of the speedup
    records: list[dict] = field(repr=False, default_factory=list)


def validate_model(
    machine: Machine,
    densities: tuple[float, ...] = (0.05, 0.2, 0.5),
    sizes: tuple[int | str, ...] = ("64", "4KB", "256KB"),
    seed: int = 13,
    params: ModelParams | None = None,
) -> ModelValidation:
    """Run the grid on the simulator and score the model against it."""
    if params is None:
        fit = calibrate(machine)
        params = ModelParams.from_machine(machine, alpha=fit.alpha, beta=fit.beta)

    records: list[dict] = []
    predicted, measured = [], []
    for density in densities:
        topology = erdos_renyi_topology(machine.spec.n_ranks, density, seed=seed)
        naive_alg = get_algorithm("naive")
        dh_alg = get_algorithm("distance_halving")
        for size in sizes:
            nbytes = parse_size(size)
            t_naive = run_allgather(naive_alg, topology, machine, nbytes).simulated_time
            t_dh = run_allgather(dh_alg, topology, machine, nbytes).simulated_time
            meas = t_naive / t_dh
            pred = float(
                naive_total_time(params, density, nbytes)
                / dh_total_time(params, density, nbytes)
            )
            predicted.append(pred)
            measured.append(meas)
            records.append(
                {
                    "density": density,
                    "msg_size": nbytes,
                    "measured_speedup": meas,
                    "predicted_speedup": pred,
                    "log_error": float(np.log(pred / meas)),
                }
            )

    predicted_arr = np.asarray(predicted)
    measured_arr = np.asarray(measured)
    if len(predicted) > 1:
        from scipy.stats import spearmanr

        spearman = float(spearmanr(predicted_arr, measured_arr).statistic)
    else:
        spearman = 1.0
    sign_agreement = float(
        np.mean((predicted_arr > 1.0) == (measured_arr > 1.0))
    )
    male = float(np.mean(np.abs(np.log(predicted_arr / measured_arr))))
    return ModelValidation(
        cells=len(records),
        spearman=spearman,
        sign_agreement=sign_agreement,
        mean_abs_log_error=male,
        records=records,
    )
