"""Hockney-model crossovers: the analytic prior for algorithm selection.

The paper's Eqs. (5) and (8) price the naive and Distance Halving
algorithms on an Erdős–Rényi workload; their ratio flips as density,
scale, and message size move.  :func:`analytic_ranking` turns that into a
full candidate ordering (the two modeled algorithms by predicted time,
the remaining registry candidates after them in registration order) and
:func:`crossover_density` locates the density where the prediction flips
— both feed :mod:`repro.select` as the *prior* that empirical sweep
results refine.
"""

from __future__ import annotations

from repro.model.equations import ModelParams, dh_total_time, naive_total_time

#: The two algorithms Eqs. (1)-(8) actually model.
MODELED = ("naive", "distance_halving")


def model_params_for(
    n: int,
    sockets: int,
    ranks_per_socket: int,
    alpha: float,
    beta: float,
) -> ModelParams:
    """A :class:`ModelParams` tolerant of degenerate selector inputs.

    Selection features come from arbitrary live workloads, so ``n`` may be
    smaller than a socket (a 2-rank communicator on an 8-rank-per-socket
    machine): clamp ``L`` to ``n`` — the halving recursion stops at the
    communicator then, which is exactly what the pattern builder does.
    """
    return ModelParams(
        n=max(n, 1),
        sockets=max(sockets, 1),
        ranks_per_socket=max(1, min(ranks_per_socket, n)),
        alpha=alpha,
        beta=beta,
    )


def predicted_times(
    params: ModelParams, delta: float, msg_bytes: float
) -> dict[str, float]:
    """Eq. (5) / Eq. (8) predictions for one (density, size) point."""
    return {
        "naive": float(naive_total_time(params, delta, msg_bytes)),
        "distance_halving": float(dh_total_time(params, delta, msg_bytes)),
    }


def analytic_ranking(
    params: ModelParams,
    delta: float,
    msg_bytes: float,
    candidates: tuple[str, ...] = MODELED,
) -> tuple[str, ...]:
    """Candidates best-first under the model.

    The modeled pair is ordered by predicted time; any other candidate
    (Common Neighbor, Bruck — algorithms the closed-form model does not
    cover) keeps its relative ``candidates`` order and follows the modeled
    pair.  Deterministic: ties break toward the ``candidates`` order.
    """
    times = predicted_times(params, delta, msg_bytes)
    modeled = [name for name in candidates if name in times]
    rest = [name for name in candidates if name not in times]
    modeled.sort(key=lambda name: (times[name], candidates.index(name)))
    return tuple(modeled + rest)


def crossover_density(
    params: ModelParams, msg_bytes: float, tolerance: float = 1e-4
) -> float | None:
    """Smallest density where DH is predicted to beat naive, or ``None``.

    Bisects ``delta`` in (0, 1]; the paper's Fig. 2 shows the speedup
    region is a single connected band in density for fixed ``m``, so a
    sign change between the probe points brackets the crossover.
    """
    def advantage(delta: float) -> float:
        t = predicted_times(params, delta, msg_bytes)
        return t["naive"] - t["distance_halving"]

    lo, hi = tolerance, 1.0
    if advantage(hi) <= 0 and advantage(lo) <= 0:
        return None  # naive predicted best everywhere
    if advantage(lo) > 0:
        return lo  # DH already ahead at vanishing density
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if advantage(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def crossover_size(
    params: ModelParams, delta: float, max_bytes: int = 1 << 24
) -> int | None:
    """Smallest message size where DH is predicted to beat naive.

    Returns ``None`` when naive is predicted best across the whole range.
    The advantage is monotone in ``m`` for fixed density (bandwidth terms
    scale linearly with opposite coefficients), so binary search applies.
    """
    def dh_ahead(m: float) -> bool:
        t = predicted_times(params, delta, m)
        return t["distance_halving"] < t["naive"]

    if dh_ahead(0.0):
        return 0
    if not dh_ahead(float(max_bytes)):
        return None
    lo, hi = 0, max_bytes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dh_ahead(float(mid)):
            hi = mid
        else:
            lo = mid
    return hi

