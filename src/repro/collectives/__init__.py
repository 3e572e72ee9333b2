"""Neighborhood-allgather algorithms and their execution harness.

The algorithm zoo, in registration order:

* :class:`NaiveAllgather` — direct point-to-point to every neighbor
  (default Open MPI / MPICH behaviour).
* :class:`CommonNeighborAllgather` — message combining over groups of K
  ranks with common outgoing neighbors (Ghazimirsaeed et al., IPDPS'19).
* :class:`DistanceHalvingAllgather` — the paper's topology- and load-aware
  distance-halving design.
* :class:`HierarchicalAllgather` — leader-based aggregate/exchange/
  redistribute baseline (lookup-only: registered without bench/oracle
  capabilities).
* :class:`LocalityAwareBruckAllgather` — rotation-indexed log-round Bruck
  between socket/node leaders (Bienz et al., arXiv:2206.03564).

Every backend defines its operation once, as one op stream per rank
(:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.rank_ops`).
The discrete-event engine runs the streams through the base class's
generic rank program, which moves block ids as message payloads and checks
every send, receive and delivery against them; the hybrid fast path
materialises the same streams as a static schedule.  So every backend,
``hierarchical`` included, runs under both ``sim_mode="des"`` and
``"auto"`` with bit-identical results.

Every backend registers through the capability-aware registry in
:mod:`repro.collectives.base`: benches, the differential fuzzer, and the
CLI query :func:`list_algorithms` for the capabilities they need
(``oracle``, ``bench``, ``replan``, ...) instead of hardcoding names, so
registering a backend enrolls it everywhere at once.  All oracle-capable
algorithms run through :func:`run_allgather` and produce byte-identical
receive buffers (property-tested), differing only in messaging schedule
and cost.
"""

from repro.collectives.base import (
    CAPABILITIES,
    SETUP_FREE_FALLBACK,
    AlgorithmInfo,
    ExecutionContext,
    NeighborhoodAllgatherAlgorithm,
    SetupStats,
    algorithm_info,
    available_algorithms,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.collectives.naive import NaiveAllgather
from repro.collectives.common_neighbor import CommonNeighborAllgather
from repro.collectives.distance_halving import DistanceHalvingAllgather
from repro.collectives.hierarchical import HierarchicalAllgather
from repro.collectives.bruck import LocalityAwareBruckAllgather
from repro.collectives.runner import (
    DEFAULT_OPTIONS,
    AllgatherRun,
    RunOptions,
    VerificationError,
    run_allgather,
    run_allgatherv,
    verify_allgather,
)

__all__ = [
    "NeighborhoodAllgatherAlgorithm",
    "ExecutionContext",
    "SetupStats",
    "AlgorithmInfo",
    "CAPABILITIES",
    "SETUP_FREE_FALLBACK",
    "register_algorithm",
    "get_algorithm",
    "algorithm_info",
    "list_algorithms",
    "available_algorithms",
    "NaiveAllgather",
    "CommonNeighborAllgather",
    "DistanceHalvingAllgather",
    "HierarchicalAllgather",
    "LocalityAwareBruckAllgather",
    "AllgatherRun",
    "RunOptions",
    "VerificationError",
    "DEFAULT_OPTIONS",
    "run_allgather",
    "run_allgatherv",
    "verify_allgather",
]
