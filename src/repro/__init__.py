"""repro — reproduction of "A Topology- and Load-Aware Design for
Neighborhood Allgather" (Sharifian, Sojoodi, Afsahi — CLUSTER 2024).

Quick tour
----------

>>> from repro import Machine, erdos_renyi_topology, run_allgather
>>> machine = Machine.niagara_like(nodes=4, ranks_per_socket=4)
>>> topo = erdos_renyi_topology(machine.spec.n_ranks, density=0.3, seed=0)
>>> naive = run_allgather("naive", topo, machine, "4KB")
>>> dh = run_allgather("distance_halving", topo, machine, "4KB")
>>> naive.simulated_time > dh.simulated_time
True

Subpackages
-----------

``repro.cluster``
    Machine model: rank placement, Hockney link costs, network topologies
    (Dragonfly+, fat tree, torus) with shared-bottleneck contention.
``repro.sim``
    Deterministic discrete-event MPI simulator (one rank program that
    runs each rank's op stream, non-blocking semantics, tag matching).
``repro.topology``
    Virtual topologies: distributed graphs, Erdős–Rényi, Moore
    neighborhoods, Cartesian stencils, matrix-induced graphs.
``repro.collectives``
    The three algorithms — naive, Common Neighbor, Distance Halving — and
    the execution/verification harness.
``repro.model``
    The paper's analytic performance model (Eqs. 1-8).
``repro.spmm``
    Neighborhood-allgather SpMM kernel and Table II synthetic matrices.
``repro.exec``
    Declarative :class:`~repro.exec.RunSpec` descriptions, the
    content-addressed result cache, and the parallel sweep orchestrator.
``repro.bench``
    Drivers that regenerate every figure of the paper's evaluation.
"""

from repro.cluster import (
    ClusterSpec,
    DragonflyPlus,
    FatTree,
    HockneyParameters,
    LinkClass,
    LinkCost,
    Machine,
    SingleSwitch,
    Torus,
    calibrate,
)
from repro.collectives import (
    CommonNeighborAllgather,
    DistanceHalvingAllgather,
    NaiveAllgather,
    RunOptions,
    available_algorithms,
    get_algorithm,
    run_allgather,
    run_allgatherv,
    verify_allgather,
)
from repro.model import ModelParams, dh_total_time, model_grid, naive_total_time
from repro.spmm import TABLE_II, run_spmm, synthetic_matrix
from repro.topology import (
    DistGraphTopology,
    cartesian_topology,
    dims_create,
    erdos_renyi_topology,
    moore_topology,
    topology_from_sparse,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster
    "ClusterSpec",
    "LinkClass",
    "LinkCost",
    "HockneyParameters",
    "Machine",
    "SingleSwitch",
    "DragonflyPlus",
    "FatTree",
    "Torus",
    "calibrate",
    # topology
    "DistGraphTopology",
    "erdos_renyi_topology",
    "moore_topology",
    "cartesian_topology",
    "dims_create",
    "topology_from_sparse",
    # collectives
    "NaiveAllgather",
    "CommonNeighborAllgather",
    "DistanceHalvingAllgather",
    "available_algorithms",
    "get_algorithm",
    "RunOptions",
    "run_allgather",
    "run_allgatherv",
    "verify_allgather",
    # model
    "ModelParams",
    "model_grid",
    "naive_total_time",
    "dh_total_time",
    # spmm
    "TABLE_II",
    "synthetic_matrix",
    "run_spmm",
]
