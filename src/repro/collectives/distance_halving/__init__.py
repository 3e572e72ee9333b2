"""The paper's Distance Halving neighborhood allgather.

Module map (mirroring the paper's Section VI):

* :mod:`matrix_a` — candidate agents/origins and Matrix A (Fig. 3).
* :mod:`negotiation` — the distributed agent/origin selection protocol
  (Algorithms 2 and 3: REQ/ACCEPT/DROP/EXIT), emulated deterministically,
  plus the equivalent greedy matching used as the fast path.
* :mod:`pattern` — the communication-pattern data model (steps, agents,
  origins, descriptor ``D``, final-phase send/recv lists).
* :mod:`builder` — Algorithm 1: recursive halving, duty offloading,
  bookkeeping of ``O_on``/``O_off``/``O_org``/``I_on``.
* :mod:`operation` — Algorithm 4: the halving phase and the intra-socket
  phase as each rank's op stream.
"""

from repro.collectives.distance_halving.algorithm import DistanceHalvingAllgather
from repro.collectives.distance_halving.builder import build_patterns
from repro.collectives.distance_halving.matrix_a import adjacency_matrix, build_matrix_a
from repro.collectives.distance_halving.negotiation import (
    NegotiationOutcome,
    greedy_matching,
    protocol_matching,
)
from repro.collectives.distance_halving.pattern import (
    CommunicationPattern,
    FinalRecv,
    FinalSend,
    HalvingStep,
    PatternStats,
    RankPattern,
)

__all__ = [
    "DistanceHalvingAllgather",
    "build_patterns",
    "adjacency_matrix",
    "build_matrix_a",
    "greedy_matching",
    "protocol_matching",
    "NegotiationOutcome",
    "CommunicationPattern",
    "RankPattern",
    "HalvingStep",
    "FinalSend",
    "FinalRecv",
    "PatternStats",
]
