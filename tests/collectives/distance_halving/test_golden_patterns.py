"""Golden Distance Halving patterns: the builder's output, pinned bit for bit.

``tests/data/golden_patterns.json`` holds one SHA-256 digest per case of
everything :func:`build_patterns` returns: every ``HalvingStep`` field
(``send_pairs``/``recv_pairs`` included), the final-phase send and receive
lists in order, ``self_copy``, ``ranks_per_socket`` and every
``PatternStats`` field.  The digest hashes ``repr`` of those values, so a
numpy scalar where the data model holds a Python ``int`` changes it too.

A case is a topology, a ranks-per-socket ``L``, a selection, a
``stop_ranks`` and a ``record_pairs``.  The ``protocol`` selection is left
out on the 264-rank graphs with δ >= 0.3: its signal-by-signal emulation
takes 0.5-2 s per build there, and it finds the same matchings as
``greedy`` (``test_negotiation.py``), whose cases cover those graphs.

Re-record only for an intended change of the patterns, and say why in the
commit::

    PYTHONPATH=src python tests/collectives/distance_halving/test_golden_patterns.py --record
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import Machine
from repro.collectives.distance_halving.builder import build_patterns
from repro.collectives.distance_halving.pattern import CommunicationPattern
from repro.topology import (
    DistGraphTopology,
    cartesian_topology,
    erdos_renyi_topology,
    moore_topology,
    scale_free_topology,
)

GOLDEN_PATH = Path(__file__).resolve().parents[2] / "data" / "golden_patterns.json"

SELECTIONS = ("greedy", "protocol", "random")
#: Seed of the ``random`` selection's generator.
RANDOM_SEED = 7


def _topologies():
    """name -> (topology, its ranks-per-socket values, its selections)."""
    topos = {}
    for n in (24, 96, 264):
        for density in (0.05, 0.3, 1.0):
            topo = erdos_renyi_topology(n, density, seed=1000 + n + int(100 * density))
            selections = ("greedy", "random") if n == 264 and density >= 0.3 else SELECTIONS
            topos[f"er{n}_d{density}"] = (topo, (3, 12), selections)
    star = {0: list(range(1, 96))} | {u: [0] for u in range(1, 96)}
    self_loops = {r: [r, (r + 3) % 48, (7 * r) % 48] for r in range(48)}
    for name, topo in (
        ("moore96", moore_topology(96, r=1, d=2)),
        ("cart96", cartesian_topology(96, d=2)),
        ("scalefree96", scale_free_topology(96, edges_per_rank=4, seed=5)),
        ("star96", DistGraphTopology(96, star)),
        ("selfloop48", DistGraphTopology(48, self_loops)),
    ):
        topos[name] = (topo, (3,), SELECTIONS)
    return topos


def _cases():
    """(case id, topology, L, selection, stop_ranks, record_pairs).

    ``stop_ranks=1`` overrides ``L``, so it is built once per topology.
    """
    for name, (topo, socket_sizes, selections) in _topologies().items():
        stops = [(L, None) for L in socket_sizes] + [(socket_sizes[0], 1)]
        for L, stop in stops:
            for selection in selections:
                for record_pairs in (False, True):
                    case_id = (
                        f"{name}-L{L}-{selection}-stop{stop}"
                        f"{'-pairs' if record_pairs else ''}"
                    )
                    yield case_id, topo, L, selection, stop, record_pairs


def pattern_digest(pattern: CommunicationPattern) -> str:
    """SHA-256 over the full pattern, in rank order."""
    h = hashlib.sha256()
    h.update(repr((pattern.n, pattern.ranks_per_socket)).encode())
    h.update(repr(dataclasses.astuple(pattern.stats)).encode())
    for rp in pattern.ranks:
        h.update(
            repr((rp.rank, rp.self_copy, rp.steps, rp.final_sends, rp.final_recvs)).encode()
        )
    return h.hexdigest()


def _build(topo: DistGraphTopology, L: int, selection: str, stop, record_pairs: bool):
    # Only ranks_per_socket reaches the pattern; the node count is irrelevant.
    machine = Machine.niagara_like(nodes=1, ranks_per_socket=L)
    return build_patterns(
        topo, machine, selection=selection, stop_ranks=stop,
        seed=RANDOM_SEED, record_pairs=record_pairs,
    )


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


_CASES = list(_cases())


@pytest.mark.parametrize(
    "topo,L,selection,stop,record_pairs",
    [pytest.param(*case[1:], id=case[0]) for case in _CASES],
)
def test_pattern_matches_golden(request, topo, L, selection, stop, record_pairs):
    case_id = request.node.callspec.id
    pattern = _build(topo, L, selection, stop, record_pairs)
    assert pattern_digest(pattern) == _golden()[case_id]


def test_golden_file_covers_every_case():
    assert set(_golden()) == {case[0] for case in _CASES}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {GOLDEN_PATH.name}"
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    digests = {
        case_id: pattern_digest(_build(topo, L, selection, stop, record_pairs))
        for case_id, topo, L, selection, stop, record_pairs in _CASES
    }
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "note": "SHA-256 of each build_patterns output; see "
                "tests/collectives/distance_halving/test_golden_patterns.py",
                "digests": digests,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
