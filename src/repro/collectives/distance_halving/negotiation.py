"""Agent/origin selection: the joint mechanism of Algorithms 2 and 3.

Two implementations of the same matching:

* :func:`greedy_matching` — the deterministic fixed point the distributed
  protocol converges to.  With symmetric scores (``|O_a ∩ O_b ∩ half|`` is
  symmetric in a and b) and lowest-rank tie-breaking, the protocol always
  matches the globally best remaining (searcher, acceptor) pair first; that
  is exactly greedy maximum-weight bipartite matching on edges sorted by
  ``(-score, searcher, acceptor)``.  Used as the builder's fast path: one
  stable numpy sort orders the candidates, then a scan over plain Python
  lists takes every pair whose two ends are still free.

* :func:`protocol_matching` — a faithful, message-by-message emulation of
  the REQ/ACCEPT/DROP/EXIT signal protocol, with WAITING semantics and
  per-signal counting.  Used for the Fig. 8 overhead study and to verify
  (in tests, on random instances) that the greedy fast path produces the
  identical matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


#: Candidate pairs per numpy pre-filter of the greedy scan.
_SCAN_CHUNK = 4096


@dataclass
class NegotiationOutcome:
    """Result of one matching round between two halves.

    ``matching`` maps searcher rank -> acceptor rank.  Message counts cover
    every control signal the protocol exchanged (REQ, ACCEPT, DROP, EXIT).
    """

    matching: dict[int, int]
    req_messages: int = 0
    accept_messages: int = 0
    drop_messages: int = 0
    exit_messages: int = 0

    @property
    def total_messages(self) -> int:
        return self.req_messages + self.accept_messages + self.drop_messages + self.exit_messages


def greedy_matching(
    searchers: list[int],
    acceptors: list[int],
    scores: np.ndarray,
) -> dict[int, int]:
    """Maximum-first greedy one-to-one matching.

    ``scores[i, j]`` is the shared-neighbor count between ``searchers[i]``
    and ``acceptors[j]``; zero-score pairs are not candidates.  Edges are
    taken in order of decreasing score, ties broken by (searcher rank,
    acceptor rank) ascending — the protocol's lowest-rank tie-break.
    """
    _check_shape(searchers, acceptors, scores)
    si, aj = np.nonzero(scores > 0)
    # nonzero is row-major, so the candidates arrive in (i, j) order and a
    # stable sort by -score yields the (-score, i, j) order.
    order = np.argsort(-scores[si, aj], kind="stable")
    return _take_in_order(searchers, acceptors, si[order], aj[order])


def random_matching(
    searchers: list[int],
    acceptors: list[int],
    scores: np.ndarray,
    rng: np.random.Generator,
) -> dict[int, int]:
    """Ablation baseline: match candidate pairs in random order.

    Same candidate edges as the load-aware mechanism (score > 0), but the
    matching ignores shared-neighbor counts — this isolates the value of
    the paper's load-aware agent choice.
    """
    _check_shape(searchers, acceptors, scores)
    si, aj = np.nonzero(scores > 0)
    order = rng.permutation(si.size)
    return _take_in_order(searchers, acceptors, si[order], aj[order])


def _check_shape(searchers: list[int], acceptors: list[int], scores: np.ndarray) -> None:
    if scores.shape != (len(searchers), len(acceptors)):
        raise ValueError(
            f"scores shape {scores.shape} does not match "
            f"({len(searchers)}, {len(acceptors)})"
        )


def _take_in_order(
    searchers: list[int],
    acceptors: list[int],
    rows: np.ndarray,
    cols: np.ndarray,
) -> dict[int, int]:
    """Scan candidate pairs ``(rows[k], cols[k])`` in order, keeping each
    pair whose searcher and acceptor are both still free.  Per chunk, numpy
    first drops the pairs with an end matched in earlier chunks: late in a
    dense split, almost all of them."""
    want = min(len(searchers), len(acceptors))
    s_matched = bytearray(len(searchers))
    a_matched = bytearray(len(acceptors))
    # Views of the flags: they see every match the scan records.
    s_view = np.frombuffer(s_matched, dtype=np.uint8)
    a_view = np.frombuffer(a_matched, dtype=np.uint8)
    matching: dict[int, int] = {}
    for start in range(0, rows.size, _SCAN_CHUNK):
        r = rows[start : start + _SCAN_CHUNK]
        c = cols[start : start + _SCAN_CHUNK]
        free = (s_view[r] | a_view[c]) == 0
        for i, j in zip(r[free].tolist(), c[free].tolist()):
            if s_matched[i] or a_matched[j]:
                continue
            s_matched[i] = a_matched[j] = 1
            matching[searchers[i]] = acceptors[j]
            if len(matching) == want:
                return matching
    return matching


# --------------------------------------------------------------------------
# Protocol emulation (Algorithms 2 & 3)
# --------------------------------------------------------------------------

_REQ, _ACCEPT, _DROP, _EXIT = "REQ", "ACCEPT", "DROP", "EXIT"


@dataclass
class _Searcher:
    """State of one rank running find_agent (Algorithm 2)."""

    rank: int
    # candidate acceptor -> score; ACTIVE candidates only (removed on DROP/match)
    candidates: dict[int, float]
    proposed_to: int | None = None
    matched: int | None = None
    done: bool = False

    def best_candidate(self) -> int | None:
        if not self.candidates:
            return None
        # max score, ties to lowest rank
        return min(self.candidates, key=lambda c: (-self.candidates[c], c))


@dataclass
class _Acceptor:
    """State of one rank running find_origin (Algorithm 3)."""

    rank: int
    # candidate searcher -> score; ACTIVE until EXIT/DROP-resolution
    candidates: dict[int, float]
    waiting: set[int] = field(default_factory=set)
    matched: int | None = None

    def best_candidate(self) -> int | None:
        if not self.candidates:
            return None
        return min(self.candidates, key=lambda c: (-self.candidates[c], c))


def protocol_matching(
    searchers: list[int],
    acceptors: list[int],
    scores: np.ndarray,
) -> NegotiationOutcome:
    """Emulate the REQ/ACCEPT/DROP/EXIT protocol deterministically.

    Signals travel through a FIFO queue (rank order seeds the initial
    proposals), which models an arbitrary-but-deterministic interleaving of
    the asynchronous MPI protocol.  The fixed point — which pairs match —
    is interleaving-independent (see :func:`greedy_matching`); the signal
    *counts* depend mildly on interleaving, as they do on a real machine.
    """
    _check_shape(searchers, acceptors, scores)
    out = NegotiationOutcome(matching={})

    s_index = {r: i for i, r in enumerate(searchers)}
    a_index = {r: j for j, r in enumerate(acceptors)}
    s_states: dict[int, _Searcher] = {}
    a_states: dict[int, _Acceptor] = {}
    for r, i in s_index.items():
        cands = {acceptors[j]: float(scores[i, j]) for j in np.flatnonzero(scores[i] > 0)}
        s_states[r] = _Searcher(rank=r, candidates=cands)
    for r, j in a_index.items():
        cands = {searchers[i]: float(scores[i, j]) for i in np.flatnonzero(scores[:, j] > 0)}
        a_states[r] = _Acceptor(rank=r, candidates=cands)

    queue: deque[tuple[str, int, int]] = deque()  # (signal, src, dst)

    def send(signal: str, src: int, dst: int) -> None:
        queue.append((signal, src, dst))
        if signal == _REQ:
            out.req_messages += 1
        elif signal == _ACCEPT:
            out.accept_messages += 1
        elif signal == _DROP:
            out.drop_messages += 1
        else:
            out.exit_messages += 1

    def searcher_propose(s: _Searcher) -> None:
        target = s.best_candidate()
        if target is None:
            s.done = True  # agent-selection failed for this rank this step
            return
        s.proposed_to = target
        send(_REQ, s.rank, target)

    def acceptor_accept(a: _Acceptor, s_rank: int) -> None:
        a.matched = s_rank
        out.matching[s_rank] = a.rank
        send(_ACCEPT, a.rank, s_rank)
        # DROP everyone else still active or waiting (Algorithm 3, line 20).
        for other in sorted(set(a.candidates) | a.waiting):
            if other != s_rank:
                send(_DROP, a.rank, other)
        a.candidates.clear()
        a.waiting.clear()

    def acceptor_try_best(a: _Acceptor) -> None:
        """Accept the current best candidate if it is already WAITING."""
        if a.matched is not None:
            return
        best = a.best_candidate()
        if best is not None and best in a.waiting:
            acceptor_accept(a, best)

    # Algorithm 2 line 13-18: every searcher opens with a proposal.
    for r in sorted(s_states):
        searcher_propose(s_states[r])
    # Acceptors whose candidate set is empty are trivially done already.

    while queue:
        signal, src, dst = queue.popleft()
        if signal == _REQ:
            a = a_states[dst]
            if a.matched is not None or src not in a.candidates:
                send(_DROP, dst, src)
            elif src == a.best_candidate():
                acceptor_accept(a, src)
            else:
                a.waiting.add(src)  # Algorithm 3, line 39: defer the reply
        elif signal == _ACCEPT:
            s = s_states[dst]
            s.matched = src
            s.done = True
            # EXIT to every other still-active candidate (Algorithm 2, line 29).
            for other in sorted(s.candidates):
                if other != src:
                    send(_EXIT, s.rank, other)
            s.candidates.clear()
        elif signal == _DROP:
            s = s_states[dst]
            if s.matched is not None:
                continue  # stale DROP after a successful match elsewhere
            s.candidates.pop(src, None)
            if s.proposed_to == src:
                searcher_propose(s)  # Algorithm 2, line 32: look for a new agent
            else:
                send(_EXIT, s.rank, src)  # Algorithm 2, line 34
        else:  # EXIT: the searcher will never request this acceptor
            a = a_states[dst]
            was_best = src == a.best_candidate()
            a.candidates.pop(src, None)
            a.waiting.discard(src)
            if was_best:
                acceptor_try_best(a)  # Algorithm 3, line 46: update best origin

    # Sanity: nobody should be left proposed-but-unanswered.
    for s in s_states.values():
        if s.matched is None and not s.done and s.candidates:
            raise RuntimeError(
                f"negotiation stalled: searcher {s.rank} still has candidates "
                f"{sorted(s.candidates)}"
            )
    return out
