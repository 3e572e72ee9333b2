"""Unit + property tests for agent/origin selection (Algorithms 2 & 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.distance_halving.negotiation import (
    greedy_matching,
    protocol_matching,
    random_matching,
)


def scores_of(pairs, n_s, n_a):
    scores = np.zeros((n_s, n_a), dtype=np.float32)
    for (i, j), w in pairs.items():
        scores[i, j] = w
    return scores


def reference_greedy(searchers, acceptors, scores):
    """The original greedy loop: candidates lexsorted by (-score, i, j),
    taken one numpy scalar at a time.  The oracle for greedy_matching."""
    si, aj = np.nonzero(scores > 0)
    if si.size == 0:
        return {}
    weights = scores[si, aj]
    order = np.lexsort((aj, si, -weights))
    matched_s: set[int] = set()
    matched_a: set[int] = set()
    matching: dict[int, int] = {}
    for k in order:
        i, j = int(si[k]), int(aj[k])
        if i in matched_s or j in matched_a:
            continue
        matched_s.add(i)
        matched_a.add(j)
        matching[searchers[i]] = acceptors[j]
        if len(matched_s) == min(len(searchers), len(acceptors)):
            break
    return matching


class TestGreedyMatching:
    def test_empty(self):
        assert greedy_matching([], [], np.zeros((0, 0))) == {}

    def test_zero_scores_unmatched(self):
        assert greedy_matching([0], [1], np.zeros((1, 1))) == {}

    def test_prefers_highest_weight(self):
        scores = scores_of({(0, 0): 5, (0, 1): 3, (1, 0): 4, (1, 1): 1}, 2, 2)
        m = greedy_matching([10, 11], [20, 21], scores)
        assert m == {10: 20, 11: 21}  # (10,20)=5 first, then (11,21)=1

    def test_one_to_one(self):
        scores = scores_of({(0, 0): 5, (1, 0): 5}, 2, 1)
        m = greedy_matching([10, 11], [20], scores)
        assert m == {10: 20}  # tie broken to lower searcher; 11 unmatched

    def test_tie_break_lowest_acceptor(self):
        scores = scores_of({(0, 0): 2, (0, 1): 2}, 1, 2)
        m = greedy_matching([10], [20, 21], scores)
        assert m == {10: 20}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            greedy_matching([0], [1, 2], np.zeros((1, 1)))


class TestProtocolMatching:
    def test_single_pair_handshake(self):
        outcome = protocol_matching([0], [1], scores_of({(0, 0): 3}, 1, 1))
        assert outcome.matching == {0: 1}
        assert outcome.req_messages == 1
        assert outcome.accept_messages == 1
        assert outcome.total_messages == 2

    def test_rejected_searcher_moves_on(self):
        # Both searchers prefer acceptor 20; loser falls back to 21.
        scores = scores_of({(0, 0): 5, (1, 0): 4, (1, 1): 2}, 2, 2)
        outcome = protocol_matching([10, 11], [20, 21], scores)
        assert outcome.matching == {10: 20, 11: 21}
        assert outcome.drop_messages >= 1

    def test_waiting_searcher_accepted_after_exit(self):
        # 20's best is 11, but 11 matches 21 (their mutual weight is top);
        # 10 proposes to 20, WAITS, then gets accepted after 11's EXIT.
        scores = scores_of({(0, 0): 3, (1, 0): 5, (1, 1): 7}, 2, 2)
        outcome = protocol_matching([10, 11], [20, 21], scores)
        assert outcome.matching == {11: 21, 10: 20}
        assert outcome.exit_messages >= 1

    def test_failed_search(self):
        outcome = protocol_matching([0, 1], [2], scores_of({(0, 0): 2, (1, 0): 1}, 2, 1))
        assert outcome.matching == {0: 2}  # searcher 1 exhausts candidates

    def test_message_bound_four_per_pair(self):
        rng = np.random.default_rng(0)
        scores = (rng.random((12, 12)) < 0.6).astype(np.float32) * rng.integers(
            1, 9, (12, 12)
        )
        outcome = protocol_matching(list(range(12)), list(range(12, 24)), scores)
        candidate_pairs = int((scores > 0).sum())
        # Section VII-D: worst case 4 messages per candidate pair.
        assert outcome.total_messages <= 4 * candidate_pairs


class TestRandomMatching:
    def test_respects_candidate_edges(self):
        scores = scores_of({(0, 1): 1}, 2, 2)
        rng = np.random.default_rng(1)
        m = random_matching([10, 11], [20, 21], scores, rng)
        assert m in ({10: 21}, {})
        assert m == {10: 21}  # only one candidate edge: must take it

    def test_is_maximal_one_to_one(self):
        rng = np.random.default_rng(3)
        scores = np.ones((4, 4), dtype=np.float32)
        m = random_matching(list(range(4)), list(range(4, 8)), scores, rng)
        assert len(m) == 4
        assert len(set(m.values())) == 4


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 10),
    st.integers(1, 10),
    st.integers(0, 2**31 - 1),
    st.floats(0.1, 0.9),
)
def test_protocol_equals_greedy(n_s, n_a, seed, density):
    """The distributed protocol's fixed point is exactly the greedy matching
    (symmetric scores + lowest-rank tie-break) — the core claim that lets the
    builder use the fast path."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_s, n_a)) < density
    scores = (mask * rng.integers(1, 6, (n_s, n_a))).astype(np.float32)
    searchers = list(range(n_s))
    acceptors = list(range(100, 100 + n_a))
    assert protocol_matching(searchers, acceptors, scores).matching == greedy_matching(
        searchers, acceptors, scores
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_matchings_are_valid(n, seed):
    """Every produced matching is one-to-one over positive-score pairs."""
    rng = np.random.default_rng(seed)
    scores = (rng.random((n, n)) < 0.5).astype(np.float32) * rng.integers(1, 4, (n, n))
    searchers = list(range(n))
    acceptors = list(range(n, 2 * n))
    for matching in (
        greedy_matching(searchers, acceptors, scores),
        protocol_matching(searchers, acceptors, scores).matching,
        random_matching(searchers, acceptors, scores, np.random.default_rng(0)),
    ):
        assert len(set(matching.values())) == len(matching)
        for s, a in matching.items():
            assert scores[searchers.index(s), acceptors.index(a)] > 0


def _assert_same_as_reference(scores):
    searchers = list(range(scores.shape[0]))
    acceptors = list(range(1000, 1000 + scores.shape[1]))
    got = greedy_matching(searchers, acceptors, scores)
    want = reference_greedy(searchers, acceptors, scores)
    # Equal as lists: the same pairs, taken in the same order.
    assert list(got.items()) == list(want.items())


_shapes = st.tuples(st.integers(0, 12), st.integers(0, 12))


@st.composite
def _score_matrices(draw):
    n_s, n_a = draw(_shapes)
    kind = draw(st.sampled_from(["integer", "all_equal", "float_ties", "row", "column"]))
    if kind == "row":
        n_s, n_a = 1, max(n_a, 1)
    elif kind == "column":
        n_s, n_a = max(n_s, 1), 1
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "all_equal":
        return np.full((n_s, n_a), draw(st.sampled_from([0.0, 1.0, 7.0])), np.float32)
    if kind == "float_ties":
        # Few distinct non-integer values, so ties are common.
        values = np.array([0.0, 0.25, 1.5, 1 / 3, 2.75], dtype=np.float32)
        return values[rng.integers(0, values.size, (n_s, n_a))]
    return rng.integers(0, 4, (n_s, n_a)).astype(np.float32)


@settings(deadline=None, max_examples=200)
@given(_score_matrices())
def test_greedy_equals_reference(scores):
    """The sort-and-scan matching equals the original loop on integer scores
    0-3, all-equal scores, tied non-integer floats, empty inputs and 1xk /
    kx1 shapes."""
    _assert_same_as_reference(scores)


def test_greedy_equals_reference_on_all_tied_complete_split():
    """A 200x200 split of a complete graph: every score ties, so rounds of
    mutual-best pairs would match one pair per round."""
    scores = np.full((200, 200), 198.0, dtype=np.float32)
    _assert_same_as_reference(scores)
    assert len(greedy_matching(list(range(200)), list(range(200, 400)), scores)) == 200
