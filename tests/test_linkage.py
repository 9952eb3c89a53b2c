"""Two-disjoint-paths solver against its brute-force twin."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitelink.errors import BudgetExceeded, DuplicateTerminals, PreconditionViolated
from kitelink.generators import gen_complete_minus_matching
from kitelink.graphs import Graph
from kitelink.linkage import LinkagePair, two_linkage

from bruteforce import two_linkage_oracle


def _check_pair(g: Graph, pair: LinkagePair, s1, t1, s2, t2) -> None:
    assert pair.l.first == s1 and pair.l.last == t1
    assert pair.lprime.first == s2 and pair.lprime.last == t2
    assert pair.l.is_walk_in(g) and pair.lprime.is_walk_in(g)
    assert not set(pair.l.vertices) & set(pair.lprime.vertices)


def test_linkage_on_complete_graph():
    g = gen_complete_minus_matching(6, 0)
    pair = two_linkage(g, 0, 1, 2, 3)
    assert pair is not None
    _check_pair(g, pair, 0, 1, 2, 3)


def test_c4_crossing_terminals_has_no_linkage():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert two_linkage(c4, 0, 2, 1, 3) is None
    assert two_linkage_oracle(c4, 0, 2, 1, 3) is None
    # the parallel pairing is routable
    pair = two_linkage(c4, 0, 1, 3, 2)
    assert pair is not None
    _check_pair(c4, pair, 0, 1, 3, 2)


def test_terminal_validation():
    g = gen_complete_minus_matching(5, 0)
    with pytest.raises(PreconditionViolated):
        two_linkage(g, 0, 1, 2, 7)
    with pytest.raises(DuplicateTerminals):
        two_linkage(g, 0, 1, 1, 2)
    with pytest.raises(DuplicateTerminals):
        two_linkage_oracle(g, 0, 0, 1, 2)


def test_star_routes_both_pairs_through_center():
    # every path of either pair passes through the hub vertex 2
    g = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    assert two_linkage(g, 0, 1, 3, 4) is None
    assert two_linkage_oracle(g, 0, 1, 3, 4) is None


def test_oracle_budget():
    g = gen_complete_minus_matching(9, 0)
    with pytest.raises(BudgetExceeded):
        two_linkage_oracle(g, 0, 1, 2, 3, budget=3)


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_agrees_with_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    g = _random_graph(rng, n, rng.choice((0.25, 0.4, 0.6, 0.9)))
    s1, t1, s2, t2 = rng.sample(range(n), 4)
    got = two_linkage(g, s1, t1, s2, t2)
    want = two_linkage_oracle(g, s1, t1, s2, t2)
    assert (got is None) == (want is None)
    if got is not None:
        _check_pair(g, got, s1, t1, s2, t2)
        _check_pair(g, want, s1, t1, s2, t2)


def test_solver_is_deterministic():
    g = gen_complete_minus_matching(8, 2)
    runs = {two_linkage(g, 0, 5, 3, 6) for _ in range(3)}
    assert len({(p.l.vertices, p.lprime.vertices) for p in runs}) == 1
