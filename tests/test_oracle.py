"""Exhaustive kite search and whole-graph kite-linkage checks."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import rooted_kite_exists
from kitelink.constructor import find_kite
from kitelink.errors import BudgetExceeded, GraphTooSmall, PreconditionViolated
from kitelink.generators import gen_complete_minus_matching
from kitelink.graphs import Graph
from kitelink.oracle import SearchBudget, find_kite_exhaustive, is_kite_linked
from kitelink.structures import RootQuadruple, verify_kite


def test_budget_validation():
    with pytest.raises(PreconditionViolated):
        SearchBudget(0)
    assert SearchBudget(5).max_expansions == 5


def test_small_graph_rejected():
    with pytest.raises(GraphTooSmall):
        find_kite_exhaustive(Graph(3, [(0, 1)]), RootQuadruple(0, 1, 2, 3))
    with pytest.raises(GraphTooSmall, match="at least 4 vertices"):
        is_kite_linked(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_roots_out_of_range_rejected():
    g = gen_complete_minus_matching(5, 0)
    with pytest.raises(PreconditionViolated):
        find_kite_exhaustive(g, RootQuadruple(0, 1, 2, 9))


def test_k4_has_exactly_its_kites():
    g = gen_complete_minus_matching(4, 0)
    for roots in map(lambda t: RootQuadruple(*t), itertools.permutations(range(4))):
        kite = find_kite_exhaustive(g, roots)
        assert kite is not None
        assert verify_kite(g, roots, kite)
        assert set(kite.cycle) == {roots.x1, roots.x2, roots.x3}
        assert kite.pendant == (roots.x2, roots.x4)


def test_k4_minus_edge_fails_where_expected():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # missing 2-3
    # triangle needs all three corner connections; 2 and 3 can only be
    # joined through both remaining vertices, starving the pendant
    assert find_kite_exhaustive(g, RootQuadruple(2, 0, 3, 1)) is None
    assert find_kite_exhaustive(g, RootQuadruple(0, 1, 2, 3)) is not None


def test_budget_exhaustion_raises():
    g = gen_complete_minus_matching(9, 0)
    with pytest.raises(BudgetExceeded):
        find_kite_exhaustive(g, RootQuadruple(0, 1, 2, 3), SearchBudget(2))


def test_budget_bounds_exactly_the_pinned_expansions():
    # Corner roots of the 4x4 grid have no kite; proving it takes 604.
    g = Graph(16, [(v, v + 1) for v in range(16) if v % 4 < 3] + [(v, v + 4) for v in range(12)])
    roots = RootQuadruple(0, 3, 12, 15)
    assert find_kite_exhaustive(g, roots, SearchBudget(604)) is None
    with pytest.raises(BudgetExceeded):
        find_kite_exhaustive(g, roots, SearchBudget(603))


def test_long_arc_needs_no_recursion():
    # C1200 plus a pendant vertex at 0: the arc from x1 to x3 runs
    # around the whole cycle.  find_kite reaches it through its fallback.
    n = 1_200
    g = Graph(n + 1, [(v, (v + 1) % n) for v in range(n)] + [(0, n)])
    roots = RootQuadruple(n - 1, 0, 1, n)
    kite = find_kite_exhaustive(g, roots)
    assert kite.cycle == tuple(range(n)) and kite.pendant == (0, n)
    res = find_kite(g, roots)
    assert (res.stage, res.kite) == ("fallback", kite)


def test_deterministic_mode_repeats_exactly():
    g = gen_complete_minus_matching(8, 3)
    roots = RootQuadruple(7, 0, 5, 2)
    first = find_kite_exhaustive(g, roots)
    assert all(find_kite_exhaustive(g, roots) == first for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_matches_definitional_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    g = Graph(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n)
         if rng.random() < rng.choice((0.35, 0.6, 0.85))],
    )
    roots = RootQuadruple(*rng.sample(range(n), 4))
    kite = find_kite_exhaustive(g, roots)
    assert (kite is not None) == rooted_kite_exists(g, roots)
    if kite is not None:
        assert verify_kite(g, roots, kite)


def test_is_kite_linked_families():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    verdict = is_kite_linked(c5)
    assert not verdict.linked and verdict.witness is not None

    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    verdict = is_kite_linked(k4e)
    assert not verdict.linked
    assert find_kite_exhaustive(k4e, verdict.witness) is None

    assert is_kite_linked(gen_complete_minus_matching(5, 0)).linked
    assert is_kite_linked(gen_complete_minus_matching(6, 3)).linked


def test_is_kite_linked_spends_one_budget_on_the_whole_scan():
    # K7's 420 root choices take at most 11 expansions each and 4,368 in
    # all; the budget bounds the sum, not each root choice.
    k7 = gen_complete_minus_matching(7, 0)
    for x1, x3, x2, x4 in itertools.permutations(range(7), 4):
        if x1 < x3:
            assert find_kite_exhaustive(k7, RootQuadruple(x1, x2, x3, x4), SearchBudget(11))
    with pytest.raises(BudgetExceeded):
        is_kite_linked(k7, SearchBudget(4367))
    assert is_kite_linked(k7, SearchBudget(4368)).linked


def test_is_kite_linked_verdict_is_truthy():
    assert bool(is_kite_linked(gen_complete_minus_matching(5, 0)))
    assert not bool(is_kite_linked(Graph(4, [(0, 1), (1, 2), (2, 3)])))


def test_is_kite_linked_witness_is_the_first_failing_root():
    # Root choices run x1 < x3 outermost, then x2, then x4.
    def first_failing(g):
        for x1 in range(g.n):
            for x3 in range(x1 + 1, g.n):
                for x2 in range(g.n):
                    for x4 in range(g.n):
                        if len({x1, x2, x3, x4}) == 4:
                            roots = RootQuadruple(x1, x2, x3, x4)
                            if not rooted_kite_exists(g, roots):
                                return roots

    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    for g, witness in ((c5, (0, 2, 1, 3)), (k4e, (0, 2, 1, 3))):
        assert first_failing(g).as_tuple() == witness
        assert is_kite_linked(g).witness.as_tuple() == witness
