"""Two-disjoint-paths solver against its brute-force twin."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kitelink import linkage
from kitelink.constructor import FindKiteOptions, find_kite
from kitelink.errors import (
    BudgetExceeded,
    DuplicateTerminals,
    LinkageBudgetExceeded,
    PreconditionViolated,
)
from kitelink.generators import gen_complete_minus_matching
from kitelink.graphs import Graph, connected_avoiding, shortest_avoiding, vertex_mask
from kitelink.linkage import LinkagePair, two_linkage
from kitelink.structures import RootQuadruple, _check_walk, verify_kite

from bruteforce import all_simple_paths, circulant, two_linkage_oracle


def _check_pair(g: Graph, pair: LinkagePair, s1, t1, s2, t2) -> None:
    assert pair.l.first == s1 and pair.l.last == t1
    assert pair.lprime.first == s2 and pair.lprime.last == t2
    assert _check_walk(g, pair.l.vertices, "l", closed=False) is None
    assert _check_walk(g, pair.lprime.vertices, "lprime", closed=False) is None
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


def test_solver_rejects_nonpositive_budget():
    g = gen_complete_minus_matching(6, 0)
    for budget in (0, -1):
        with pytest.raises(PreconditionViolated):
            two_linkage(g, 0, 1, 2, 3, budget)


def _search_only(g: Graph, s1, t1, s2, t2):
    """two_linkage's search with no greedy walk in front and no memo:
    the first path of at most d(s1, t1) edges in g - {s2, t2}, else the
    first path of any length."""
    dist = {}
    for v in g.vertices():
        path = shortest_avoiding(g, v, t1, vertex_mask((s2, t2)))
        if path is not None and v not in (s2, t2):
            dist[v] = len(path) - 1
    if s1 not in dist:
        return None

    def grow(path, cap):
        for w in sorted((w for w in g.neighbors(path[-1]) if w in dist), key=lambda w: (dist[w], w)):
            if w in path or len(path) + dist[w] > cap:
                continue
            if not connected_avoiding(g, s2, t2, vertex_mask(path + [w])):
                continue
            if w == t1:
                return path + [w]
            found = grow(path + [w], cap)
            if found is not None:
                return found
        return None

    for cap in (dist[s1], math.inf):
        first = grow([s1], cap)
        if first is not None:
            return first, shortest_avoiding(g, s2, t2, vertex_mask(first))
    return None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=109243)  # the walk fails, and no linkage has a shortest first path
def test_solver_is_its_search_alone_with_a_shortest_first_path(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    g = _random_graph(rng, n, rng.choice((0.25, 0.4, 0.6, 0.9)))
    s1, t1, s2, t2 = rng.sample(range(n), 4)
    got = two_linkage(g, s1, t1, s2, t2)
    want = _search_only(g, s1, t1, s2, t2)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert (list(got.l.vertices), list(got.lprime.vertices)) == want
    linked = [
        p
        for p in all_simple_paths(g, s1, t1, frozenset((s2, t2)))
        if next(all_simple_paths(g, s2, t2, frozenset(p)), None) is not None
    ]
    shortest = min(len(p) for p in linked)
    if shortest == len(shortest_avoiding(g, s1, t1, vertex_mask((s2, t2)))):
        assert len(got.l) == shortest


def test_solver_takes_the_first_longer_path_when_no_shortest_one_links():
    # Hypothesis draw 109243.  d(5, 4) is 2 in g - {1, 6}, but the one
    # 2-edge path, (5, 3, 4), cuts 1 off from 6.  The shortest linked
    # first path is (5, 7, 2, 4); the uncapped pass finds a 4-edge one.
    g = Graph(8, [
        (0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
        (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (4, 6), (5, 6), (5, 7),
    ])
    pair = two_linkage(g, 5, 4, 1, 6)
    assert (pair.l.vertices, pair.lprime.vertices) == ((5, 0, 7, 2, 4), (1, 3, 6))


def _grid(k: int) -> Graph:
    return Graph(
        k * k,
        [(v, v + 1) for v in range(k * k) if v % k < k - 1]
        + [(v, v + k) for v in range(k * k - k)],
    )


def test_solver_proves_no_linkage_in_at_most_two_passes():
    # Corner terminals of a planar grid cross on its outer face, so no
    # linkage exists.  One search per length cap spent 8,716 expansions
    # on the 5x5 grid; the two passes spend 1,940.
    assert two_linkage(_grid(5), 0, 24, 4, 20, budget=2_000) is None
    assert two_linkage_oracle(_grid(4), 0, 15, 3, 12) is None


def test_solver_spends_exactly_its_pinned_expansions():
    # The budget bounds the search's work, so its count is pinned.
    assert two_linkage(_grid(5), 0, 24, 4, 20, budget=1_940) is None
    with pytest.raises(LinkageBudgetExceeded):
        two_linkage(_grid(5), 0, 24, 4, 20, budget=1_939)


def test_solver_walks_a_long_path_without_recursion():
    # The path 0..n-1 with a detour 0-a-b-2 around vertex 1, and s2, t2
    # hanging off vertex 1.  The shortest s1-t1 path takes vertex 1 and
    # cuts s2 from t2, so the search runs about n vertices deep.
    n = 1_500
    a, b, s2, t2 = n, n + 1, n + 2, n + 3
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, a), (a, b), (b, 2), (1, s2), (1, t2)]
    g = Graph(n + 4, edges)
    pair = two_linkage(g, 0, n - 1, s2, t2)
    _check_pair(g, pair, 0, n - 1, s2, t2)
    assert pair.l.vertices == (0, a, b) + tuple(range(2, n))
    assert pair.lprime.vertices == (s2, 1, t2)


def _ladder_host(levels: int = 3) -> Graph:
    """Roots (0, 1, 2, 3).  Every shortest x1-x3 path runs x1, then a1
    and a ladder of two vertices a level, or a plain track c, then
    m1-m4 and x3; x4 sees only a1 and vertices every such path takes, so
    only the c track leaves an x2-x4 path (x2, a1, x4).  A longer arc b
    closes the terminal fan at x2 (degree 7), and x4 has degree 7."""
    x1, x2, x3, x4 = 0, 1, 2, 3
    b = list(range(4, 10 + levels))  # one edge longer than a shortest path
    a1 = b[-1] + 1
    ladder = [(a1 + 1 + 2 * i, a1 + 2 + 2 * i) for i in range(levels)]
    c = list(range(ladder[-1][1] + 1, ladder[-1][1] + 2 + levels))
    m = list(range(c[-1] + 1, c[-1] + 5))
    track = [(a1,)] + ladder + [(m[0],)]
    edges = list(zip([x1] + b, b + [x3])) + [(x1, a1)]
    edges += [(u, v) for s, t in zip(track, track[1:]) for u in s for v in t]
    edges += list(zip([x1] + c, c + [m[0]])) + list(zip(m, m[1:] + [x3]))
    edges += [(x2, v) for v in (x1, x3, a1, c[0], m[0], b[3], b[4])]
    edges += [(x4, v) for v in (a1, x1, x3, *m)]
    return Graph(m[-1] + 1, edges)


def test_solver_searches_when_the_greedy_walk_cuts_the_second_pair():
    g = _ladder_host()
    pair = two_linkage(g, 0, 2, 1, 3)
    _check_pair(g, pair, 0, 2, 1, 3)
    assert len(pair.l) == len(shortest_avoiding(g, 0, 2, vertex_mask((1, 3))))
    assert 13 not in pair.l.vertices  # a1, where the greedy walk turns
    with pytest.raises(LinkageBudgetExceeded) as exc:
        two_linkage(g, 0, 2, 1, 3, budget=1)
    assert exc.value.stage == "linkage"
    assert isinstance(exc.value, BudgetExceeded)


def test_find_kite_falls_back_when_the_linkage_budget_runs_out():
    # The search spends 56 expansions here, the exhaustive fallback 18.
    g = _ladder_host()
    roots = RootQuadruple(0, 1, 2, 3)
    res = find_kite(g, roots, FindKiteOptions(try_direct=False, budget=30))
    assert res.stage == "fallback"
    assert [d.stage for d in res.diagnostics] == ["linkage"]
    assert verify_kite(g, roots, res.kite)
    with pytest.raises(LinkageBudgetExceeded):
        find_kite(g, roots, FindKiteOptions(try_direct=False, allow_fallback=False, budget=30))
    assert find_kite(g, roots, FindKiteOptions(try_direct=False)).diagnostics == ()


@pytest.mark.parametrize(
    "n, offsets, roots",
    [
        # Each took the lowest-neighbour-first search 2 s or more.
        (34, (1, 2, 4, 7), (30, 10, 31, 4)),
        (40, (1, 2, 3, 4), (37, 8, 16, 17)),
        (40, (1, 2, 4, 7), (5, 0, 24, 17)),
        (30, (1, 2, 4, 7), (28, 13, 12, 5)),
    ],
)
def test_solver_tail_instances_take_one_connectivity_check(monkeypatch, n, offsets, roots):
    # Two shortest_avoiding calls: the first path, then the second path
    # around it, which is also what proves the first.  Any fallback
    # search would add a third.
    calls = []

    def counting(*args):
        calls.append(args)
        return shortest_avoiding(*args)

    monkeypatch.setattr(linkage, "shortest_avoiding", counting)
    g = circulant(n, offsets)
    x1, x2, x3, x4 = roots
    pair = two_linkage(g, x1, x3, x2, x4)
    _check_pair(g, pair, x1, x3, x2, x4)
    assert [args[1:3] for args in calls] == [(x1, x3), (x2, x4)]
    assert len(pair.l) == len(shortest_avoiding(g, x1, x3, vertex_mask((x2, x4))))
