"""Deterministic instance generators for tests and campaigns."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .errors import GenerationExhausted, PreconditionViolated, VertexOutOfRange
from .fans import has_connectivity_at_least
from .graphs import Graph, check_vertex_count

# Rejection sampling sweeps these densities in order; the last rung is
# the complete graph, so generation can only fail on impossible asks.
_DENSITY_SCHEDULE = (0.55, 0.65, 0.75, 0.85, 0.95, 1.0)
_TRIES_PER_DENSITY = 8

# The most vertex pairs a dense generator builds, so n <= 1,414, checked
# with the vertex cap before any pair is built.  Both generators build
# every pair, so their memory grows with n², and graphs.MAX_VERTICES
# alone would let them ask for about 5 billion pairs.
# At this bound peak RSS (resource.getrusage, Python 3.11 on a 2-core
# Xeon) was 224 MB for K_1414 (0.67 s) and 229 MB for
# gen_random_kconnected(1414, 7, 1) (0.69 s), against 119 and 122 MB at
# n = 1,000; at n = 10,000 it would be about 10 GB (extrapolated, not
# run).  No test or benchmark workload builds more than 80 vertices.
MAX_PAIRS = 1_000_000


def gen_complete_minus_matching(n: int, m: int) -> Graph:
    """K_n minus the fixed matching (0,1), (2,3), ..., (2m-2, 2m-1).

    The classic dense test family: removing a matching from K_n drops
    the connectivity from n-1 to n-2 but keeps every root choice rich in
    disjoint paths.  The vertex cap and MAX_PAIRS are checked before any
    pair is built.
    """
    if n < 0 or m < 0 or 2 * m > n:
        raise PreconditionViolated(f"matching of size {m} does not fit in {n} vertices")
    _check_pair_count(n)
    removed = {(2 * i, 2 * i + 1) for i in range(m)}
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in removed
    ]
    return Graph(n, edges)


def gen_random_kconnected(n: int, k: int, seed: int) -> Graph:
    """A seeded random graph with vertex connectivity at least k.

    Samples Erdos-Renyi graphs of increasing density and keeps the first
    one that passes the connectivity check, has_connectivity_at_least
    (Even's reduction); identical arguments always return the identical
    graph.  A candidate is one draw per vertex pair; its degrees are
    read vertex by vertex from those draws, and it is rejected at its
    first vertex of degree below k, before a Graph is built.  The vertex
    cap and MAX_PAIRS are checked before any pair is built, and the
    pairs and getters, which depend on n alone, are built once per n and
    cached.  On a 2-core Xeon it takes a median 0.2 ms at n = 14,
    0.31-0.45 ms at n = 40 and 1.2 ms at n = 80 (k = 7, seeds 0-199,
    0-49 and 0-9).
    """
    if n < k + 1:
        raise PreconditionViolated(f"no graph on {n} vertices is {k}-connected")
    _check_pair_count(n)
    pairs, degrees = _pair_draws(n)
    rng = random.Random(seed)
    rand = rng.random
    for p in _DENSITY_SCHEDULE:
        for _ in range(_TRIES_PER_DENSITY):
            keep = [rand() < p for _ in pairs]
            if any(deg(keep).count(True) < k for deg in degrees):
                continue  # rejected at its first short vertex, with no Graph built
            g = Graph(n, compress(pairs, keep))
            if has_connectivity_at_least(g, k):
                return g
    raise GenerationExhausted(
        f"no {k}-connected graph found for n={n}, seed={seed}"
    )


def _check_pair_count(n: int) -> None:
    """Raise VertexOutOfRange unless n passes the vertex cap and its
    n(n-1)/2 vertex pairs number at most MAX_PAIRS."""
    check_vertex_count(n)
    pairs = n * (n - 1) // 2
    if pairs > MAX_PAIRS:
        raise VertexOutOfRange(
            f"{n} vertices make {pairs} vertex pairs, more than the {MAX_PAIRS} "
            "a dense generator builds"
        )


@lru_cache(maxsize=4)
def _pair_draws(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[itemgetter, ...]]:
    """The vertex pairs u < v that a candidate draws for, in draw order,
    and per vertex a getter of the draws for its pairs.  They depend on
    n alone, and a campaign asks for one n over and over."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    # With n <= 2 a vertex has at most one pair, which itemgetter returns
    # bare, and the minimum-degree test of the connectivity check filters
    # alone.
    return tuple(pairs), tuple(itemgetter(*idx) for idx in incident) if n > 2 else ()
