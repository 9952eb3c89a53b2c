"""Deterministic instance generators for tests and campaigns."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, compress
from math import ceil
from operator import itemgetter

from .errors import GenerationExhausted, PreconditionViolated, VertexOutOfRange
from .fans import has_connectivity_at_least
from .graphs import Graph, check_vertex_count

# Rejection sampling sweeps these densities in order; the last rung is
# the complete graph, so generation can only fail on impossible asks.
_DENSITY_SCHEDULE = (0.55, 0.65, 0.75, 0.85, 0.95, 1.0)
_TRIES_PER_DENSITY = 8

# The most vertex pairs a dense generator draws or keeps, so n <= 1,414,
# checked with the vertex cap before any pair is enumerated.  Both
# generators enumerate every pair, so their time and memory grow with
# n², and graphs.MAX_VERTICES alone would let them ask for about 5
# billion pairs.  At this bound peak RSS (resource.getrusage, Python 3.11
# on a 2-core Xeon) was 50 MB for K_1414 (0.42 s) and 137 MB for
# gen_random_kconnected(1414, 7, 1) (0.48-0.51 s), against 76 MB for
# the latter at n = 1,000; at n = 10,000 it would be about 6 GB
# (extrapolated, not run).  No test or benchmark workload builds more
# than 80 vertices.
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
    return Graph(n, (e for e in combinations(range(n), 2) if e not in removed))


def gen_random_kconnected(n: int, k: int, seed: int) -> Graph:
    """A seeded random graph with vertex connectivity at least k.

    Samples Erdos-Renyi graphs of increasing density and keeps the first
    one that passes the connectivity check, has_connectivity_at_least
    (Even's reduction); identical arguments always return the identical
    graph.  A candidate is one draw per vertex pair; its degrees are
    read vertex by vertex from those draws, and it is rejected at its
    first vertex of degree below k, before a Graph is built.  The vertex
    cap and MAX_PAIRS are checked before any pair is enumerated, and
    the degree getters and lane masks, which depend on n alone, are
    cached for the last n; the pairs themselves are enumerated afresh,
    by combinations, for each candidate that is built.  A candidate's
    draws are one getrandbits call, and each keep flag is exactly the
    rng.random() < p of a draw per pair.  On a 2-core Xeon it takes a
    median 0.13 ms at n = 14, 0.24 ms at n = 40 and 0.83-0.85 ms at
    n = 80 (k = 7, seeds 0-199, 0-49 and 0-9; six runs).
    """
    if n < k + 1:
        raise PreconditionViolated(f"no graph on {n} vertices is {k}-connected")
    m = _check_pair_count(n)
    degrees, low, high = _pair_draws(n, m)
    draw = random.Random(seed).getrandbits
    for p in _DENSITY_SCHEDULE:
        offset = _lane_offset(p, m)
        for _ in range(_TRIES_PER_DENSITY):
            keep = _keep_flags(draw(64 * m), low, high, offset, m)
            if any(deg(keep).count(1) < k for deg in degrees):
                continue  # rejected at its first short vertex, with no Graph built
            g = Graph(n, compress(combinations(range(n), 2), keep))
            if has_connectivity_at_least(g, k):
                return g
    raise GenerationExhausted(
        f"no {k}-connected graph found for n={n}, seed={seed}"
    )


def _check_pair_count(n: int) -> int:
    """The number of vertex pairs, n(n-1)/2; raises VertexOutOfRange
    unless n passes the vertex cap and that number is at most MAX_PAIRS."""
    check_vertex_count(n)
    pairs = n * (n - 1) // 2
    if pairs > MAX_PAIRS:
        raise VertexOutOfRange(
            f"{n} vertices make {pairs} vertex pairs, more than the {MAX_PAIRS} "
            "a dense generator builds"
        )
    return pairs


# One getrandbits(64 * m) call consumes the same Mersenne Twister words,
# in the same order, as m random() calls, and fills them least
# significant first: lane i, bits 64i to 64i + 63, holds the i-th call's
# words a (low half) and b (high half).  That call returns x / 2**53 with
# x = (a >> 5) * 2**26 + (b >> 6), so random() < p exactly when x is
# below T = ceil(p * 2**53).  These 8-byte patterns, repeated once per
# lane, mask a's top 27 bits and b's top 26.
_LOW_LANE = (0xFFFF_FFE0).to_bytes(8, "little")
_HIGH_LANE = (0xFFFF_FFC0 << 32).to_bytes(8, "little")
# A lane's bit 53 is bit 5 of its byte 6; it is clear, and the pair kept,
# exactly when x < T.
_KEPT = bytes(0 if b & 0x20 else 1 for b in range(256))


def _lanes(pattern: bytes, m: int) -> int:
    """The 8-byte pattern in each of m lanes.  Built from one repeated
    byte string: OR-ing m shifted terms takes time quadratic in m."""
    return int.from_bytes(pattern * m, "little")


def _lane_offset(p: float, m: int) -> int:
    """2**53 - T, T = ceil(p * 2**53), in each of m lanes: added to a
    lane's x, it sets the lane's bit 53 exactly when x >= T, and the sum
    stays below 2**54, so no carry crosses into the next lane."""
    return _lanes(((1 << 53) - ceil(p * (1 << 53))).to_bytes(8, "little"), m)


def _keep_flags(r: int, low: int, high: int, offset: int, m: int) -> bytes:
    """One byte per lane of the drawn int r: 1 where the lane's x is
    below T, as random() < p would be, and 0 elsewhere.  low and high
    are _LOW_LANE and _HIGH_LANE in m lanes, offset is _lane_offset(p, m)."""
    x = (r & low) << 21 | (r & high) >> 38
    return (x + offset).to_bytes(8 * m, "little")[6::8].translate(_KEPT)


# One vertex count only: a campaign asks for one n over and over, and
# the cached n stays resident after gen_random_kconnected returns: its
# n getters, which hold the n(n-1)/2 pair indices twice over, and two
# lane masks of 8 bytes a pair.  That is 16 MB at n = 600 and 83 MB at
# n = 1,414 (resident set after gc.collect(), less that before the
# call; Python 3.11).
@lru_cache(maxsize=1)
def _pair_draws(n: int, m: int) -> tuple[tuple[itemgetter, ...], int, int]:
    """Per vertex a getter of the keep flags for its pairs, and the lane
    masks _LOW_LANE and _HIGH_LANE in m = n(n-1)/2 lanes, one per pair.
    A candidate draws for the pairs u < v in the order
    combinations(range(n), 2) yields them, and the getters number the
    pairs in that order."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        incident[u].append(i)
        incident[v].append(i)
    # With n <= 2 a vertex has at most one pair, which itemgetter returns
    # bare, and the minimum-degree test of the connectivity check filters
    # alone.
    degrees = tuple(itemgetter(*idx) for idx in incident) if n > 2 else ()
    return degrees, _lanes(_LOW_LANE, m), _lanes(_HIGH_LANE, m)
