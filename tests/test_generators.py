"""Tests for the instance generators."""

import hashlib
import math
import random
from collections import Counter
from itertools import chain, count

import pytest

from kitelink import generators, graphs
from kitelink.errors import PreconditionViolated, VertexOutOfRange
from kitelink.fans import has_connectivity_at_least
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph

from bruteforce import brute_connectivity, index_order_connectivity_at_least


def test_matching_family_removes_fixed_pairs():
    g = gen_complete_minus_matching(9, 2)
    assert g.n == 9
    assert g.m == 9 * 8 // 2 - 2
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert g.has_edge(4, 5) and g.has_edge(0, 2) and g.has_edge(1, 3)
    # Every small case against the definition: the pairs u < v in
    # nested-loop order, less the matching.
    for n in range(13):
        for m in range(n // 2 + 1):
            removed = {(2 * i, 2 * i + 1) for i in range(m)}
            want = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in removed]
            assert gen_complete_minus_matching(n, m).edges == tuple(want)


def test_matching_family_zero_is_complete():
    g = gen_complete_minus_matching(8, 0)
    assert g.is_complete()
    assert g.m == 28


def test_matching_family_connectivity_drops_by_one():
    # Removing any nonempty matching from K_n costs exactly one unit.
    assert brute_connectivity(gen_complete_minus_matching(8, 0)) == 7
    for m in (1, 2, 4):
        assert brute_connectivity(gen_complete_minus_matching(8, m)) == 6


def test_matching_family_rejects_oversized():
    with pytest.raises(PreconditionViolated):
        gen_complete_minus_matching(5, 3)
    with pytest.raises(PreconditionViolated):
        gen_complete_minus_matching(-1, 0)
    with pytest.raises(PreconditionViolated):
        gen_complete_minus_matching(4, -1)


def test_random_generator_is_deterministic():
    a = gen_random_kconnected(12, 7, 42)
    b = gen_random_kconnected(12, 7, 42)
    assert a.n == b.n and a.edges == b.edges
    c = gen_random_kconnected(12, 7, 43)
    assert c.edges != a.edges


# sha256 of repr((n, edges)), computed with a connectivity check that ran
# one flow per non-adjacent pair: any exact check must give the same graphs.
_PINNED = {
    (14, 0): "bd74991bf1f27dde4fc6edb1e8084e6bf75d7bac5f864491b7bcd8b064b8361c",
    (14, 1): "4b628aa185a837cd60d65038c801b15c31610e1f258f75e8316e3d742ea421c4",
    (14, 2): "16ae82e152992bc7f7f837d8c6e4f9e056816a5376a52e6054dee323478eab1a",
    (14, 3): "f42ea29c8664aa468cde7464cf84b4ceb8df370ef9c1347cb16f53bb521f448d",
    (14, 4): "e72b19a2412d5191052f1bf4467c8f065b50b9247f65aac8e55d9a2531a4ca48",
    (40, 0): "cce95acbb69673eb940c97dd60104352a41a84bb288e320cfe14da506fff49b2",
    (40, 1): "acd61681e7a29afa93fb57ebc445a2b5de3bb6831b000dc44cecf3d7e6f5011c",
    (40, 2): "5632967409cd3e3fbd5fb176dcf540c1ad94e6d6b4f9013effba16c0540c3117",
}


@pytest.mark.parametrize("n, seed", sorted(_PINNED))
def test_random_generator_output_is_pinned(n, seed):
    g = gen_random_kconnected(n, 7, seed)
    assert hashlib.sha256(repr((g.n, g.edges)).encode()).hexdigest() == _PINNED[(n, seed)]


def test_random_generator_meets_connectivity_floor():
    for seed in (0, 1):
        g = gen_random_kconnected(10, 7, seed)
        assert g.min_degree() >= 7
        assert brute_connectivity(g) >= 7


def test_random_generator_scales_requirement():
    g = gen_random_kconnected(9, 3, 5)
    assert has_connectivity_at_least(g, 3)


def test_random_generator_rejects_impossible_order():
    with pytest.raises(PreconditionViolated):
        gen_random_kconnected(7, 7, 0)


def test_generators_check_the_vertex_cap_before_allocating(monkeypatch):
    # At the real cap the pair lists alone would take gigabytes, so the
    # cap is lowered; a generator past it may neither build nor draw.
    def unreachable(*args):
        raise AssertionError("allocated past the vertex cap")

    monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
    monkeypatch.setattr(generators, "Graph", unreachable)
    monkeypatch.setattr(generators.random, "Random", unreachable)
    with pytest.raises(VertexOutOfRange):
        gen_complete_minus_matching(11, 0)
    with pytest.raises(VertexOutOfRange):
        gen_random_kconnected(11, 7, 0)


def test_generators_check_the_pair_bound_before_allocating(monkeypatch):
    # The first n past MAX_PAIRS, well inside the vertex cap: a generator
    # may neither build its pairs nor draw.
    def unreachable(*args):
        raise AssertionError("allocated past the pair bound")

    n = next(n for n in count() if n * (n - 1) // 2 > generators.MAX_PAIRS)
    assert n <= graphs.MAX_VERTICES
    monkeypatch.setattr(generators, "Graph", unreachable)
    monkeypatch.setattr(generators, "_pair_draws", unreachable)
    with pytest.raises(VertexOutOfRange, match="vertex pairs"):
        gen_complete_minus_matching(n, 0)
    with pytest.raises(VertexOutOfRange, match="vertex pairs"):
        gen_random_kconnected(n, 7, 0)


def _counter_filter_generator(n: int, k: int, seed: int) -> Graph | None:
    # gen_random_kconnected as it was before its per-vertex degree getters
    # and Even's degree order: an edge list per candidate, a Counter over
    # it, and the connectivity check in index order.
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for p in (0.55, 0.65, 0.75, 0.85, 0.95, 1.0):
        for _ in range(8):
            edges = [e for e in pairs if rng.random() < p]
            degrees = Counter(chain.from_iterable(edges))
            if any(degrees[v] < k for v in range(n)):
                continue
            g = Graph(n, edges)
            if index_order_connectivity_at_least(g, k):
                return g
    return None


@pytest.mark.parametrize(
    "n, k, seeds",
    [(8, 7, 100), (10, 3, 100), (14, 7, 100), (20, 7, 100), (12, 5, 100), (9, 8, 100), (40, 7, 4)],
)
def test_random_generator_matches_the_counter_filter(n, k, seeds):
    for seed in range(seeds):
        g = gen_random_kconnected(n, k, seed)
        want = _counter_filter_generator(n, k, seed)
        assert (g.n, g.edges) == (want.n, want.edges)


@pytest.mark.parametrize("n", [2, 3, 8, 14, 40, 100])
def test_keep_flags_match_the_random_loop(n):
    # The kernel against the per-pair loop it replaced, candidate after
    # candidate on twin generators: every density of the schedule and 50
    # seeded random ones, the same flags and the same state afterwards.
    m = n * (n - 1) // 2
    _, low, high = generators._pair_draws(n, m)
    densities = generators._DENSITY_SCHEDULE + tuple(random.Random(n).random() for _ in range(50))
    offsets = [generators._lane_offset(p, m) for p in densities]
    for seed in range(200):
        loop, kernel = random.Random(seed), random.Random(seed)
        for p, offset in zip(densities, offsets):
            want = [loop.random() < p for _ in range(m)]
            keep = generators._keep_flags(kernel.getrandbits(64 * m), low, high, offset, m)
            assert keep == bytes(want)
        assert kernel.getstate() == loop.getstate()


def test_keep_flags_split_at_the_threshold():
    # Hand-built words whose x sits at T - 1, T and T + 1 for each
    # density, T = ceil(p * 2**53); the low bits random() discards are
    # filled with noise.  x = 2**53 - 1, the largest draw, is kept at
    # p = 1.0, and x = 0 at every density.
    noise = random.Random(0)
    for p in generators._DENSITY_SCHEDULE:
        t = math.ceil(p * 2**53)
        xs = [x for x in (0, t - 1, t, t + 1, 2**53 - 1) if x < 2**53]
        r = 0
        for i, x in enumerate(xs):
            a = (x >> 26) << 5 | noise.getrandbits(5)
            b = (x & (2**26 - 1)) << 6 | noise.getrandbits(6)
            r |= (a | b << 32) << (64 * i)
        m = len(xs)
        low = generators._lanes(generators._LOW_LANE, m)
        high = generators._lanes(generators._HIGH_LANE, m)
        keep = generators._keep_flags(r, low, high, generators._lane_offset(p, m), m)
        assert keep == bytes(x / 2**53 < p for x in xs) == bytes(x < t for x in xs)
        if p == 1.0:
            assert keep == bytes([1] * m)


def test_pair_cache_holds_one_vertex_count():
    gen_random_kconnected(14, 7, 0)
    gen_random_kconnected(12, 7, 0)
    assert generators._pair_draws.cache_info().currsize == 1
