"""Flows held on the graph's vertices against the vertex-split reference
network, and the cuts min_cut reads against the graph."""

import random
from collections import Counter

from bruteforce import ReferenceNetwork, _separates_fan, circulant, exit_, separates
from kitelink import flow
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph, vertex_mask


def _hosts() -> list[Graph]:
    rng = random.Random(31)
    hosts = [
        Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        for n in range(21)
        for p in (0.15, 0.5, 0.9)
    ]
    hosts += [circulant(n, st) for n in (9, 16, 33) for st in ((1, 2, 3, 4), (1, 2, 4, 7))]
    hosts += [gen_complete_minus_matching(n, n // 2) for n in (2, 7, 12)]
    hosts += [gen_random_kconnected(14, 7, 0), Graph(6, [])]
    return hosts


def _matches_reference(g, ref, x, targets, multi, limit, base=()) -> str:
    """Run one query both ways and compare the sent count, the arms and,
    for a flow short of its limit, the min cut's repr; returns how the
    query ended: "filled", "full" or "cut"."""
    sent, arms, state = flow.max_flow(g, x, vertex_mask(targets), multi, limit, base)
    room = dict.fromkeys(targets, 1)
    room.update(multi)
    cap = ref.residual(room)
    ref.route(cap, *base)
    want = 0
    while want < limit and ref.augment(cap, exit_(x)):
        want += 1
    assert sent == want, (g.edges, x, targets, multi, limit, base)
    got = arms if state is None else state.arms()
    assert list(map(tuple, got)) == list(map(tuple, ref.arms(cap, x)))
    if sent == limit:
        return "filled" if state is None else "full"
    assert repr(state.min_cut()) == repr(ref.min_cut(cap, x))
    return "cut"


def test_max_flow_matches_the_reference_network():
    # Pair queries with room k, 3/3/1 terminal queries, and fans into
    # random target sets with and without base arms (a flow on a random
    # subgraph, partly kept), each run both ways.
    rng = random.Random(53)
    tally: Counter = Counter()
    for g in _hosts():
        n = g.n
        if n < 2:
            continue
        ref = ReferenceNetwork(g)
        for _ in range(56):
            s, t = rng.sample(range(n), 2)
            if not g.has_edge(s, t):
                k = rng.randint(1, n)
                tally["pair", _matches_reference(g, ref, s, {t}, {t: k}, k)] += 1
            if n >= 4:
                x1, x2, x3, x4 = rng.sample(range(n), 4)
                got = _matches_reference(g, ref, x2, {x1, x3, x4}, {x1: 3, x3: 3}, 7)
                tally["terminal", got] += 1
            x = rng.randrange(n)
            pool = [v for v in range(n) if v != x]
            targets = set(rng.sample(pool, rng.randint(1, len(pool))))
            limit = rng.randint(1, len(targets))
            tally["fan", _matches_reference(g, ref, x, targets, {}, limit)] += 1
            sub = Graph(n, [e for e in g.edges if rng.random() < 0.5])
            sub_ref = ReferenceNetwork(sub)
            cap = sub_ref.residual(dict.fromkeys(targets, 1))
            for _ in range(rng.randint(1, len(targets))):
                sub_ref.augment(cap, exit_(x))
            base = [tuple(a) for a in sub_ref.arms(cap, x) if rng.random() < 0.7]
            if base and len(base) < len(targets):
                limit = rng.randint(1, len(targets) - len(base))
                tally["based", _matches_reference(g, ref, x, targets, {}, limit, base)] += 1
    kinds = Counter(kind for kind, _ in tally.elements())
    ends = Counter(end for _, end in tally.elements())
    assert sum(kinds.values()) >= 10_000
    assert min(kinds.values()) >= 1_000
    assert min(ends.values()) >= 500
    assert all(tally[kind, "cut"] >= 100 for kind in kinds)


def test_min_cut_of_a_short_flow_separates_with_one_vertex_per_unit():
    # Pair queries (one absorbing target) and fan-to-set queries (unit
    # targets): a flow that stops short of its limit has a cut of its own
    # size that holds no source and meets every source-target path.
    rng = random.Random(41)
    pair_cuts = fan_cuts = cut_targets = 0
    for _ in range(60):
        n, p = rng.randint(3, 16), rng.choice((0.3, 0.5, 0.7))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        for s in range(n):
            for t in range(n):
                if t == s or g.has_edge(s, t):
                    continue
                value, _, state = flow.max_flow(g, s, 1 << t, {t: n}, n)
                cut = state.min_cut()
                assert len(cut) == value and s not in cut and t not in cut
                assert _separates_fan(g, s, frozenset({t}), cut)
                assert separates(g, cut)
                pair_cuts += 1
            others = [v for v in range(n) if v != s]
            targets = frozenset(rng.sample(others, rng.randint(1, len(others))))
            limit = len(targets)
            value, _, state = flow.max_flow(g, s, vertex_mask(targets), {}, limit)
            if value < limit:
                cut = state.min_cut()
                assert len(cut) == value and s not in cut
                assert _separates_fan(g, s, targets, cut)
                fan_cuts += 1
                cut_targets += bool(cut & targets)
    # A fan cut may hold targets the flow reached directly.
    assert pair_cuts >= 3000 and fan_cuts >= 300 and cut_targets >= 100
