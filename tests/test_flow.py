"""The one-pass SplitNetwork build against adding its arcs one at a
time, and the cuts min_cut reads against the graph."""

import random

from bruteforce import _separates_fan, circulant, separates
from kitelink.flow import SplitNetwork, entry, exit_
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph, vertex_mask


def _arcs_one_at_a_time(g: Graph) -> dict:
    """The network's arrays built arc by arc: split arcs, then two arcs
    per sorted edge, then absorbing arcs, each next to its reverse."""
    num_nodes, sink = 2 * g.n + 1, 2 * g.n
    head: list[int] = []
    base: list[int] = []
    adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_arc(u: int, v: int, cap: int) -> int:
        aid = len(head)
        head.extend((v, u))
        base.extend((cap, 0))
        adj[u].append(aid)
        adj[v].append(aid + 1)
        return aid

    split_arcs = tuple(add_arc(entry(v), exit_(v), 1) for v in range(g.n))
    out_arcs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out_arcs[u].append(add_arc(exit_(u), entry(v), 1))
        out_arcs[v].append(add_arc(exit_(v), entry(u), 1))
    sink_arcs = tuple(add_arc(entry(v), sink, 0) for v in range(g.n))
    return {
        "head": tuple(head),
        "base": tuple(base),
        "adj": tuple(map(tuple, adj)),
        "out_arcs": tuple(map(tuple, out_arcs)),
        "split_arcs": split_arcs,
        "sink_arcs": sink_arcs,
        "num_nodes": num_nodes,
        "sink": sink,
    }


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


def test_one_pass_build_equals_arc_by_arc_build():
    for g in _hosts():
        net = SplitNetwork(g)
        for name, want in _arcs_one_at_a_time(g).items():
            assert getattr(net, name) == want, (g, g.edges, name)


def test_min_cut_of_a_short_flow_separates_with_one_vertex_per_unit():
    # Pair queries (one absorbing target) and fan-to-set queries (unit
    # targets): a flow that stops short of its limit has a cut of its own
    # size that holds no source and meets every source-target path.
    rng = random.Random(41)
    pair_cuts = fan_cuts = cut_targets = 0
    for _ in range(60):
        n, p = rng.randint(3, 16), rng.choice((0.3, 0.5, 0.7))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        net = g.split_network()
        for s in range(n):
            for t in range(n):
                if t == s or g.has_edge(s, t):
                    continue
                value, _, cap = net.max_flow(s, 1 << t, {t: n}, n)
                cut = net.min_cut(cap, s)
                assert len(cut) == value and s not in cut and t not in cut
                assert _separates_fan(g, s, frozenset({t}), cut)
                assert separates(g, cut)
                pair_cuts += 1
            others = [v for v in range(n) if v != s]
            targets = frozenset(rng.sample(others, rng.randint(1, len(others))))
            limit = len(targets)
            value, _, cap = net.max_flow(s, vertex_mask(targets), {}, limit)
            if value < limit:
                cut = net.min_cut(cap, s)
                assert len(cut) == value and s not in cut
                assert _separates_fan(g, s, targets, cut)
                fan_cuts += 1
                cut_targets += bool(cut & targets)
    # A fan cut may hold targets the flow reached directly.
    assert pair_cuts >= 3000 and fan_cuts >= 300 and cut_targets >= 100
