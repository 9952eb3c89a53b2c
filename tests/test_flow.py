"""The one-pass SplitNetwork build against adding its arcs one at a time."""

import random

from bruteforce import circulant
from kitelink.flow import SplitNetwork, entry, exit_
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph


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
