"""Unit-capacity flow on one vertex-split network per graph.

Every graph vertex v is split into an entry node 2v and an exit node
2v+1 joined by a capacity-1 arc, so a unit of flow through v claims the
whole vertex.  Every edge gets an arc in each direction, and every vertex
an absorbing arc from its entry node into a super-sink.  The network is
never written after it is built: each query copies the base capacities
into a residual list of its own, closes the split arcs of its target
vertices and opens their absorbing arcs, so flow leaves the source's exit
node and each path stops at the first target it meets.  A graph builds
its network once (`Graph.split_network`) and every fan and connectivity
query on it, from any thread, shares that network.  Augmenting paths are
found by breadth-first search scanning arcs in insertion order, so
identical inputs always produce identical flows.

Most arms of a fan on a dense graph are one edge long or run through one
common neighbour, so max_flow routes those first, straight from the
adjacency bitmasks, and augments only for the rest.  It routes exactly
the paths, in the same order, that the search would find first, so the
flow is the one augmentation alone gives.  The search starts at x's exit
node, whose arcs run by ascending head, and the sink is entered only
from entry nodes, so it is met first at depth 2 or 4:

- Depth 2 is exit(x) -> entry(t) -> sink.  The entry nodes at depth 1
  belong to the neighbours x reaches over unused edges and are scanned
  in ascending order, so the first path ends at the lowest such
  neighbour that is a target with room.  Phase 1 routes those one-edge
  arms, ascending, while each target has room.
- Once no such path is left, depth 4 is x -> w -> t.  When no neighbour
  w that x reaches over an unused edge carries flow, the depth-2 nodes
  are the exit nodes of the free neighbours, by ascending w, so the
  first path takes the lowest free w with a target that has room, and
  the lowest such target of w.  Phase 2 sweeps the free w once,
  ascending.  A neighbour that carries flow (it lies on an arm past
  that arm's first step, which a base routed before the query can
  cause) opens residual reverse arcs that give rerouting paths just as
  short, which the search mixes in from that neighbour on, so the
  sweep stops at the first such neighbour.

Augmenting from the flow so built reaches the maximum, as from any
feasible flow, so a query that falls short still proves no more arms
exist.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph


def entry(v: int) -> int:
    return 2 * v


def exit_(v: int) -> int:
    return 2 * v + 1


class SplitNetwork:
    """The vertex-split network of a graph, shared by every query on it.

    Arc a and its reverse a ^ 1 sit side by side.  head, adj, the arc
    lists and base are read-only once built; a query keeps its residual
    capacities in its own list (residual), so interleaved or concurrent
    queries on one network cannot disturb each other.  Building the
    network is what a fan query used to pay on every call.  On random
    7-connected 40-vertex graphs on a 2-core Xeon, terminal_fan takes a
    median 0.055 ms and apex_fan 0.093 ms with the network cached and
    the short arms routed first; with every arm augmented they took
    0.34 and 0.21 ms, and with a network built per call 1.56 and 1.19 ms.
    """

    def __init__(self, g: Graph):
        self.num_nodes = 2 * g.n + 1
        self.sink = 2 * g.n
        head: list[int] = []
        base: list[int] = []
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]

        def add_arc(u: int, v: int, cap: int) -> int:
            aid = len(head)
            head.extend((v, u))
            base.extend((cap, 0))
            adj[u].append(aid)
            adj[v].append(aid + 1)
            return aid

        self.split_arcs = tuple(add_arc(entry(v), exit_(v), 1) for v in range(g.n))
        out_arcs: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges:
            out_arcs[u].append(add_arc(exit_(u), entry(v), 1))
            out_arcs[v].append(add_arc(exit_(v), entry(u), 1))
        self.sink_arcs = tuple(add_arc(entry(v), self.sink, 0) for v in range(g.n))
        self.head = tuple(head)
        self.masks = g._masks  # the graph's own adjacency bitmasks
        self.base = tuple(base)
        self.adj = tuple(tuple(arcs) for arcs in adj)
        # Edges are sorted, so each vertex's out-arcs run by ascending head.
        self.out_arcs = tuple(tuple(arcs) for arcs in out_arcs)

    def residual(self, targets: dict[int, int]) -> list[int]:
        """Fresh residual capacities in which targets absorb.

        targets maps each target vertex to how many paths may end there;
        its split arc is closed, so no path runs through a target.
        """
        cap = list(self.base)
        for t, mult in targets.items():
            cap[self.split_arcs[t]] = 0
            cap[self.sink_arcs[t]] = mult
        return cap

    def _search(self, cap: list[int], source: int) -> list[int]:
        """Breadth-first search from source through positive residual
        capacity, stopping at the sink: entry v is the arc that first
        reached node v, -2 at the source and -1 where none did.  When
        the sink is out of reach every node source reaches is marked."""
        head, adj, sink = self.head, self.adj, self.sink
        prev_arc = [-1] * self.num_nodes
        prev_arc[source] = -2
        order = [source]
        for u in order:  # a queue: nodes are appended while it runs
            for aid in adj[u]:
                if cap[aid] > 0:
                    v = head[aid]
                    if prev_arc[v] == -1:
                        prev_arc[v] = aid
                        if v == sink:
                            return prev_arc
                        order.append(v)
        return prev_arc

    def augment(self, cap: list[int], source: int) -> bool:
        """Push one unit along a shortest residual path from source to
        the sink; False if there is none.  The search stops at the sink,
        so no augmentation lowers the flow an absorbing arc carries."""
        prev_arc = self._search(cap, source)
        v = self.sink
        if prev_arc[v] == -1:
            return False
        while v != source:
            aid = prev_arc[v]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            v = self.head[aid ^ 1]
        return True

    def max_flow(self, cap: list[int], x: int, targets: Iterable[int], limit: int) -> int:
        """Send up to limit units from vertex x into the query's targets:
        the short arms first, then augmenting paths while any is left."""
        sent = self.short_arms(cap, x, targets, limit)
        while sent < limit and self.augment(cap, exit_(x)):
            sent += 1
        return sent

    def short_arms(self, cap: list[int], x: int, targets: Iterable[int], limit: int) -> int:
        """Route up to limit arms of one and two edges from x, exactly the
        paths augment would find first and in its order (module
        docstring); returns how many were routed."""
        head, masks = self.head, self.masks
        split_arcs, sink_arcs = self.split_arcs, self.sink_arcs
        room = 0  # targets that can absorb another unit
        for t in targets:
            if cap[sink_arcs[t]] > 0:
                room |= 1 << t
        sent = 0
        near = masks[x] & room
        while near and sent < limit:
            low = near & -near
            near ^= low
            t = low.bit_length() - 1
            aid = self.arc(x, t)
            if cap[aid]:
                _push(cap, (aid, sink_arcs[t]))
                sent += 1
                if not cap[sink_arcs[t]]:
                    room ^= low
        for aid in self.out_arcs[x]:
            if sent == limit or not room:
                break
            if not cap[aid]:
                continue
            w = head[aid] >> 1
            if cap[split_arcs[w] ^ 1] or cap[sink_arcs[w] ^ 1]:
                break  # w carries flow: rerouting paths start here
            far = masks[w] & room
            if far and cap[split_arcs[w]]:
                low = far & -far
                t = low.bit_length() - 1
                _push(cap, (aid, split_arcs[w], self.arc(w, t), sink_arcs[t]))
                sent += 1
                if not cap[sink_arcs[t]]:
                    room ^= low
        return sent

    def arc(self, a: int, b: int) -> int:
        """The arc from exit(a) to entry(b); a-b must be an edge."""
        mask = self.masks[a]
        return self.out_arcs[a][(mask & ((1 << b) - 1)).bit_count()]

    def route(self, cap: list[int], path: Sequence[int]) -> None:
        """Send one unit along a graph path that ends at a target."""
        arcs = [self.sink_arcs[path[-1]]]
        arcs += [self.split_arcs[v] for v in path[1:-1]]
        arcs += [self.arc(a, b) for a, b in zip(path, path[1:])]
        _push(cap, arcs)

    def arms(self, cap: list[int], x: int) -> list[list[int]]:
        """Decompose the flow out of x into vertex lists, lowest next
        vertex first; an arm ends where its unit drains into the sink."""
        head, out_arcs, sink_arcs = self.head, self.out_arcs, self.sink_arcs
        arms: list[list[int]] = []
        for aid in out_arcs[x]:
            if cap[aid]:
                continue  # an edge arc carries flow exactly when it is closed
            arm = [x]
            while True:
                v = head[aid] >> 1
                arm.append(v)
                if cap[sink_arcs[v] ^ 1]:
                    break
                aid = next(a for a in out_arcs[v] if not cap[a])
            arms.append(arm)
        return arms

    def min_cut(self, cap: list[int], x: int, t: int) -> frozenset[int]:
        """The vertex cut behind a max flow from x into {t} that stopped
        short of its limit, read from the nodes that augment's search
        still reaches in that query's residual."""
        prev_arc = self._search(cap, exit_(x))
        cut: set[int] = set()
        for v, aid in enumerate(self.split_arcs):
            if cap[aid] == 0 and prev_arc[entry(v)] != -1 and prev_arc[exit_(v)] == -1:
                cut.add(v)
        for a, arcs in enumerate(self.out_arcs):
            if prev_arc[exit_(a)] == -1:
                continue
            for aid in arcs:
                b = self.head[aid] >> 1
                if cap[aid] == 0 and prev_arc[entry(b)] == -1 and b != t and b != x:
                    cut.add(b)
        return frozenset(cut)


def _push(cap: list[int], arcs: Iterable[int]) -> None:
    """One unit along each arc: its residual falls, its reverse's rises."""
    for aid in arcs:
        cap[aid] -= 1
        cap[aid ^ 1] += 1
