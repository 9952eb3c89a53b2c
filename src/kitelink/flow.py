"""Unit-capacity flow on one vertex-split network per graph.

Every graph vertex v is split into an entry node 2v and an exit node
2v+1 joined by a capacity-1 arc, so a unit of flow through v claims the
whole vertex.  Every edge gets an arc in each direction, and every vertex
an absorbing arc from its entry node into a super-sink.  The network is
never written after it is built.  A query that must augment copies the
base capacities into a residual list of its own, closes the split arcs
of its target vertices and opens their absorbing arcs, so flow leaves
the source's exit node and each path stops at the first target it meets.
A graph builds its network once (`Graph.split_network`) and every fan
and connectivity query on it, from any thread, shares that network.
Augmenting paths are found by breadth-first search scanning arcs in
insertion order, so identical inputs always produce identical flows.

Most arms of a fan on a dense graph are one edge long or run through one
common neighbour, so max_flow finds those first, as vertex lists read
straight from the adjacency bitmasks, and augments only for the rest.
A query those short arms fill builds no residual at all; only one they
leave short builds its residual, routes them into it and augments.  They
are exactly the paths, in the same order, that the search would find
first, so the flow is the one augmentation alone gives.  The search
starts at x's exit node, whose arcs run by ascending head, and the sink
is entered only from entry nodes, so it is met first at depth 2 or 4:

- Depth 2 is exit(x) -> entry(t) -> sink.  The entry nodes at depth 1
  belong to the neighbours x reaches over unused edges and are scanned
  in ascending order, so the first path ends at the lowest such
  neighbour that is a target with room.  Phase 1 takes those one-edge
  arms, ascending, while each target has room.
- Once no such path is left, depth 4 is x -> w -> t.  When no neighbour
  w that x reaches over an unused edge carries flow, the depth-2 nodes
  are the exit nodes of the free neighbours, by ascending w, so the
  first path takes the lowest free w with a target that has room, and
  the lowest such target of w.  Phase 2 sweeps the free w once,
  ascending.  A neighbour that carries flow (it lies on a base arm past
  that arm's first step) opens residual reverse arcs that give
  rerouting paths just as short, which the search mixes in from that
  neighbour on, so the sweep stops at the first such neighbour.

Augmenting from the flow so built reaches the maximum, as from any
feasible flow, so a query that falls short still proves no more arms
exist.
"""

from __future__ import annotations

from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import Graph


def entry(v: int) -> int:
    return 2 * v


def exit_(v: int) -> int:
    return 2 * v + 1


class SplitNetwork:
    """The vertex-split network of a graph, shared by every query on it.

    Arc a and its reverse a ^ 1 sit side by side.  head, adj, the arc
    lists and base are read-only once built; a query that its short arms
    do not fill keeps its residual capacities in its own list
    (residual), and one they fill needs none, so interleaved or
    concurrent queries on one network cannot disturb each other, and a
    graph pays for building it once, not once per fan query.

    The network is built in one pass: the arc numbering is fixed by n
    and the sorted edges, so head and base are filled by strided slices
    and one walk over the edges, and each node's arc list is assembled
    whole.  The arrays equal those of adding the arcs one at a time.
    """

    def __init__(self, g: Graph):
        n, edges = g.n, g.edges
        nodes = 2 * n  # entry and exit nodes; the sink comes after them
        first_sink = nodes + 4 * len(edges)
        self.num_nodes = nodes + 1
        self.sink = nodes
        # Arcs are numbered as adding them one at a time would number
        # them: the split arcs (entry(v), exit(v)), then four per sorted
        # edge u < w, namely (exit(u), entry(w)), (exit(w), entry(u)) and
        # their reverses, then the absorbing arcs (entry(v), sink).
        head = [0] * (first_sink + nodes)
        head[0:nodes:2] = range(1, nodes, 2)
        head[1:nodes:2] = range(0, nodes, 2)
        head[first_sink::2] = [nodes] * n
        head[first_sink + 1 :: 2] = range(0, nodes, 2)
        base = [0] * len(head)
        base[0:nodes:2] = [1] * n
        base[nodes:first_sink:2] = [1] * (2 * len(edges))
        out_arcs: list[list[int]] = [[] for _ in range(n)]
        in_arcs: list[list[int]] = [[] for _ in range(n)]  # reverses at entry nodes
        aid = nodes
        for u, w in edges:  # entry(v) is 2v and exit_(v) is 2v + 1, inlined
            head[aid] = 2 * w
            head[aid + 1] = 2 * u + 1
            head[aid + 2] = 2 * u
            head[aid + 3] = 2 * w + 1
            out_arcs[u].append(aid)
            in_arcs[w].append(aid + 1)
            out_arcs[w].append(aid + 2)
            in_arcs[u].append(aid + 3)
            aid += 4
        adj: list[tuple[int, ...]] = [()] * self.num_nodes
        adj[0:nodes:2] = [
            (2 * v, *arcs, first_sink + 2 * v) for v, arcs in enumerate(in_arcs)
        ]
        adj[1:nodes:2] = [(2 * v + 1, *arcs) for v, arcs in enumerate(out_arcs)]
        adj[nodes] = tuple(range(first_sink + 1, first_sink + nodes, 2))
        self.split_arcs = tuple(range(0, nodes, 2))
        self.sink_arcs = tuple(range(first_sink, first_sink + nodes, 2))
        self.head = tuple(head)
        self.masks = g._masks  # the graph's own adjacency bitmasks
        self.base = tuple(base)
        self.adj = tuple(adj)
        # Edges are sorted, so each vertex's out-arcs run by ascending head.
        self.out_arcs = tuple(map(tuple, out_arcs))

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

    def max_flow(
        self,
        x: int,
        targets: int,
        multi: dict[int, int],
        limit: int,
        base: Sequence[Sequence[int]] = (),
    ) -> tuple[int, list[Sequence[int]] | None, list[int] | None]:
        """Send up to limit units from vertex x into the targets beyond
        the base arms: the short arms first, then augmenting paths while
        any is left.

        targets is a bitmask of target vertices; each absorbs one path,
        or multi[t] paths where multi lists it.  base holds the arms from
        x already in the flow as vertex lists, a fan into the targets.
        Returns (sent, arms, cap).  When the short arms fill the query,
        arms are its flow's arms, base included, by ascending second
        vertex as arms() lists them, and cap is None: no residual is
        built.  Otherwise arms is None and cap is the residual the query
        augmented in, holding the base and the same short arms, for
        arms() and min_cut().
        """
        short = self._short_arms(x, targets, multi, limit, base)
        if len(short) == limit:
            return limit, sorted([*base, *short], key=_second), None
        room = dict.fromkeys(_bits(targets), 1)
        room.update(multi)
        cap = self.residual(room)
        self.route(cap, *base, *short)
        sent = len(short)
        while sent < limit and self.augment(cap, exit_(x)):
            sent += 1
        return sent, None, cap

    def _short_arms(
        self, x: int, targets: int, multi: dict[int, int], limit: int, base: Sequence[Sequence[int]]
    ) -> list[list[int]]:
        """Up to limit arms of one and two edges from x beyond base,
        exactly the paths augment would find first and in its order
        (module docstring), read from the adjacency bitmasks alone."""
        masks = self.masks
        left = dict(multi)  # more room than one unit; every other target has one
        room = targets  # targets that can absorb another unit
        taken = 0  # neighbours of x whose edge from x an arm uses
        carrying = 0  # base vertices past their arm's first step
        for arm in base:
            taken |= 1 << arm[1]
            for v in arm[2:]:
                carrying |= 1 << v
            t = arm[-1]
            if left.get(t, 1) > 1:
                left[t] -= 1
            else:
                room &= ~(1 << t)
        arms: list[list[int]] = []
        near = masks[x] & room & ~taken
        while near and len(arms) < limit:
            low = near & -near
            near ^= low
            t = low.bit_length() - 1
            arms.append([x, t])
            taken |= low
            if left.get(t, 1) > 1:
                left[t] -= 1
            else:
                room ^= low
        free = masks[x] & ~taken
        while free and room and len(arms) < limit:
            low = free & -free
            free ^= low
            if low & carrying:
                break  # w carries flow: rerouting paths start here
            # w is no target: phase 1 took the edge to every target with
            # room, and one without room ends a base arm, so the edge to
            # it is taken or it carries flow.
            w = low.bit_length() - 1
            far = masks[w] & room
            if far:
                end = far & -far
                t = end.bit_length() - 1
                arms.append([x, w, t])
                if left.get(t, 1) > 1:
                    left[t] -= 1
                else:
                    room ^= end
        return arms

    def route(self, cap: list[int], *paths: Sequence[int]) -> None:
        """Send one unit along each graph path, each ending at a target:
        over each edge's arc, through each interior vertex's split arc
        and into the sink from the last vertex."""
        masks, out_arcs = self.masks, self.out_arcs
        split_arcs, sink_arcs = self.split_arcs, self.sink_arcs
        for path in paths:
            a, last = path[0], path[-1]
            for b in path[1:]:
                # exit(a) -> entry(b): out-arcs run by ascending head
                aid = out_arcs[a][(masks[a] & ((1 << b) - 1)).bit_count()]
                cap[aid] -= 1
                cap[aid ^ 1] += 1
                aid = sink_arcs[b] if b == last else split_arcs[b]
                cap[aid] -= 1
                cap[aid ^ 1] += 1
                a = b

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
                for aid in out_arcs[v]:  # the arc the unit leaves v by
                    if not cap[aid]:
                        break
            arms.append(arm)
        return arms

    def min_cut(self, cap: list[int], x: int) -> frozenset[int]:
        """The vertex cut behind a max flow from x that stopped short of
        its limit, read from the nodes that augment's search still
        reaches in that query's residual.  It has one vertex per unit of
        flow, never x, and meets every path from x to the query's
        targets; it may hold targets."""
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
                if cap[aid] == 0 and prev_arc[entry(b)] == -1 and b != x:
                    cut.add(b)
        return frozenset(cut)


_second = itemgetter(1)
_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> Iterable[int]:
    """The set bits of mask, ascending, read in C off its binary digits."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT))
