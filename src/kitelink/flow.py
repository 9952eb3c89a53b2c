"""Unit-capacity flow of vertex-disjoint paths, held on the graph itself.

A query sends units from a source vertex x into absorbing targets, each
target taking one unit or the room its caller gives it, and every other
vertex carrying at most one unit.  With unit vertex capacities such a
flow is a set of arms that share only x, so a query holds it in lists
on the graph's own vertices (Flow): each vertex's successor and sender,
x's arm heads, and each target's room and senders.  No network is
built and nothing is shared between queries, so interleaved or
concurrent queries on one graph cannot disturb each other.

Augmenting paths are found by breadth-first search over two states per
vertex, as in the textbook vertex-split network: entry(v), where a unit
arrives, and exit(v), where it leaves.  Each state's moves are scanned
in a fixed order, so identical inputs always produce identical flows:

- at exit(v): back to entry(v) when v carries a unit (giving it up),
  then to entry(w) over each edge v-w that does not carry v's unit, by
  ascending w;
- at entry(v): to exit(v) when v is free and not a target, else back to
  exit(u) for each u sending a unit into v (cancelling that edge), by
  ascending u, and into the sink when v is a target with room left.

A target never passes a unit on, so a path stops at the first target
with room it meets.

Most arms of a fan on a dense graph are one edge long or run through one
common neighbour, so max_flow finds those first, as vertex lists read
straight from the adjacency bitmasks, and augments only for the rest.
A query those short arms fill builds no flow state at all; only one they
leave short builds its Flow, routes them into it and augments.  They
are exactly the paths, in the same order, that the search would find
first, so the flow is the one augmentation alone gives.  The search
starts at exit(x), whose moves run by ascending neighbour, and the sink
is entered only from entry states, so it is met first at depth 2 or 4:

- Depth 2 is exit(x) -> entry(t) -> sink.  The entry states at depth 1
  belong to the neighbours x reaches over unused edges and are scanned
  in ascending order, so the first path ends at the lowest such
  neighbour that is a target with room.  Phase 1 takes those one-edge
  arms, ascending, while each target has room.
- Once no such path is left, depth 4 is x -> w -> t.  When no neighbour
  w that x reaches over an unused edge carries flow, the depth-2 states
  are the exits of the free neighbours, by ascending w, so the first
  path takes the lowest free w with a target that has room, and the
  lowest such target of w.  Phase 2 sweeps the free w once, ascending.
  A neighbour that carries flow (it lies on a base arm past that arm's
  first step) opens moves back along its arm that give rerouting paths
  just as short, which the search mixes in from that neighbour on, so
  the sweep stops at the first such neighbour.

Augmenting from the flow so built reaches the maximum, as from any
feasible flow, so a query that falls short still proves no more arms
exist.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import Graph

_FREE = -1  # sender of a vertex no unit enters
_TARGET = -2  # sender of a target; its senders are listed in Flow.into


class Flow:
    """One query's flow from x, as lists on the graph's vertices.

    succ[v] is the vertex v passes its unit to and sender[v] the one it
    gets it from, _FREE where none, for every vertex but x, whose arm
    heads are in heads, and the targets, whose sender is _TARGET and
    whose senders (ascending) and room left are in into and room.
    """

    __slots__ = ("x", "nbrs", "succ", "sender", "heads", "room", "into")

    def __init__(self, g: Graph, x: int, targets: int, multi: dict[int, int]):
        """An empty flow from x into the targets, a bitmask; each target
        absorbs one unit, or multi[t] units where multi lists it."""
        self.x = x
        self.nbrs = g._adj
        self.succ = [_FREE] * g.n
        self.sender = sender = [_FREE] * g.n
        self.heads: set[int] = set()
        self.room = room = dict.fromkeys(_bits(targets), 1)
        room.update(multi)
        self.into: dict[int, list[int]] = {t: [] for t in room}
        for t in room:
            sender[t] = _TARGET

    def _send(self, u: int, w: int) -> None:
        if u == self.x:
            self.heads.add(w)
        else:
            self.succ[u] = w
        if self.sender[w] == _TARGET:
            insort(self.into[w], u)
        else:
            self.sender[w] = u

    def route(self, *paths: Sequence[int]) -> None:
        """Send one unit along each graph path from x, each ending at a
        target and running through free non-targets."""
        for path in paths:
            for u, w in zip(path, path[1:]):
                self._send(u, w)
            self.room[path[-1]] -= 1

    def _search(self) -> tuple[list[int | None], list[int | None], int]:
        """Breadth-first search from exit(x), stopping at the sink.

        Returns (pin, pout, t): pin[v] is the state that first reached
        entry(v) and pout[v] the one that first reached exit(v), entry(u)
        as u and exit(u) as ~u, or None where none did, and t is the
        target whose entry reached the sink, -1 when none did.  When the
        sink is out of reach every state x reaches is marked."""
        x, nbrs, succ, sender, room, into = (
            self.x, self.nbrs, self.succ, self.sender, self.room, self.into
        )
        pin: list[int | None] = [None] * len(succ)
        pout: list[int | None] = [None] * len(succ)
        pout[x] = x  # exit(x) is the source
        queue = [w for w in nbrs[x] if w not in self.heads]
        for w in queue:
            pin[w] = ~x
        for node in queue:  # a queue: states are appended while it runs
            if node >= 0:  # entry(v)
                u = sender[node]
                if u == _TARGET:
                    if room[node]:
                        return pin, pout, node
                    for u in into[node]:
                        if pout[u] is None:
                            pout[u] = node
                            queue.append(~u)
                    continue
                if u == _FREE:
                    u = node  # on to exit(v), else back to its sender's exit
                if pout[u] is None:
                    pout[u] = node
                    queue.append(~u)
            else:  # exit(v); never a target's, which sends no unit
                v = ~node
                if sender[v] >= 0 and pin[v] is None:
                    pin[v] = node
                    queue.append(v)
                s = succ[v]
                for w in nbrs[v]:
                    if w != s and pin[w] is None:
                        pin[w] = node
                        queue.append(w)
        return pin, pout, -1

    def augment(self) -> bool:
        """Push one unit along a shortest path from x to the sink; False
        if there is none.  The search stops at the sink, so no
        augmentation takes a unit back out of a target.

        Every cancellation on the path is applied before any send: a path
        can reach exit(v) by cancelling v's old edge and leave it by a
        new one, or enter entry(w) by a new edge and leave it by
        cancelling w's old one."""
        pin, pout, w = self._search()
        if w < 0:
            return False
        x, succ, sender, into = self.x, self.succ, self.sender, self.into
        self.room[w] -= 1
        sends = []
        while True:
            u = ~pin[w]  # entry(w) was reached from exit(u)
            if u != w:
                sends.append((u, w))
            if u == x:
                break
            w = pout[u]  # exit(u) was reached from entry(w)
            if w != u:  # cancel u's unit into w; u is never x
                succ[u] = _FREE
                if sender[w] == _TARGET:
                    into[w].remove(u)
                else:
                    sender[w] = _FREE
        for u, w in sends:
            self._send(u, w)
        return True

    def arms(self) -> list[list[int]]:
        """The flow's arms as vertex lists, lowest second vertex first;
        an arm ends at the target its unit drains into."""
        x, succ, sender = self.x, self.succ, self.sender
        arms: list[list[int]] = []
        for v in sorted(self.heads):
            arm = [x, v]
            while sender[v] != _TARGET:
                v = succ[v]
                arm.append(v)
            arms.append(arm)
        return arms

    def min_cut(self) -> frozenset[int]:
        """The vertex cut behind a max flow from x that stopped short of
        its limit, read from the states that augment's search still
        reaches.  It has one vertex per unit of flow, never x, and meets
        every path from x to the query's targets; it may hold targets."""
        pin, pout, _ = self._search()
        x, succ, sender = self.x, self.succ, self.sender
        cut: set[int] = set()
        for v, s in enumerate(sender):  # targets, and vertices carrying a unit
            if s != _FREE and pin[v] is not None and pout[v] is None:
                cut.add(v)
        for a, reached in enumerate(pout):  # edges carrying a unit out of reach
            if reached is None:
                continue
            for b in sorted(self.heads) if a == x else (succ[a],):
                if b >= 0 and pin[b] is None:
                    cut.add(b)
        return frozenset(cut)


def max_flow(
    g: Graph,
    x: int,
    targets: int,
    multi: dict[int, int],
    limit: int,
    base: Sequence[Sequence[int]] = (),
) -> tuple[int, list[Sequence[int]] | None, Flow | None]:
    """Send up to limit units from vertex x into the targets beyond the
    base arms: the short arms first, then augmenting paths while any is
    left.

    targets is a bitmask of target vertices; each absorbs one path, or
    multi[t] paths where multi lists it.  base holds the arms from x
    already in the flow as vertex lists, a fan into the targets.  Returns
    (sent, arms, flow).  When the short arms fill the query, arms are its
    flow's arms, base included, by ascending second vertex as
    Flow.arms() lists them, and flow is None: no flow state is built.
    Otherwise arms is None and flow is the Flow the query augmented,
    holding the base and the same short arms, for arms() and min_cut().
    """
    short = _short_arms(g, x, targets, multi, limit, base)
    if len(short) == limit:
        return limit, sorted([*base, *short], key=_second), None
    flow = Flow(g, x, targets, multi)
    flow.route(*base, *short)
    sent = len(short)
    while sent < limit and flow.augment():
        sent += 1
    return sent, None, flow


def _short_arms(
    g: Graph, x: int, targets: int, multi: dict[int, int], limit: int, base: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Up to limit arms of one and two edges from x beyond base,
    exactly the paths augment would find first and in its order
    (module docstring), read from the adjacency bitmasks alone."""
    masks = g._masks
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


_second = itemgetter(1)
_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> Iterable[int]:
    """The set bits of mask, ascending, read in C off its binary digits."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT))
