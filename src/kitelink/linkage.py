"""Two vertex-disjoint paths between prescribed terminal pairs.

The decision problem is solved exactly by depth-first search over the
first path with a connectivity prune and memoized dead states, so it is
complete (never a false NotFound) though exponential in the worst case.
Every 6-connected graph admits the linkage, which is the regime the kite
pipeline calls it in.  There the search is usually fast but has a heavy
tail, and no budget bounds it: on the circulant C30(1,2,4,7) with
terminals (28,12) and (13,5) (find_kite roots (28,13,12,5)) it makes
about 884k ``grow`` calls and takes 2-3 s on a 2-core Xeon, and the
worst case known, C34(1,2,4,7) with terminals (30,31) and (10,4)
(roots (30,10,31,4)), takes 23.9-26 s there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateTerminals, PreconditionViolated
from .graphs import Graph, connected_avoiding
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


def two_linkage(g: Graph, s1: int, t1: int, s2: int, t2: int) -> LinkagePair | None:
    """Vertex-disjoint paths s1->t1 and s2->t2, or None if none exist.

    Deterministic: the first path is grown lowest neighbor first and the
    second is a shortest path in what remains.
    """
    _validate_terminals(g, s1, t1, s2, t2)
    other = (1 << s2) | (1 << t2)
    dead: set[tuple[int, int]] = set()

    def grow(v: int, used: int) -> list[int] | None:
        if v == t1:
            second = _shortest_avoiding(g, s2, t2, used)
            return [] if second is not None else None
        key = (v, used)
        if key in dead:
            return None
        for w in g.neighbors(v):
            bit = 1 << w
            if used & bit or bit & other:
                continue
            nxt = used | bit
            if not connected_avoiding(g, s2, t2, nxt):
                continue
            tail = grow(w, nxt)
            if tail is not None:
                return [w] + tail
        dead.add(key)
        return None

    if not connected_avoiding(g, s2, t2, (1 << s1)):
        return None
    first_tail = grow(s1, 1 << s1)
    if first_tail is None:
        return None
    first = [s1] + first_tail
    second = _shortest_avoiding(g, s2, t2, _mask(first))
    assert second is not None
    return LinkagePair(Path(first), Path(second))


def _mask(vs: list[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _shortest_avoiding(g: Graph, a: int, b: int, banned: int) -> list[int] | None:
    """Deterministic BFS path from a to b dodging the banned bitmask."""
    if (banned >> a) & 1 or (banned >> b) & 1:
        return None
    parent = {a: -1}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w in parent or (banned >> w) & 1:
                    continue
                parent[w] = v
                if w == b:
                    out = [b]
                    while parent[out[-1]] != -1:
                        out.append(parent[out[-1]])
                    return out[::-1]
                nxt.append(w)
        frontier = nxt
    return None
