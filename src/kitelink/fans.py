"""Vertex connectivity and fans of internally disjoint paths.

A k-fan from x into a set S is a family of k paths from x to k distinct
vertices of S, pairwise sharing only x, each meeting S exactly in its own
endpoint.  All operations here reduce to unit-capacity flow of
vertex-disjoint paths (flow.max_flow), each query holding its own flow
on the graph's vertices, so results are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GraphTooSmall, InvalidBaseFan, InvariantViolation, PreconditionViolated
from . import flow
from .graphs import Graph, vertex_mask
from .paths import Path
from .structures import RootQuadruple


@dataclass(frozen=True)
class CutCertificate:
    """Exact connectivity plus, for non-complete graphs, a witnessing cut."""

    k: int
    cut: frozenset[int] | None

    def __post_init__(self):
        if self.cut is not None and len(self.cut) != self.k:
            raise InvariantViolation("cut size disagrees with connectivity")


@dataclass(frozen=True)
class Fan:
    """Arms are reported x-first and sorted by terminal endpoint."""

    center: int
    arms: tuple[Path, ...]

    @property
    def k(self) -> int:
        return len(self.arms)

    def endpoints(self) -> tuple[int, ...]:
        return tuple(arm.last for arm in self.arms)


@dataclass(frozen=True)
class TerminalFan:
    """Seven paths from the hub x2: three to x1 (q), three to x3 (r), one
    to x4 (s).  Any two arms share only x2 plus, for arms of the same
    bundle, their common far endpoint."""

    hub: int
    q: tuple[Path, Path, Path]
    r: tuple[Path, Path, Path]
    s: Path

    @property
    def x1(self) -> int:
        return self.q[0].last

    @property
    def x3(self) -> int:
        return self.r[0].last

    @property
    def x4(self) -> int:
        return self.s.last

    def arms(self) -> tuple[Path, ...]:
        return self.q + self.r + (self.s,)

    def swap_sides(self) -> "TerminalFan":
        return TerminalFan(self.hub, self.r, self.q, self.s)


def check_fan(g: Graph, x: int, s: frozenset[int] | set[int], fan: Fan) -> str | None:
    """None when fan is a valid fan from x into s, else the first problem."""
    if fan.center != x:
        return "fan center mismatch"
    seen_terminals: set[int] = set()
    seen_interiors: set[int] = set()
    for arm in fan.arms:
        if arm.first != x:
            return f"arm {arm!r} does not start at {x}"
        if len(arm) < 2:
            return f"arm {arm!r} has no edge"
        if not arm.is_walk_in(g):
            return f"arm {arm!r} uses a missing edge"
        hits = [v for v in arm if v in s]
        if hits != [arm.last]:
            return f"arm {arm!r} must meet the target set exactly at its end"
        if arm.last in seen_terminals:
            return f"terminal {arm.last} reused"
        seen_terminals.add(arm.last)
        # Interiors miss s, which holds every terminal, so only two
        # interiors can collide.
        inner = set(arm.vertices[1:-1])
        if inner & seen_interiors:
            return "arms overlap off the center"
        seen_interiors.update(inner)
    if x in s:
        return "center may not belong to the target set"
    return None


def _validate_fan_args(g: Graph, x: int, s: frozenset[int], k: int) -> None:
    if not 0 <= x < g.n:
        raise PreconditionViolated(f"center {x} outside graph")
    if any(not 0 <= v < g.n for v in s):
        raise PreconditionViolated("target set outside graph")
    if x in s:
        raise PreconditionViolated("center may not belong to the target set")
    if k < 1:
        raise PreconditionViolated("fan size must be positive")
    if len(s) < k:
        raise PreconditionViolated(f"target set of size {len(s)} cannot host a {k}-fan")


def find_fan(g: Graph, x: int, s: frozenset[int] | set[int], k: int) -> Fan | None:
    """A k-fan from x into s, or None when no such fan exists."""
    return extend_fan(g, x, s, Fan(x, ()), k)


def extend_fan(
    g: Graph, x: int, s: frozenset[int] | set[int], base: Fan, k: int
) -> Fan | None:
    """Grow base into a k-fan into s keeping base's endpoints as endpoints.

    Arm interiors may be rerouted freely; only the endpoint set of the
    base is pinned.  Returns None exactly when no k-fan into s exists.
    The base is routed first and augmented from; an augmenting path
    never lowers the flow into the sink, so every base endpoint keeps
    its arm, and augmenting from any flow reaches the maximum, so
    pinning loses nothing.  Its flow, _grow_fan, also grows apex_fan's
    fan, unchecked and unsorted; where the short arms fill the fan it
    builds no flow state.  On random 7-connected 40-vertex graphs
    apex_fan takes 0.018-0.024 ms per call, and its flow and arm p, all
    that find_kite builds when its linkage path misses p, 0.0086-0.0092
    ms (mean over 300 root choices, best of 7, on a 2-core Xeon at the
    faster of its two speeds, which are about 1.6x apart).
    """
    s = frozenset(s)
    _validate_fan_args(g, x, s, k)
    problem = check_fan(g, x, s, base)
    if problem:
        raise InvalidBaseFan(problem)
    if base.k > k:
        raise InvalidBaseFan(f"base already has {base.k} > {k} arms")
    arms = _grow_fan(g, x, vertex_mask(s), [arm.vertices for arm in base.arms], k)
    if arms is None:
        return None
    return Fan(x, tuple(sorted(map(Path, arms), key=lambda p: (p.last, p.vertices))))


def _grow_fan(
    g: Graph, x: int, targets: int, base: list[tuple[int, ...]], k: int
) -> list[Sequence[int]] | None:
    """extend_fan's flow with nothing checked and nothing sorted: the
    arms of a k-fan from x into the targets, a bitmask, as vertex lists,
    grown from base, the vertex tuples of a fan from x into them with at
    most k arms.  None when no k-fan into the targets exists.  For
    callers whose base a flow built."""
    sent, arms, state = flow.max_flow(g, x, targets, {}, k - len(base), base)
    if sent < k - len(base):
        return None
    return state.arms() if arms is None else arms


def terminal_fan(g: Graph, roots: RootQuadruple) -> TerminalFan | None:
    """Seven internally disjoint paths from x2: three to x1, three to x3,
    one to x4.  None when the graph cannot host them.  On random
    7-connected 40-vertex graphs the short arms fill nearly every such
    fan, and it takes 0.0145-0.016 ms per call (mean over 300 root
    choices, best of 7) on a 2-core Xeon at the faster of its two
    speeds, which are about 1.6x apart."""
    if not roots.in_range(g.n):
        raise PreconditionViolated("roots outside graph")
    x1, x2, x3, x4 = roots.as_tuple()
    sent, arms, state = flow.max_flow(g, x2, 1 << x1 | 1 << x3 | 1 << x4, {x1: 3, x3: 3}, 7)
    if sent < 7:
        return None
    # A flow of 7 into targets of room 3, 3 and 1 fills each,
    # and its arms come by ascending second vertex, which is the order
    # of their vertex tuples.
    paths = [Path(a) for a in (state.arms() if arms is None else arms)]
    q = tuple(p for p in paths if p.last == x1)
    r = tuple(p for p in paths if p.last == x3)
    s = next(p for p in paths if p.last == x4)
    return TerminalFan(x2, q, r, s)


def vertex_connectivity(g: Graph) -> CutCertificate:
    """Exact vertex connectivity with a minimum separating set.

    A descent on Even's check (has_connectivity_at_least).  For the
    lowest-numbered vertex v of minimum degree, kappa <= k = deg(v), and
    N(v) is a cut of that size.  While the check fails at k, the flow
    that failed has some value below k, and the min cut behind it is a
    separator of g of exactly that size.  A pair query's cut splits its
    two non-adjacent vertices.  A fan query's cut splits the later vertex
    from the earlier vertices outside the cut (the fan lemma), and some
    earlier vertex is outside it, since at least k came earlier.  So k
    drops to the flow's value, that cut becomes the witness, and the
    check runs again; it passes once k = kappa, after at most
    deg(v) - kappa + 1 checks.  Where kappa = deg(v) that is one check
    and the witness is N(v).  On a 2-core Xeon (best of 5) the circulant
    C80(1,2,3,4) takes about 0.007 s and gen_random_kconnected(80, 7, 1),
    of connectivity 32 = deg(v), 0.038 s.  Two C_h(1,2,3,4) rings joined
    by three edges (kappa = 3, deg(v) = 8) take one descent step: 0.006 s
    at n = 500, 0.025-0.027 s at n = 2,000 and 0.052-0.062 s at n =
    4,000.  Complete graphs get k = n - 1 and no cut.
    """
    if g.n < 2:
        raise GraphTooSmall("connectivity needs at least two vertices")
    if g.is_complete():
        return CutCertificate(g.n - 1, None)
    v = min(g.vertices(), key=g.degree)
    # Built through a set, as min_cut builds its cuts, so N(v) prints alike.
    k, cut = g.degree(v), frozenset(set(g.neighbors(v)))
    while (failed := _failing_query(g, k)) is not None:
        state, k = failed
        cut = state.min_cut()
    return CutCertificate(k, cut)


def has_connectivity_at_least(g: Graph, k: int) -> bool:
    """Decide kappa(g) >= k without computing the exact value.

    Even (SIAM J. Comput. 4, 1975): in any order of the vertices, g is
    k-connected exactly when every non-adjacent pair among the first k
    vertices has k disjoint paths and every later vertex j has a k-fan
    into the vertices before it.  That is at most C(k, 2) + n - k flows
    of at most k augmentations each.
    The order here is by descending degree, ties by index, so a regular
    graph keeps index order and runs the same flows.  The first k
    vertices then often share k neighbours, and a later vertex often
    has k neighbours before it; a pair or a vertex like that runs no
    flow.  The check stops at the first flow that falls short and reads
    no cut from it; vertex_connectivity does, to descend to kappa.  On a
    2-core Xeon the check takes 0.03-0.05 ms on a random 7-connected
    14-vertex host (mean over 50 hosts, best of 7), and on
    gen_random_kconnected(80, 7, 1) at k = 32 it runs 158 flows in
    0.037-0.038 s (best of 5); the short arms fill 28 of them, which
    build no flow state.
    """
    if g.n < 2:
        raise GraphTooSmall("connectivity needs at least two vertices")
    if k <= 0:
        return True
    if g.min_degree() < k:
        return False
    return _failing_query(g, k) is None


def _failing_query(g: Graph, k: int) -> tuple[flow.Flow, int] | None:
    """Even's check at k <= min degree: None when it passes, else the
    first flow that fell short and its value."""
    # Every fan below has at least k targets.  Some maximum path system
    # holds every one-edge fan arm and every two-edge path through a
    # common neighbour, so a pair or a vertex with k such paths needs no
    # flow; in a complete graph that is every pair and every vertex.
    # Descending degree; sorted is stable, so ties keep index order.
    order = sorted(g.vertices(), key=g.degree, reverse=True)
    for i, t in enumerate(order[:k]):
        for s in order[:i]:
            if g.has_edge(s, t) or (g.adjacency_mask(s) & g.adjacency_mask(t)).bit_count() >= k:
                continue
            value, _, state = flow.max_flow(g, s, 1 << t, {t: k}, k)
            if value < k:
                return state, value
    before = vertex_mask(order[:k])
    for j in order[k:]:
        if (g.adjacency_mask(j) & before).bit_count() < k:
            value, _, state = flow.max_flow(g, j, before, {}, k)
            if value < k:
                return state, value
        before |= 1 << j
    return None
