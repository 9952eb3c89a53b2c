"""Rooted kite subdivisions and flowers, with their verifiers.

The kite is the 4-vertex pattern made of a triangle plus a pendant edge.
A rooted subdivision of it consists of a cycle through x1, x2, x3 and a
path from x2 to x4 meeting the cycle only at x2.  The containers here are
deliberately permissive: structurally broken candidates can be
represented, and the verifiers report the first violated requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import MalformedLine, PreconditionViolated
from .graphs import Graph
from .paths import Cycle, Path, normalize_cycle


@dataclass(frozen=True)
class RootQuadruple:
    """Roots in kite order: x1, x3 are the plain triangle corners, x2 the
    triangle corner carrying the pendant, x4 the pendant tip."""

    x1: int
    x2: int
    x3: int
    x4: int

    def __post_init__(self):
        vs = (self.x1, self.x2, self.x3, self.x4)
        if len(set(vs)) != 4:
            raise PreconditionViolated(f"roots must be distinct, got {vs}")
        if min(vs) < 0:
            raise PreconditionViolated(f"roots must be non-negative, got {vs}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x1, self.x2, self.x3, self.x4)

    def in_range(self, n: int) -> bool:
        return max(self.as_tuple()) < n

    def swapped(self) -> "RootQuadruple":
        # x1 and x3 play symmetric parts in the kite.
        return RootQuadruple(self.x3, self.x2, self.x1, self.x4)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class KiteSubdivision:
    """A candidate rooted kite: cycle vertices (canonical rotation) and the
    pendant path listed from x2 to x4.  Not validated on construction."""

    cycle: tuple[int, ...]
    pendant: tuple[int, ...]

    @staticmethod
    def from_parts(cycle: Cycle, pendant: Path) -> "KiteSubdivision":
        return KiteSubdivision(cycle.vertices, pendant.vertices)

    def __post_init__(self):
        object.__setattr__(self, "cycle", normalize_cycle(tuple(self.cycle)))
        object.__setattr__(self, "pendant", tuple(self.pendant))

    def vertices(self) -> set[int]:
        return set(self.cycle) | set(self.pendant)

    def as_json(self, roots: RootQuadruple) -> dict:
        return {
            "roots": list(roots.as_tuple()),
            "cycle": list(self.cycle),
            "pendant": list(self.pendant),
        }


def kite_from_json(obj: object) -> tuple[RootQuadruple, KiteSubdivision]:
    if not isinstance(obj, dict):
        raise MalformedLine("kite JSON must be an object")
    for key in ("roots", "cycle", "pendant"):
        if key not in obj:
            raise MalformedLine(f"kite JSON lacks {key!r}")
    roots = obj["roots"]
    if not (isinstance(roots, (list, tuple)) and len(roots) == 4):
        raise MalformedLine("kite JSON 'roots' must list four vertices")
    if not all(type(r) is int for r in roots):
        raise MalformedLine(f"kite JSON 'roots' must list integer vertices, got {roots!r}")
    rq = RootQuadruple(*roots)
    for key in ("cycle", "pendant"):
        part = obj[key]
        if not (isinstance(part, (list, tuple)) and all(type(v) is int for v in part)):
            raise MalformedLine(f"kite JSON {key!r} must list integer vertices")
    return rq, KiteSubdivision(tuple(obj["cycle"]), tuple(obj["pendant"]))


@dataclass(frozen=True)
class Flower:
    """Three disjoint-except-x2 cycles plus three spoke paths.

    c1 holds x1, c2 holds x3, and they meet exactly in x2.  c3 holds x4
    and avoids the other two cycles.  Spoke p_i runs from x_i to its
    landing v_i on c3, and v1, v2, v3, x4 occur around c3 in that cyclic
    order.  Like KiteSubdivision this is an unvalidated container.
    """

    roots: RootQuadruple
    c1: tuple[int, ...]
    c2: tuple[int, ...]
    c3: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    p3: tuple[int, ...]
    v1: int
    v2: int
    v3: int

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            object.__setattr__(self, name, normalize_cycle(tuple(getattr(self, name))))
        for name in ("p1", "p2", "p3"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _check_walk(g: Graph, vs: Sequence[int], name: str, closed: bool) -> str | None:
    """The first problem with vs as a simple path of g, or as a simple
    cycle when closed; None when there is none."""
    if closed and len(vs) < 3:
        return f"{name} has fewer than 3 vertices"
    if len(vs) < 2:
        return f"{name} has no edge"
    if len(set(vs)) != len(vs):
        return f"{name} repeats a vertex"
    for v in vs:
        if not 0 <= v < g.n:
            return f"{name} uses out-of-range vertex {v}"
    for a, b in zip(vs, vs[1:] + vs[:1] if closed else vs[1:]):
        if not g.has_edge(a, b):
            return f"{name} uses missing edge {a}-{b}"
    return None


def verify_kite(g: Graph, roots: RootQuadruple, kite: KiteSubdivision) -> Verdict:
    """Check every defining requirement; report the first violation."""
    if not roots.in_range(g.n):
        return Verdict(False, "root outside graph")
    cyc, pen = kite.cycle, kite.pendant
    bad = _check_walk(g, cyc, "cycle", closed=True)
    if bad:
        return Verdict(False, bad)
    for name, root in (("x1", roots.x1), ("x2", roots.x2), ("x3", roots.x3)):
        if root not in cyc:
            return Verdict(False, f"{name}={root} not on cycle")
    if roots.x4 in cyc:
        return Verdict(False, f"x4={roots.x4} lies on cycle")
    bad = _check_walk(g, pen, "pendant", closed=False)
    if bad:
        return Verdict(False, bad)
    if pen[0] != roots.x2:
        return Verdict(False, f"pendant starts at {pen[0]}, not x2={roots.x2}")
    if pen[-1] != roots.x4:
        return Verdict(False, f"pendant ends at {pen[-1]}, not x4={roots.x4}")
    meet = set(pen) & set(cyc)
    if meet != {roots.x2}:
        extra = sorted(meet - {roots.x2})
        return Verdict(False, f"pendant touches cycle at {extra}")
    return Verdict(True)


def _cyclic_order_ok(cycle: Sequence[int], marks: Sequence[int]) -> bool:
    """Do the marks occur around the cycle in the given cyclic order, in
    either traversal direction?"""
    pos = {v: i for i, v in enumerate(cycle)}
    if len(set(marks)) != len(marks) or any(v not in pos for v in marks):
        return False
    idx = [pos[v] for v in marks]
    k = len(cycle)
    for direction in (1, -1):
        gaps = [(direction * (idx[(i + 1) % len(idx)] - idx[i])) % k for i in range(len(idx))]
        if sum(gaps) == k and all(gap > 0 for gap in gaps):
            return True
    return False


def verify_flower(g: Graph, f: Flower) -> Verdict:
    roots = f.roots
    if not roots.in_range(g.n):
        return Verdict(False, "root outside graph")
    for name, part in (("c1", f.c1), ("c2", f.c2), ("c3", f.c3)):
        bad = _check_walk(g, part, name, closed=True)
        if bad:
            return Verdict(False, bad)
    if roots.x1 not in f.c1:
        return Verdict(False, "x1 not on c1")
    if roots.x3 not in f.c2:
        return Verdict(False, "x3 not on c2")
    if set(f.c1) & set(f.c2) != {roots.x2}:
        return Verdict(False, "c1 and c2 must meet exactly in x2")
    if roots.x4 not in f.c3:
        return Verdict(False, "x4 not on c3")
    if set(f.c3) & (set(f.c1) | set(f.c2)):
        return Verdict(False, "c3 touches c1 or c2")
    spokes = (("p1", f.p1, roots.x1, f.v1), ("p2", f.p2, roots.x2, f.v2),
              ("p3", f.p3, roots.x3, f.v3))
    for name, p, src, landing in spokes:
        bad = _check_walk(g, p, name, closed=False)
        if bad:
            return Verdict(False, bad)
        if p[0] != src:
            return Verdict(False, f"{name} does not start at its root {src}")
        if p[-1] != landing:
            return Verdict(False, f"{name} does not end at its landing {landing}")
        if landing not in f.c3:
            return Verdict(False, f"{name} landing {landing} not on c3")
        interior = set(p[1:-1])
        if interior & (set(f.c1) | set(f.c2) | set(f.c3)):
            return Verdict(False, f"{name} interior touches a cycle")
    for (na, pa, _, _), (nb, pb, _, _) in (
        (spokes[0], spokes[1]),
        (spokes[0], spokes[2]),
        (spokes[1], spokes[2]),
    ):
        if set(pa) & set(pb):
            return Verdict(False, f"{na} and {nb} share a vertex")
    if not _cyclic_order_ok(f.c3, (f.v1, f.v2, f.v3, roots.x4)):
        return Verdict(False, "landings v1, v2, v3, x4 out of cyclic order on c3")
    return Verdict(True)
