"""The constructive pipeline: from a 7-connected graph and four roots to
a rooted kite subdivision.

The route mirrors the existence proof read forwards.  A 7-fan from x2
splits into three arms to x1 (Q), three to x3 (R) and one to x4.  The
x4 arm is grown into a second 7-fan whose landing pattern on the Q side
drives a case analysis, which `assemble` runs on any x1-x3 path L that
some x2-x4 path avoids: the claim 1 assembly when L misses the x4-x2
arm P, else the crossing assembly when a stretch of L crosses cleanly
from the Q side to R, else landmark vertices on L feed claim 2 or
claim 3, and when both decline the pieces form a flower whose own arcs
and spokes close into at most four candidate cycles, each given its
pendant by one breadth-first search.  find_kite runs the chain on the
path two_linkage returns.  Every candidate is verified before being
returned; any stage failure falls back to exhaustive search and is
recorded as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DEFAULT_BUDGET,
    AssemblyFailed,
    BudgetExceeded,
    ConstructionFailed,
    FlowerInvalid,
    FlowerResolutionExhausted,
    InteriorOverlap,
    InvalidCycle,
    InvariantViolation,
    NoSevenFan,
    NotSevenConnected,
    OrderingViolated,
    PreconditionViolated,
    SegmentsNotChainable,
    StageFailure,
    VertexNotOnPath,
)
from .fans import (
    Fan,
    TerminalFan,
    extend_fan,
    has_connectivity_at_least,
    terminal_fan,
    vertex_connectivity,
)
from .graphs import Graph, shortest_avoiding, vertex_mask
from .linkage import two_linkage
from .oracle import SearchBudget, find_kite_exhaustive
from .paths import Cycle, Path, concat_paths, subpath
from .structures import (
    Flower,
    KiteSubdivision,
    RootQuadruple,
    verify_flower,
    verify_kite,
)

_SPLICE_ERRORS = (SegmentsNotChainable, InteriorOverlap, InvalidCycle, VertexNotOnPath)


@dataclass(frozen=True)
class ApexFan:
    """The 7-fan from x4 into the terminal fan's vertex set.

    p is the arm ending at x2.  landings holds the arms ending on the
    Q side paired with their landing vertices, ordered by Q-path and
    along each away from x2, a landing at x1 last; side records whether
    the Q and R roles were swapped so that the Q side owns at least
    three landings.
    """

    p: Path
    landings: tuple[tuple[Path, int], ...]
    side: str  # "kept" or "swapped"

    def arms(self) -> tuple[Path, ...]:
        return (self.p,) + tuple(arm for arm, _ in self.landings)

    def landing_vertices(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.landings)


@dataclass(frozen=True)
class Landmarks:
    """Key vertices along the linkage path L, plus the composite path T.

    Walking L from x1 to x3: u is the last vertex on Q or a W-arm, v the
    last vertex on P, w the first vertex on R past v, and uprime the
    first vertex on P past u.  t_path runs u -> x2 through L, P, L, the
    relabelled R1 and R2.
    """

    u: int
    v: int
    w: int
    uprime: int
    r1_index: int
    t_path: Path


@dataclass(frozen=True)
class DiagnosticRecord:
    stage: str
    reason: str
    instance: str

    def as_json(self) -> dict:
        return {"stage": self.stage, "reason": self.reason, "instance": self.instance}


@dataclass(frozen=True)
class FindKiteOptions:
    verify_connectivity: bool = False
    try_direct: bool = True
    allow_fallback: bool = True
    budget: int = DEFAULT_BUDGET  # expansions for two_linkage's search and for the fallback

    def __post_init__(self):
        if self.budget < 1:
            raise PreconditionViolated("budget needs at least one expansion")


@dataclass(frozen=True)
class FindKiteResult:
    roots: RootQuadruple
    kite: KiteSubdivision
    stage: str  # direct / claim1 / claim2 / claim3 / flower / fallback
    diagnostics: tuple[DiagnosticRecord, ...] = field(default=())

    def as_json(self) -> dict:
        out = self.kite.as_json(self.roots)
        out["stage"] = self.stage
        if self.diagnostics:
            out["diagnostics"] = [d.as_json() for d in self.diagnostics]
        return out


def oriented_terminal_fan(tf: TerminalFan, af: ApexFan) -> TerminalFan:
    """The terminal fan in the coordinates the apex fan settled on."""
    return tf.swap_sides() if af.side == "swapped" else tf


def apex_fan(g: Graph, tf: TerminalFan) -> ApexFan:
    """Grow the x4 arm into a 7-fan from x4 into V(Q) + V(R).

    Of its seven arms one ends at x2 (that is p); the other six land on
    distinct vertices, and by pigeonhole one side of the terminal fan
    receives at least three of them.  Roles are swapped if needed so that
    side is the Q side.
    """
    x2, x4 = tf.hub, tf.x4
    base = Fan(x4, (tf.s.reverse(),))
    fan = extend_fan(g, x4, _vertices(tf.q + tf.r), base, 7)
    if fan is None:
        raise NoSevenFan(f"no 7-fan from x4={x4} into the terminal fan")
    p = next((arm for arm in fan.arms if arm.last == x2), None)
    if p is None:
        raise InvariantViolation("apex fan extension lost the x2 arm")
    qverts = _vertices(tf.q)
    others = [arm for arm in fan.arms if arm.last != x2]
    qside = [arm for arm in others if arm.last in qverts]
    rside = [arm for arm in others if arm.last not in qverts]
    side = "kept"
    tf_o = tf
    if len(qside) < 3:
        side = "swapped"
        tf_o = tf.swap_sides()
        qside, rside = rside, qside
    if len(qside) < 3:
        raise InvariantViolation("neither side of the terminal fan got 3 landings")

    def landing_key(arm: Path):
        # By Q-path, then nearest x2 first; x1 sorts last.
        w = arm.last
        idx = _arm_index(tf_o.q, tf_o.x1, w)
        if idx is None:
            return (3, 0, arm.vertices)
        return (idx, tf_o.q[idx].index(w), arm.vertices)

    ordered = tuple(sorted(qside, key=landing_key))
    af = ApexFan(p, tuple((arm, arm.last) for arm in ordered), side)
    ws = af.landing_vertices()
    if len(set(ws)) != len(ws):
        raise InvariantViolation("apex fan landings collide")
    if sum(1 for w in ws if w != tf_o.x1 and w != x2) < 2:
        raise InvariantViolation("fewer than two landings clear of x1 and x2")
    return af


def _vertices(paths) -> set[int]:
    return {v for path in paths for v in path.vertices}


def _other(*taken: int | None) -> int:
    """The lowest arm index of a bundle that is not taken."""
    return min({0, 1, 2}.difference(taken))


def _arm_index(bundle: tuple[Path, ...], root: int, a: int) -> int | None:
    """The index of the bundle arm through a.

    Arms of a bundle share only the hub and their far end, the root, so
    the arm is unique off those two; None when a is the root itself,
    which every arm reaches.
    """
    if a == root:
        return None
    for idx, arm in enumerate(bundle):
        if a in arm:
            return idx
    raise InvariantViolation(f"{a} is on no arm ending at {root}")


def _stem(bundle: tuple[Path, ...], root: int, a: int) -> tuple[int | None, Path]:
    """The index of the bundle arm through a, and its stretch root -> a."""
    idx = _arm_index(bundle, root, a)
    return idx, Path((root,)) if idx is None else subpath(bundle[idx], root, a)


def _landing_arm(af: ApexFan, a: int) -> Path:
    for arm, _ in af.landings:
        if a in arm:
            return arm
    raise InvariantViolation(f"{a} is on no landing arm")


def _contact_stem(tf_o: TerminalFan, af: ApexFan, a: int) -> tuple[int | None, Path]:
    """The stem x1 -> a for a on a Q-path or on a landing arm.

    Off Q, the stem runs up the Q-path of a's landing and out along the
    arm.  The index is that of the Q-path used, None when it is x1 alone.
    """
    if any(a in q for q in tf_o.q):
        return _stem(tf_o.q, tf_o.x1, a)
    arm = _landing_arm(af, a)
    idx, stem = _stem(tf_o.q, tf_o.x1, arm.last)
    return idx, concat_paths([stem, subpath(arm, arm.last, a)])


def _interior_landings(tf_o: TerminalFan, af: ApexFan) -> list[tuple[Path, int, int]]:
    """Landings away from x1, tagged with the index of their Q-path."""
    tagged = [(arm, w, _arm_index(tf_o.q, tf_o.x1, w)) for arm, w in af.landings]
    return [t for t in tagged if t[2] is not None]


def _linkage_frame(tf: TerminalFan, af: ApexFan, l: Path):
    """The oriented terminal fan, l's vertices from x1, and the vertex
    sets of Q plus the landing arms, of R and of p."""
    tf_o = oriented_terminal_fan(tf, af)
    if {l.first, l.last} != {tf_o.x1, tf_o.x3}:
        raise PreconditionViolated("linkage path must join x1 and x3")
    vs = l.vertices if l.first == tf_o.x1 else l.reverse().vertices
    qwset = _vertices(tf_o.q + tuple(arm for arm, _ in af.landings))
    return tf_o, vs, qwset, _vertices(tf_o.r), set(af.p.vertices)


def crossing_assembly(
    g: Graph, tf: TerminalFan, af: ApexFan, l: Path
) -> KiteSubdivision | None:
    """Kite from a fan-to-R crossing stretch of the linkage path.

    Scans l from x1 for a stretch that leaves Q or a landing arm and
    reaches R with no other fan vertex in between.  Such a stretch closes
    into the claim 1 cycle (spliced through its landing arm when it
    starts on one) and p stays free for the pendant.  Returns None when
    no stretch exists; exactly then the landmark ordering is forced, so
    this case eats every instance the later assemblies cannot express.
    With no landing arms and an l that misses p this is the claim 1
    assembly, and the stretch always exists.
    """
    tf_o, vs, qwset, rset, pset = _linkage_frame(tf, af, l)
    for j, vj in enumerate(vs):
        if vj not in rset:
            continue
        i = max(k for k in range(j) if vs[k] in qwset)  # vs[0] = x1 qualifies
        if not any(v in rset or v in pset for v in vs[i + 1 : j]):
            break
    else:
        return None
    try:
        q_idx, q_stem = _contact_stem(tf_o, af, vs[i])
        r_idx, r_stem = _stem(tf_o.r, tf_o.x3, vs[j])
        cycle = concat_paths(
            [
                tf_o.q[_other(q_idx)],
                q_stem,
                Path(vs[i : j + 1]),
                r_stem.reverse(),
                tf_o.r[_other(r_idx)].reverse(),
            ]
        )
    except _SPLICE_ERRORS as exc:
        raise AssemblyFailed(f"crossing pieces overlap: {exc}") from exc
    return _checked(g, tf_o, cycle, af.p.reverse(), "crossing")


def compute_landmarks(l: Path, tf: TerminalFan, af: ApexFan) -> Landmarks:
    """Locate u, uprime, v, w on the linkage path and build T.

    Raises OrderingViolated when the landmarks refuse to line up the way
    the structural argument promises; the caller treats that as a stage
    failure and falls back.
    """
    tf_o, vs, qwset, rset, pset = _linkage_frame(tf, af, l)
    if not (set(vs) & pset):
        raise PreconditionViolated("linkage path misses the apex arm; use claim1_assembly")
    iu = max(i for i, v in enumerate(vs) if v in qwset)
    phits = [i for i, v in enumerate(vs) if v in pset]
    after = [i for i in phits if i > iu]
    if not after:
        raise OrderingViolated("the apex arm meets L only before u")
    iuprime, iv = after[0], phits[-1]
    rhits = [i for i in range(iv + 1, len(vs)) if vs[i] in rset]
    if not rhits:
        raise OrderingViolated("no R-vertex after v on L")
    iw = rhits[0]
    if not iu < iuprime <= iv < iw:
        raise OrderingViolated(
            f"landmark order broke: u@{iu}, u'@{iuprime}, v@{iv}, w@{iw}"
        )
    if any(vs[i] in rset for i in range(iu + 1, iuprime)):
        raise OrderingViolated("an R-vertex intrudes into L[u, u']")
    w = vs[iw]
    r1_index, r_stem = _stem(tf_o.r, tf_o.x3, w)
    if r1_index is None:  # w = x3 ends every R-path; the first serves as R1
        r1_index = 0
    try:
        t_path = concat_paths(
            [
                Path(vs[iu : iuprime + 1]),
                subpath(af.p, vs[iuprime], vs[iv]),
                Path(vs[iv : iw + 1]),
                r_stem.reverse(),
                tf_o.r[_other(r1_index)].reverse(),
            ]
        )
    except _SPLICE_ERRORS as exc:
        raise OrderingViolated(f"composite path did not splice: {exc}") from exc
    if not isinstance(t_path, Path):
        raise OrderingViolated("composite path unexpectedly closed on itself")
    return Landmarks(vs[iu], vs[iv], w, vs[iuprime], r1_index, t_path)


def _checked(g: Graph, tf_o: TerminalFan, cycle, pendant, stage: str) -> KiteSubdivision:
    if not isinstance(cycle, Cycle):
        raise AssemblyFailed(f"{stage}: cycle did not close")
    if not isinstance(pendant, Path):
        raise AssemblyFailed(f"{stage}: pendant is not a path")
    kite = KiteSubdivision.from_parts(cycle, pendant)
    verdict = verify_kite(g, RootQuadruple(tf_o.x1, tf_o.hub, tf_o.x3, tf_o.x4), kite)
    if not verdict:
        raise AssemblyFailed(f"{stage} built an invalid kite: {verdict.reason}")
    return kite


def claim1_assembly(g: Graph, tf: TerminalFan, p: Path, pprime: Path) -> KiteSubdivision:
    """Assembly for the case where the x1-x3 path avoids p entirely.

    This is the crossing assembly with no landing arms.  Walking pprime
    from x1, the stretch between its last Q-vertex before the first
    R-vertex and that R-vertex crosses from the Q side to the R side
    while dodging both; closing it through unused fan arms gives the
    cycle, and p (reversed) is the pendant.
    """
    if set(p.vertices) & set(pprime.vertices):
        raise PreconditionViolated("bypass path touches the pendant arm")
    return crossing_assembly(g, tf, ApexFan(p, (), "kept"), pprime)


def claim2_assembly(
    g: Graph, tf: TerminalFan, af: ApexFan, lm: Landmarks
) -> KiteSubdivision | None:
    """Assembly for landings on at least two distinct Q-paths.

    None means the hypothesis fails (all interior landings share one
    Q-path) and the next case should run.
    """
    tf_o = oriented_terminal_fan(tf, af)
    x2, x4 = tf_o.hub, tf_o.x4
    interior = _interior_landings(tf_o, af)
    spanned = sorted({idx for _, _, idx in interior})
    if len(spanned) < 2:
        return None
    try:
        u_idx, stem = _contact_stem(tf_o, af, lm.u)
        l_idx = next(i for i in spanned if i != u_idx)
        cycle = concat_paths([tf_o.q[_other(l_idx, u_idx)], stem, lm.t_path])
        arm_l, w_l, _ = next(t for t in interior if t[2] == l_idx)
        pendant = concat_paths(
            [subpath(tf_o.q[l_idx], x2, w_l), subpath(arm_l, w_l, x4)]
        )
    except _SPLICE_ERRORS as exc:
        raise AssemblyFailed(f"claim2 pieces overlap: {exc}") from exc
    return _checked(g, tf_o, cycle, pendant, "claim2")


def claim3_assembly(
    g: Graph, tf: TerminalFan, af: ApexFan, lm: Landmarks
) -> KiteSubdivision | None:
    """Assembly for landings on a single Q-path in the wrong order.

    All interior landings sit on one path, relabelled Q1, ordered from
    x2.  If u lies on another Q-path the kite assembles immediately; if
    u is on Q1 (or a W-arm) but some landing falls strictly between x2
    and u (or u's own landing is not the nearest), that landing carries
    the pendant.  None means the ordering hypothesis holds and the
    flower is next.
    """
    tf_o = oriented_terminal_fan(tf, af)
    x2, x4 = tf_o.hub, tf_o.x4
    interior = _interior_landings(tf_o, af)
    spanned = sorted({idx for _, _, idx in interior})
    if len(spanned) != 1:
        raise PreconditionViolated("claim3 expects all interior landings on one Q-path")
    q1_idx = spanned[0]
    q1 = tf_o.q[q1_idx]
    rest = [tf_o.q[i] for i in range(3) if i != q1_idx]
    try:
        ws = af.landings
        arm1, w1 = ws[0]
        u = lm.u
        pendant = concat_paths([subpath(q1, x2, w1), subpath(arm1, w1, x4)])
        closing = rest[1]
        if u in q1:
            if all(q1.index(w) >= q1.index(u) for _, w in ws):
                return None
        elif any(u in q for q in rest):
            closing = next(q for q in rest if u not in q)
        elif _landing_arm(af, u).last == w1:
            return None
        cycle = concat_paths([closing, _contact_stem(tf_o, af, u)[1], lm.t_path])
    except _SPLICE_ERRORS as exc:
        raise AssemblyFailed(f"claim3 pieces overlap: {exc}") from exc
    return _checked(g, tf_o, cycle, pendant, "claim3")


def build_flower(g: Graph, tf: TerminalFan, af: ApexFan, lm: Landmarks) -> Flower:
    """Assemble the flower once every direct case has declined.

    Preconditions inherited from the declined cases: all landings on one
    Q-path, ordered away from x2 beyond u (or beyond u's own landing
    when u sits on the W-arm landing nearest x2).
    """
    tf_o = oriented_terminal_fan(tf, af)
    x1, x2, x3, x4 = tf_o.x1, tf_o.hub, tf_o.x3, tf_o.x4
    interior = _interior_landings(tf_o, af)
    spanned = sorted({idx for _, _, idx in interior})
    if len(spanned) != 1:
        raise FlowerInvalid("landings spread over several Q-paths")
    q1 = tf_o.q[spanned[0]]
    rest = [tf_o.q[i] for i in range(3) if i != spanned[0]]
    r1 = tf_o.r[lm.r1_index]
    rrest = [tf_o.r[i] for i in range(3) if i != lm.r1_index]
    u, uprime, v, w = lm.u, lm.uprime, lm.v, lm.w
    p = af.p
    try:
        ws = af.landings
        (arm1, w1), (arm2, w2) = ws[0], ws[1]
        c1 = concat_paths([rest[0], rest[1].reverse()])
        c2 = concat_paths([rrest[0], rrest[1].reverse()])
        seg_l = subpath(lm.t_path, u, uprime)
        if u in q1:
            if q1.index(w1) < q1.index(u):
                raise FlowerInvalid("a landing sits between x2 and u; claim3 applies")
            c3 = concat_paths(
                [subpath(arm2, x4, w2), subpath(q1, w2, u), seg_l, subpath(p, uprime, x4)]
            )
            p2, v2 = subpath(q1, x2, u), u
        else:
            if u not in arm1:
                raise FlowerInvalid("u is off Q1 and off the nearest-landing arm")
            c3 = concat_paths(
                [
                    subpath(arm2, x4, w2),
                    subpath(q1, w2, w1),
                    subpath(arm1, w1, u),
                    seg_l,
                    subpath(p, uprime, x4),
                ]
            )
            p2, v2 = subpath(q1, x2, w1), w1
        p1, v1 = subpath(q1, x1, w2), w2
        if p.index(v) <= p.index(uprime):
            p3, v3 = concat_paths([subpath(r1, x3, w), subpath(lm.t_path, w, v)]), v
        else:
            p3, v3 = (
                concat_paths(
                    [subpath(r1, x3, w), subpath(lm.t_path, w, v), subpath(p, v, uprime)]
                ),
                uprime,
            )
    except _SPLICE_ERRORS as exc:
        raise FlowerInvalid(f"flower pieces overlap: {exc}") from exc
    if not isinstance(c1, Cycle) or not isinstance(c2, Cycle) or not isinstance(c3, Cycle):
        raise FlowerInvalid("a flower cycle did not close")
    if not isinstance(p3, Path):
        raise FlowerInvalid("the x3 spoke closed on itself")
    if af.side == "swapped":  # back to the caller's x1 and x3
        x1, x3, c1, c2, p1, p3, v1, v3 = x3, x1, c2, c1, p3, p1, v3, v1
    flower = Flower(
        RootQuadruple(x1, x2, x3, x4),
        c1.vertices,
        c2.vertices,
        c3.vertices,
        p1.vertices,
        p2.vertices,
        p3.vertices,
        v1,
        v2,
        v3,
    )
    verdict = verify_flower(g, flower)
    if not verdict:
        raise FlowerInvalid(f"flower failed verification: {verdict.reason}")
    return flower


def _arcs(cycle: tuple[int, ...], a: int, b: int) -> tuple[list[int], list[int]]:
    """The two arcs of cycle from a to b, each as a vertex list a ... b."""
    i = cycle.index(a)
    turn = cycle[i:] + cycle[:i]
    j = turn.index(b)
    return list(turn[: j + 1]), [a] + list(turn[j:][::-1])


def resolve_flower(g: Graph, f: Flower, budget: int = DEFAULT_BUDGET) -> KiteSubdivision:
    """Turn a verified flower into a rooted kite built from its pieces.

    The cycle runs from x2 along an arc of c1 to x1, down p1, around c3
    from v1 through v2 to v3, up p3 and along an arc of c2 back to x2;
    verify_flower makes each of these simple and clear of x4, so no
    splice can fail.  The pendant is one shortest x2-x4 path off the
    cycle.  The 2 x 2 choices of c1 and c2 arc are tried shortest cycle
    first, ties by vertex tuple, so at most four breadth-first searches
    run, and the first kite verify_kite accepts is returned.  When none
    is, FlowerResolutionExhausted.  budget is checked but not spent.
    """
    verdict = verify_flower(g, f)
    if not verdict:
        raise PreconditionViolated(f"flower invalid: {verdict.reason}")
    if budget < 1:
        raise PreconditionViolated("budget needs at least one expansion")
    x1, x2, x3, x4 = f.roots.as_tuple()
    c3_arc = next(arc for arc in _arcs(f.c3, f.v1, f.v3) if f.v2 in arc)
    middle = list(f.p1) + c3_arc[1:] + list(f.p3[-2::-1])
    cycles = sorted(
        (
            Cycle(a1 + middle[1:] + a2[1:-1])
            for a1 in _arcs(f.c1, x2, x1)
            for a2 in _arcs(f.c2, x3, x2)
        ),
        key=lambda c: (len(c), c.vertices),
    )
    for cycle in cycles:
        pendant = shortest_avoiding(g, x2, x4, vertex_mask(cycle))
        if pendant is None:
            continue
        kite = KiteSubdivision.from_parts(cycle, Path(pendant))
        if verify_kite(g, f.roots, kite):
            return kite
    raise FlowerResolutionExhausted("every cycle of the flower cuts x2 off from x4")


def _direct_kite(g: Graph, roots: RootQuadruple) -> KiteSubdivision | None:
    """The four-edge kite, present in dense graphs most of the time."""
    x1, x2, x3, x4 = roots.as_tuple()
    if (
        g.has_edge(x1, x2)
        and g.has_edge(x2, x3)
        and g.has_edge(x3, x1)
        and g.has_edge(x2, x4)
    ):
        return KiteSubdivision.from_parts(Cycle((x1, x2, x3)), Path((x2, x4)))
    return None


def _fingerprint(g: Graph, roots: RootQuadruple) -> str:
    return f"n={g.n} m={g.m} roots={','.join(map(str, roots.as_tuple()))}"


def assemble(g: Graph, tf: TerminalFan, af: ApexFan, l: Path) -> tuple[str, KiteSubdivision]:
    """Run the claim chain on any x1-x3 path l disjoint from some x2-x4 path.

    Returns the assembly path taken and its kite: claim1 when l misses
    p, else crossing, claim2, claim3 or flower, the first that applies.
    Each stage builds from the fans, l and the pieces before it, with no
    search; one that cannot proceed raises a StageFailure.
    """
    if not (set(l.vertices) & set(af.p.vertices)):
        return "claim1", claim1_assembly(g, tf, af.p, l)
    kite = crossing_assembly(g, tf, af, l)
    if kite is not None:
        return "crossing", kite
    lm = compute_landmarks(l, tf, af)
    kite = claim2_assembly(g, tf, af, lm)
    if kite is not None:
        return "claim2", kite
    kite = claim3_assembly(g, tf, af, lm)
    if kite is not None:
        return "claim3", kite
    flower = build_flower(g, tf, af, lm)
    return "flower", resolve_flower(g, flower)


def _pipeline(
    g: Graph, roots: RootQuadruple, options: FindKiteOptions
) -> tuple[str, KiteSubdivision]:
    tf = terminal_fan(g, roots)
    if tf is None:
        raise NoSevenFan("no 7-fan from x2 splitting 3/3/1 over x1, x3, x4")
    af = apex_fan(g, tf)
    link = two_linkage(g, roots.x1, roots.x3, roots.x2, roots.x4, options.budget)
    if link is None:
        raise AssemblyFailed("no disjoint linkage for (x1-x3, x2-x4)")
    path, kite = assemble(g, tf, af, link.l)
    # The crossing assembly closes a claim 1 cycle, and stages name claims.
    return ("claim1" if path == "crossing" else path), kite


def find_kite(
    g: Graph, roots: RootQuadruple, options: FindKiteOptions | None = None
) -> FindKiteResult:
    """Find a kite subdivision rooted at the given four vertices.

    On 7-connected inputs this always succeeds; the result records which
    stage produced the kite, and any stage failures that forced the
    exhaustive fallback are carried along as diagnostics.
    """
    if options is None:
        options = FindKiteOptions()
    if not roots.in_range(g.n):
        raise PreconditionViolated(f"roots {roots.as_tuple()} outside graph")
    if options.verify_connectivity and not has_connectivity_at_least(g, 7):
        raise NotSevenConnected(f"connectivity {vertex_connectivity(g).k} < 7")
    if options.try_direct:
        kite = _direct_kite(g, roots)
        if kite is not None:
            return FindKiteResult(roots, kite, "direct")
    try:
        stage, kite = _pipeline(g, roots, options)
        return FindKiteResult(roots, kite, stage)
    except StageFailure as exc:
        if not options.allow_fallback:
            raise
        diagnostic = DiagnosticRecord(exc.stage, str(exc), _fingerprint(g, roots))
    try:
        kite = find_kite_exhaustive(g, roots, SearchBudget(options.budget))
    except BudgetExceeded as exc:
        raise ConstructionFailed(f"fallback budget exhausted: {exc}", exhausted=True) from exc
    if kite is None:
        raise ConstructionFailed("no rooted kite exists for these roots")
    verdict = verify_kite(g, roots, kite)
    if not verdict:
        raise InvariantViolation(f"fallback kite rejected: {verdict.reason}")
    return FindKiteResult(roots, kite, "fallback", (diagnostic,))
