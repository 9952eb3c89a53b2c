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
pendant by one breadth-first search.  find_kite takes L, the shortest
x1-x3 path in g minus {x2, x4} that two_linkage tries first.  When L
misses p, p is the disjoint x2-x4 path, so claim 1 runs on L with no
linkage search; otherwise two_linkage's search goes on from L and the
chain runs on the path it returns.  Every candidate is verified before
being returned; any stage failure falls back to exhaustive search and
is recorded as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    NoTerminalFan,
    NotSevenConnected,
    OrderingViolated,
    PreconditionViolated,
    SegmentsNotChainable,
    StageFailure,
    VertexNotOnPath,
    check_budget,
)
from .fans import (
    TerminalFan,
    _grow_fan,
    has_connectivity_at_least,
    terminal_fan,
    vertex_connectivity,
)
from .graphs import Graph, shortest_avoiding, vertex_mask
from .linkage import _linkage_from
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
        check_budget(self.budget)


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
    side is the Q side.  None of those landings is x2 and at most one is
    x1, so at least two lie clear of both.  This is _apex_arms followed
    by _apex_landings; find_kite runs the second only when its path L
    meets p, since claim 1 reads p alone.
    """
    arms, p = _apex_arms(g, tf)
    return ApexFan(p, *_apex_landings(tf, arms))


def _apex_arms(g: Graph, tf: TerminalFan) -> tuple[list[Sequence[int]], Path]:
    """The seven arms of the apex fan as vertex lists, and p."""
    # The base arm is the terminal fan's own x4 arm, which its flow made
    # a valid one-arm fan into V(Q) + V(R), so it is not checked again.
    targets = 0
    for arm in tf.q + tf.r:
        targets |= vertex_mask(arm.vertices)
    arms = _grow_fan(g, tf.x4, targets, [tf.s.vertices[::-1]], 7)
    if arms is None:
        raise NoSevenFan(f"no 7-fan from x4={tf.x4} into the terminal fan")
    p = next((arm for arm in arms if arm[-1] == tf.hub), None)
    if p is None:
        raise InvariantViolation("apex fan extension lost the x2 arm")
    return arms, Path(p)


def _apex_landings(
    tf: TerminalFan, arms: list[Sequence[int]]
) -> tuple[tuple[tuple[Path, int], ...], str]:
    """The apex fan's landings in ApexFan's order, and its side."""
    others = [arm for arm in arms if arm[-1] != tf.hub]
    qidx = _arm_indices(tf.q)
    qside = [arm for arm in others if arm[-1] in qidx]
    side, tf_o = "kept", tf
    if len(qside) < 3:
        side, tf_o = "swapped", tf.swap_sides()
        qside = [arm for arm in others if arm[-1] not in qidx]
        qidx = _arm_indices(tf_o.q)

    def landing_key(arm: Sequence[int]):
        # By Q-path, then nearest x2 first; x1 sorts last.  Landings are
        # distinct, so no two keys tie.
        w = arm[-1]
        idx = _tail(tf_o.q, qidx, tf_o.x1, w)[0]
        if idx is None:
            return (3, 0)
        return (idx, tf_o.q[idx].index(w))

    ordered = sorted(qside, key=landing_key)
    return tuple((Path(arm), arm[-1]) for arm in ordered), side


def _other(*taken: int | None) -> int:
    """The lowest arm index of a bundle that is not taken."""
    return min({0, 1, 2}.difference(taken))


def _arm_indices(bundle) -> dict[int, int]:
    """Each vertex of the arms mapped to the index of the first arm
    through it.  Arms of a bundle share only the hub and their far end,
    the root, so the arm is unique off those two."""
    return {v: idx for idx in reversed(range(len(bundle))) for v in bundle[idx].vertices}


def _arm_maps(tf_o: TerminalFan, af: ApexFan):
    """The arm-index maps of the Q-paths, the R-paths and the landing
    arms."""
    return (
        _arm_indices(tf_o.q),
        _arm_indices(tf_o.r),
        _arm_indices([arm for arm, _ in af.landings]),
    )


def _tail(bundle: tuple[Path, ...], arms: dict[int, int], root: int, a: int):
    """The index of the first bundle arm through a and the stem a -> root
    down it: the R stem b -> x3, and read backwards the Q stem x1 -> a.
    None and (root,) when a is the root, which every arm reaches."""
    if a == root:
        return None, (root,)
    idx = arms.get(a)
    if idx is None:
        raise InvariantViolation(f"{a} is on no arm ending at {root}")
    arm = bundle[idx].vertices
    return idx, arm[arm.index(a) :]


def _q_stem(tf_o: TerminalFan, af: ApexFan, qidx: dict[int, int], widx: dict[int, int], a: int):
    """The stem x1 -> a for a on a Q-path or a landing arm, the index of
    the Q-path it climbs (None when that is x1 alone) and the vertex
    where it leaves Q.

    Off Q, the stem runs up the Q-path to where a's landing arm ends,
    then back out along the arm.  That end is read off the arm, not off
    the landing ApexFan declares for it.
    """
    if a in qidx:
        landing, out = a, ()
    elif a in widx:
        arm = af.landings[widx[a]][0].vertices
        landing, out = arm[-1], arm[arm.index(a) : -1][::-1]
    else:
        raise InvariantViolation(f"{a} is on no landing arm")
    idx, up = _tail(tf_o.q, qidx, tf_o.x1, landing)
    return idx, landing, up[::-1] + out


def _landing_frame(tf: TerminalFan, af: ApexFan):
    """The oriented terminal fan, the arm-index maps of its Q-paths and
    of the landing arms, the landings away from x1 tagged with the index
    of their Q-path, and the sorted indices of those paths."""
    tf_o = oriented_terminal_fan(tf, af)
    qidx, _, widx = _arm_maps(tf_o, af)
    tagged = [(arm, w, _tail(tf_o.q, qidx, tf_o.x1, w)[0]) for arm, w in af.landings]
    interior = [t for t in tagged if t[2] is not None]
    return tf_o, qidx, widx, interior, sorted({idx for _, _, idx in interior})


def _one_q_path(tf: TerminalFan, af: ApexFan, refusal: Exception):
    """_landing_frame's fan and maps, Q1 and the other two Q-paths, for
    the one-sided case where every landing away from x1 is on Q1; raises
    refusal when the landings span some other number of Q-paths."""
    tf_o, qidx, widx, _, spanned = _landing_frame(tf, af)
    if len(spanned) != 1:
        raise refusal
    rest = [q for i, q in enumerate(tf_o.q) if i != spanned[0]]
    return tf_o, qidx, widx, tf_o.q[spanned[0]], rest


def _landing_pendant(q: Path, arm: Path, w: int, x2: int, x4: int) -> Path | Cycle:
    """The pendant from x2 down the Q-path q to its landing w, then out
    along w's landing arm to x4.  x2 and x4 are the terminal fan's, not
    read off q and arm, so a broken arm fails the splice."""
    return concat_paths([subpath(q, x2, w), subpath(arm, w, x4)])


def _linkage_frame(tf: TerminalFan, af: ApexFan, l: Path):
    """The oriented terminal fan, l's vertices from x1, the arm-index
    maps of the Q-paths, the R-paths and the landing arms, and p's
    vertex set."""
    tf_o = oriented_terminal_fan(tf, af)
    if {l.first, l.last} != {tf_o.x1, tf_o.x3}:
        raise PreconditionViolated("linkage path must join x1 and x3")
    vs = l.vertices if l.first == tf_o.x1 else l.vertices[::-1]
    return tf_o, vs, *_arm_maps(tf_o, af), set(af.p.vertices)


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
    tf_o, vs, qidx, ridx, widx, pset = _linkage_frame(tf, af, l)
    # One walk from x1, which is on Q: i is the last index on Q or a
    # landing arm, and clear says no R- or P-vertex has come since.
    i, clear = 0, True
    for j in range(1, len(vs)):
        v = vs[j]
        if clear and v in ridx:
            break
        if v in qidx or v in widx:
            i, clear = j, True
        elif v in ridx or v in pset:
            clear = False
    else:
        return None
    # A spare Q-path x2 -> x1, the stem x1 -> a, the stretch a -> b, the
    # stem b -> x3 and a spare R-path back to x2 close the cycle.  The
    # pieces are vertex tuples that meet where the arms do, so one Cycle
    # checks the rest.
    q_idx, _, stem = _q_stem(tf_o, af, qidx, widx, vs[i])
    r_idx, r_stem = _tail(tf_o.r, ridx, tf_o.x3, vs[j])
    try:
        cycle = Cycle(
            tf_o.q[_other(q_idx)].vertices
            + stem[1:]
            + vs[i + 1 : j]
            + r_stem
            + tf_o.r[_other(r_idx)].vertices[-2:0:-1]
        )
    except InvalidCycle as exc:
        raise AssemblyFailed(f"crossing pieces overlap: {exc}") from exc
    return _checked(g, tf_o, cycle, af.p.reverse(), "crossing")


def compute_landmarks(l: Path, tf: TerminalFan, af: ApexFan) -> Landmarks:
    """Locate u, uprime, v, w on the linkage path and build T.

    Raises OrderingViolated when the landmarks refuse to line up the way
    the structural argument promises; the caller treats that as a stage
    failure and falls back.
    """
    tf_o, vs, qidx, ridx, widx, pset = _linkage_frame(tf, af, l)
    if pset.isdisjoint(vs):
        raise PreconditionViolated("linkage path misses the apex arm; use claim1_assembly")
    iu = max(i for i, v in enumerate(vs) if v in qidx or v in widx)
    phits = [i for i, v in enumerate(vs) if v in pset]
    after = [i for i in phits if i > iu]
    if not after:
        raise OrderingViolated("the apex arm meets L only before u")
    iuprime, iv = after[0], phits[-1]
    rhits = [i for i in range(iv + 1, len(vs)) if vs[i] in ridx]
    if not rhits:
        raise OrderingViolated("no R-vertex after v on L")
    iw = rhits[0]  # so u < u' <= v < w, u' and v being P-hits past u
    if any(vs[i] in ridx for i in range(iu + 1, iuprime)):
        raise OrderingViolated("an R-vertex intrudes into L[u, u']")
    w = vs[iw]
    r1_index, r_stem = _tail(tf_o.r, ridx, tf_o.x3, w)
    if r1_index is None:  # w = x3 ends every R-path; the first serves as R1
        r1_index = 0
    try:
        t_path = concat_paths(
            [
                Path(vs[iu : iuprime + 1]),
                subpath(af.p, vs[iuprime], vs[iv]),
                Path(vs[iv : iw + 1]),
                Path(r_stem),
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

    This is the crossing assembly with no landing arms, which assemble
    runs on an apex fan cut down to p.  Walking pprime from x1, the
    stretch between its last Q-vertex before the first R-vertex and that
    R-vertex crosses from the Q side to the R side while dodging both;
    closing it through unused fan arms gives the cycle, and p (reversed)
    is the pendant.
    """
    if set(p.vertices) & set(pprime.vertices):
        raise PreconditionViolated("bypass path touches the pendant arm")
    return assemble(g, tf, ApexFan(p, (), "kept"), pprime)[1]


def claim2_assembly(
    g: Graph, tf: TerminalFan, af: ApexFan, lm: Landmarks
) -> KiteSubdivision | None:
    """Assembly for landings on at least two distinct Q-paths.

    None means the hypothesis fails (all interior landings share one
    Q-path) and the next case should run.
    """
    tf_o, qidx, widx, interior, spanned = _landing_frame(tf, af)
    if len(spanned) < 2:
        return None
    try:
        u_idx, _, stem = _q_stem(tf_o, af, qidx, widx, lm.u)
        l_idx = next(i for i in spanned if i != u_idx)
        cycle = concat_paths([tf_o.q[_other(l_idx, u_idx)], Path(stem), lm.t_path])
        arm_l, w_l, _ = next(t for t in interior if t[2] == l_idx)
        pendant = _landing_pendant(tf_o.q[l_idx], arm_l, w_l, tf_o.hub, tf_o.x4)
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
    tf_o, qidx, widx, q1, rest = _one_q_path(
        tf, af, PreconditionViolated("claim3 expects all interior landings on one Q-path")
    )
    try:
        ws = af.landings
        arm1, w1 = ws[0]
        u = lm.u
        pendant = _landing_pendant(q1, arm1, w1, tf_o.hub, tf_o.x4)
        _, landing, stem = _q_stem(tf_o, af, qidx, widx, u)
        closing = rest[1]
        if u in q1:
            if all(q1.index(w) >= q1.index(u) for _, w in ws):
                return None
        elif any(u in q for q in rest):
            closing = next(q for q in rest if u not in q)
        elif landing == w1:
            return None
        cycle = concat_paths([closing, Path(stem), lm.t_path])
    except _SPLICE_ERRORS as exc:
        raise AssemblyFailed(f"claim3 pieces overlap: {exc}") from exc
    return _checked(g, tf_o, cycle, pendant, "claim3")


def build_flower(g: Graph, tf: TerminalFan, af: ApexFan, lm: Landmarks) -> Flower:
    """Assemble the flower once every direct case has declined.

    Preconditions inherited from the declined cases: all landings on one
    Q-path, ordered away from x2 beyond u (or beyond u's own landing
    when u sits on the W-arm landing nearest x2).
    """
    tf_o, _, _, q1, rest = _one_q_path(
        tf, af, FlowerInvalid("landings spread over several Q-paths")
    )
    if len(af.landings) < 2:
        raise FlowerInvalid("the flower needs two landings on Q1")
    x1, x2, x3, x4 = tf_o.x1, tf_o.hub, tf_o.x3, tf_o.x4
    r1 = tf_o.r[lm.r1_index]
    rrest = [tf_o.r[i] for i in range(3) if i != lm.r1_index]
    u, uprime, v, w = lm.u, lm.uprime, lm.v, lm.w
    p = af.p
    try:
        (arm1, w1), (arm2, w2) = af.landings[0], af.landings[1]
        c1 = concat_paths([rest[0], rest[1].reverse()])
        c2 = concat_paths([rrest[0], rrest[1].reverse()])
        seg_l = subpath(lm.t_path, u, uprime)
        # c3 runs x4 down arm2 to w2, along Q1 to v2, on to u, along L
        # to u' and back along P to x4; v2 is u, or w1 when u is on w1's arm.
        if u in q1:
            if q1.index(w1) < q1.index(u):
                raise FlowerInvalid("a landing sits between x2 and u; claim3 applies")
            v2, to_u = u, q1
        else:
            if u not in arm1:
                raise FlowerInvalid("u is off Q1 and off the nearest-landing arm")
            v2, to_u = w1, arm1
        x4_to_u = [subpath(arm2, x4, w2), subpath(q1, w2, v2), subpath(to_u, v2, u)]
        c3 = concat_paths(x4_to_u + [seg_l, subpath(p, uprime, x4)])
        p2 = subpath(q1, x2, v2)
        p1, v1 = subpath(q1, x1, w2), w2
        # p3 climbs P from v to u' when v lies past u' on P.
        v3 = v if p.index(v) <= p.index(uprime) else uprime
        p3 = concat_paths([subpath(r1, x3, w), subpath(lm.t_path, w, v), subpath(p, v, v3)])
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
    check_budget(budget)
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
    search; one that cannot proceed raises a StageFailure.  An apex fan
    with no landings is one cut down to p; find_kite and claim1_assembly
    pass one for an l they have found clear of p, so l is not tested
    again, and claim 1 is the only case run on it.
    """
    claim1 = not af.landings or set(l.vertices).isdisjoint(af.p.vertices)
    if claim1 and (af.landings or af.side != "kept"):
        af = ApexFan(af.p, (), "kept")
    kite = crossing_assembly(g, tf, af, l)
    if kite is not None:
        return ("claim1" if claim1 else "crossing"), kite
    if claim1:  # with no landings, only an l that meets p has no stretch
        raise PreconditionViolated("linkage path meets the apex arm, which has no landings")
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
    """The claim chain on the x1-x3 path two_linkage returns.

    That starts as L, the first path two_linkage tries.  When L misses
    p, p proves it, so two_linkage would return L and no more search is
    run; otherwise two_linkage's search goes on from L."""
    tf = terminal_fan(g, roots)
    if tf is None:
        raise NoTerminalFan("no 7-fan from x2 splitting 3/3/1 over x1, x3, x4")
    arms, p = _apex_arms(g, tf)
    x1, x2, x3, x4 = roots.as_tuple()
    first = shortest_avoiding(g, x1, x3, 1 << x2 | 1 << x4)
    if first is not None and set(p.vertices).isdisjoint(first):
        l, af = Path(first), ApexFan(p, (), "kept")  # claim 1 reads p alone
    else:
        link = None if first is None else _linkage_from(g, x1, x3, x2, x4, first, options.budget)
        if link is None:
            raise AssemblyFailed("no disjoint linkage for (x1-x3, x2-x4)")
        l, af = link.l, ApexFan(p, *_apex_landings(tf, arms))
    path, kite = assemble(g, tf, af, l)
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
