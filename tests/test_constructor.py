"""Tests for the staged kite construction pipeline.

Hand-laid fan/linkage fixtures pin every path down for the single
assemblies.  Real hosts reach every stage through `assemble`: sparse
circulants with pinned or seeded random linkage paths drive claim3 and
flower, and the find_kite tests run the whole pipeline.
"""

import hashlib
import itertools
import random
import sys
import threading
from collections import Counter

import pytest

from kitelink import constructor
from kitelink.constructor import (
    ApexFan,
    FindKiteOptions,
    apex_fan,
    assemble,
    build_flower,
    claim1_assembly,
    claim2_assembly,
    claim3_assembly,
    compute_landmarks,
    crossing_assembly,
    find_kite,
    oriented_terminal_fan,
    resolve_flower,
)
from kitelink.errors import (
    ConstructionFailed,
    FlowerInvalid,
    FlowerResolutionExhausted,
    InvariantViolation,
    NoSevenFan,
    NotSevenConnected,
    OrderingViolated,
    PreconditionViolated,
    StageFailure,
)
from kitelink.fans import (
    TerminalFan,
    has_connectivity_at_least,
    terminal_fan,
    vertex_connectivity,
)
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph, connected_avoiding, shortest_avoiding
from kitelink.oracle import find_kite_exhaustive
from kitelink.paths import Path
from kitelink.structures import Flower, RootQuadruple, Verdict, verify_flower, verify_kite

from bruteforce import circulant, rooted_kite_exists


def _graph_from_parts(n, paths, extras=()):
    edges = set()
    for pth in paths:
        for a, b in pth.edges():
            edges.add((min(a, b), max(a, b)))
    for a, b in extras:
        edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def _two_sided_fixture():
    """Fans whose landing arms hit two different Q-paths.

    Roots are x1=0, x2=1, x3=2, x4=3.  Landing arms reach 4 (on Q1) and
    5 (on Q2); the third lands on x1.  The extra edges carry the linkage
    variants the tests walk.
    """
    q = (Path((1, 4, 0)), Path((1, 5, 0)), Path((1, 6, 0)))
    r = (Path((1, 7, 2)), Path((1, 8, 2)), Path((1, 9, 2)))
    s = Path((1, 10, 3))
    w1, w2, w3 = Path((3, 11, 4)), Path((3, 12, 5)), Path((3, 13, 0))
    tf = TerminalFan(1, q, r, s)
    af = ApexFan(s.reverse(), ((w1, 4), (w2, 5), (w3, 0)), "kept")
    extras = [(0, 6), (6, 10), (10, 7), (0, 11), (11, 10), (6, 8), (11, 8), (0, 2)]
    g = _graph_from_parts(14, (*q, *r, s, w1, w2, w3), extras)
    return g, tf, af


def _one_sided_fixture():
    """Fans whose landing arms all hit the same Q-path.

    Q1 = (1,4,5,0) receives both interior landings (4 and 5, in that
    order from x2); the third arm lands on x1.  The extra edges let the
    linkage pick its last fan contact at 6 (another Q-path), 5 or 4 (on
    Q1), or 13 / 12 (inside a landing arm).
    """
    q = (Path((1, 4, 5, 0)), Path((1, 6, 0)), Path((1, 7, 0)))
    r = (Path((1, 8, 2)), Path((1, 9, 2)), Path((1, 10, 2)))
    s = Path((1, 11, 3))
    w1, w2, w3 = Path((3, 12, 4)), Path((3, 13, 5)), Path((3, 14, 0))
    tf = TerminalFan(1, q, r, s)
    af = ApexFan(s.reverse(), ((w1, 4), (w2, 5), (w3, 0)), "kept")
    extras = [
        (0, 6), (6, 11), (11, 8),
        (5, 11),
        (0, 13), (13, 11),
        (0, 4), (4, 11),
        (0, 12), (12, 11),
    ]
    g = _graph_from_parts(15, (*q, *r, s, w1, w2, w3), extras)
    return g, tf, af


def _late_p_contact_fixture():
    """One-sided fans with a two-vertex apex arm interior.

    The linkage leaves the apex arm at 11 but touches it again later at
    15, which forces the x3 spoke of the flower to ride along the apex
    arm back to the departure vertex.
    """
    q = (Path((1, 4, 5, 0)), Path((1, 6, 0)), Path((1, 7, 0)))
    r = (Path((1, 8, 2)), Path((1, 9, 2)), Path((1, 10, 2)))
    s = Path((1, 15, 11, 3))
    w1, w2, w3 = Path((3, 12, 4)), Path((3, 13, 5)), Path((3, 14, 0))
    tf = TerminalFan(1, q, r, s)
    af = ApexFan(s.reverse(), ((w1, 4), (w2, 5), (w3, 0)), "kept")
    extras = [(0, 4), (4, 11), (15, 8)]
    g = _graph_from_parts(16, (*q, *r, s, w1, w2, w3), extras)
    return g, tf, af


BARE_FLOWER = Flower(
    roots=RootQuadruple(2, 4, 6, 5),
    c1=(2, 4, 0),
    c2=(6, 4, 8),
    c3=(1, 3, 7, 5),
    p1=(2, 1),
    p2=(4, 3),
    p3=(6, 7),
    v1=1,
    v2=3,
    v3=7,
)


def _bare_flower_graph(extras=()):
    edges = set()
    for part in (BARE_FLOWER.c1, BARE_FLOWER.c2, BARE_FLOWER.c3):
        for i in range(len(part)):
            a, b = part[i], part[(i + 1) % len(part)]
            edges.add((min(a, b), max(a, b)))
    for part in (BARE_FLOWER.p1, BARE_FLOWER.p2, BARE_FLOWER.p3):
        for a, b in zip(part, part[1:]):
            edges.add((min(a, b), max(a, b)))
    for a, b in extras:
        edges.add((min(a, b), max(a, b)))
    return Graph(9, sorted(edges))


# ---------------------------------------------------------------- apex fan


def test_apex_fan_invariants_on_dense_hosts():
    cases = [(gen_complete_minus_matching(8, 0), 8), (gen_complete_minus_matching(9, 4), 9)]
    for g, n in cases:
        for quad in itertools.islice(itertools.permutations(range(n), 4), 0, 120, 7):
            tf = terminal_fan(g, RootQuadruple(*quad))
            assert tf is not None
            af = apex_fan(g, tf)
            tf_o = oriented_terminal_fan(tf, af)
            assert af.p.first == tf.x4 and af.p.last == tf.hub
            assert len(af.landings) >= 3
            ws = af.landing_vertices()
            assert len(set(ws)) == len(ws)
            qverts = set()
            for arm in tf_o.q:
                qverts.update(arm.vertices)
            assert all(w in qverts for w in ws)
            assert sum(1 for w in ws if w not in (tf_o.x1, tf.hub)) >= 2
            seen = set()
            for arm in af.arms():
                inner = set(arm.vertices) - {tf.x4}
                assert not (inner & seen)
                seen |= inner


def test_apex_fan_swapped_side_occurs_naturally():
    g = gen_complete_minus_matching(9, 1)
    tf = terminal_fan(g, RootQuadruple(2, 0, 1, 3))
    af = apex_fan(g, tf)
    assert af.side == "swapped"
    tf_o = oriented_terminal_fan(tf, af)
    assert (tf_o.x1, tf_o.x3) == (tf.x3, tf.x1)
    res = find_kite(g, RootQuadruple(2, 0, 1, 3), FindKiteOptions(try_direct=False))
    assert res.stage == "claim1" and res.diagnostics == ()
    assert verify_kite(g, RootQuadruple(2, 0, 1, 3), res.kite)


# ------------------------------------------------------------- landmarks


def test_compute_landmarks_positions():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 10, 7, 2)), tf, af)
    assert (lm.u, lm.uprime, lm.v, lm.w) == (6, 10, 10, 7)
    assert lm.r1_index == 0
    assert lm.t_path.vertices == (6, 10, 7, 2, 8, 1)


def test_compute_landmarks_accepts_reversed_linkage():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((2, 7, 10, 6, 0)), tf, af)
    assert lm.t_path.vertices == (6, 10, 7, 2, 8, 1)


def test_compute_landmarks_requires_apex_contact():
    g, tf, af = _two_sided_fixture()
    with pytest.raises(PreconditionViolated):
        compute_landmarks(Path((0, 6, 8, 2)), tf, af)


def test_compute_landmarks_rejects_fan_vertex_after_apex_contact():
    g, tf, af = _two_sided_fixture()
    # 6 (a Q-vertex) shows up after the only apex-arm contact at 10.
    with pytest.raises(OrderingViolated):
        compute_landmarks(Path((0, 10, 6, 8, 2)), tf, af)


def test_compute_landmarks_rejects_r_intrusion():
    g, tf, af = _two_sided_fixture()
    # 8 (an R-vertex) sits strictly between u=6 and the apex contact 10.
    with pytest.raises(OrderingViolated):
        compute_landmarks(Path((0, 6, 8, 10, 7, 2)), tf, af)


# ------------------------------------------------------ crossing assembly


def test_crossing_assembly_from_q_side():
    g, tf, af = _two_sided_fixture()
    kite = crossing_assembly(g, tf, af, Path((0, 6, 8, 2)))
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert set(kite.pendant) == {1, 10, 3}
    assert {0, 6, 8, 2}.issubset(set(kite.cycle))


def test_crossing_assembly_from_landing_arm():
    g, tf, af = _two_sided_fixture()
    kite = crossing_assembly(g, tf, af, Path((0, 11, 8, 2)))
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    # The cycle rides the landing arm from its landing at 4 up to 11.
    assert {4, 11, 8}.issubset(set(kite.cycle))


def test_crossing_assembly_direct_edge_between_corners():
    g, tf, af = _two_sided_fixture()
    kite = crossing_assembly(g, tf, af, Path((0, 2)))
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert set(kite.cycle) == {1, 4, 0, 2, 7}


def test_crossing_assembly_declines_orderly_linkage():
    g, tf, af = _two_sided_fixture()
    assert crossing_assembly(g, tf, af, Path((0, 6, 10, 7, 2))) is None


def test_assemblies_report_a_landing_off_the_fans_as_stage_failure():
    # A landing arm ending on R is an inconsistent apex fan.  Each
    # assembly must raise a StageFailure, which find_kite falls back
    # from, and never let a failed lookup escape as StopIteration.
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 10, 7, 2)), tf, af)
    bad = ApexFan(af.p, ((Path((3, 12, 8)), 8),) + af.landings[1:], "kept")
    assert issubclass(InvariantViolation, StageFailure)
    with pytest.raises(InvariantViolation):
        crossing_assembly(g, tf, bad, Path((0, 12, 8, 2)))
    for assembly in (claim2_assembly, claim3_assembly, build_flower):
        with pytest.raises(InvariantViolation):
            assembly(g, tf, bad, lm)


# ------------------------------------------------------- claim assemblies


def test_claim1_assembly_transition_stretch():
    g, tf, af = _two_sided_fixture()
    kite = claim1_assembly(g, tf, af.p, Path((0, 6, 8, 2)))
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert set(kite.cycle) == {1, 4, 0, 6, 8, 2, 7}
    assert kite.pendant == (1, 10, 3)


def test_claim1_assembly_direct_corner_edge():
    g, tf, af = _two_sided_fixture()
    kite = claim1_assembly(g, tf, af.p, Path((0, 2)))
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert set(kite.cycle) == {1, 4, 0, 2, 7}


def test_claim1_assembly_rejects_contact_with_apex_arm():
    g, tf, af = _two_sided_fixture()
    with pytest.raises(PreconditionViolated):
        claim1_assembly(g, tf, af.p, Path((0, 6, 10, 7, 2)))


def test_claim2_assembly_last_contact_on_q_path():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 10, 7, 2)), tf, af)
    kite = claim2_assembly(g, tf, af, lm)
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    # Pendant descends Q1 to the landing at 4 and rides its arm to x4.
    assert kite.pendant == (1, 4, 11, 3)
    assert set(kite.cycle) == {1, 5, 0, 6, 10, 7, 2, 8}


def test_claim2_assembly_last_contact_on_landing_arm():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 11, 10, 7, 2)), tf, af)
    kite = claim2_assembly(g, tf, af, lm)
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert kite.pendant == (1, 5, 12, 3)
    assert set(kite.cycle) == {1, 6, 0, 4, 11, 10, 7, 2, 8}


def test_claim2_assembly_declines_single_sided_landings():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 11, 8, 2)), tf, af)
    assert claim2_assembly(g, tf, af, lm) is None


def test_claim2_assembly_swapped_side_matches_kept():
    g, tf, af = _two_sided_fixture()
    link = Path((0, 6, 10, 7, 2))
    kept = claim2_assembly(g, tf, af, compute_landmarks(link, tf, af))
    tf_sw = tf.swap_sides()
    af_sw = ApexFan(af.p, af.landings, "swapped")
    swapped = claim2_assembly(g, tf_sw, af_sw, compute_landmarks(link, tf_sw, af_sw))
    assert kept == swapped


def test_claim3_assembly_last_contact_on_other_q_path():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 11, 8, 2)), tf, af)
    kite = claim3_assembly(g, tf, af, lm)
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert kite.pendant == (1, 4, 12, 3)
    assert set(kite.cycle) == {1, 7, 0, 6, 11, 8, 2, 9}


def test_claim3_assembly_landing_between_hub_and_contact():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 5, 11, 8, 2)), tf, af)
    kite = claim3_assembly(g, tf, af, lm)
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    # u=5 sits past the landing at 4, so that landing carries the pendant.
    assert kite.pendant == (1, 4, 12, 3)
    assert 5 in set(kite.cycle) and 4 not in set(kite.cycle)


def test_claim3_assembly_last_contact_on_far_landing_arm():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 13, 11, 8, 2)), tf, af)
    kite = claim3_assembly(g, tf, af, lm)
    assert kite is not None
    assert verify_kite(g, RootQuadruple(0, 1, 2, 3), kite)
    assert kite.pendant == (1, 4, 12, 3)
    assert {5, 13}.issubset(set(kite.cycle))


def test_claim3_assembly_declines_ordered_landings():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 4, 11, 8, 2)), tf, af)
    assert claim3_assembly(g, tf, af, lm) is None


def test_claim3_assembly_declines_contact_on_nearest_landing_arm():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 12, 11, 8, 2)), tf, af)
    assert claim3_assembly(g, tf, af, lm) is None


def test_claim3_assembly_requires_single_sided_landings():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 10, 7, 2)), tf, af)
    with pytest.raises(PreconditionViolated):
        claim3_assembly(g, tf, af, lm)


# ---------------------------------------------------------------- flower


def test_build_flower_contact_on_q1():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 4, 11, 8, 2)), tf, af)
    fl = build_flower(g, tf, af, lm)
    assert verify_flower(g, fl)
    assert fl.roots.as_tuple() == (0, 1, 2, 3)
    assert set(fl.c1) == {1, 6, 0, 7}
    assert set(fl.c2) == {1, 9, 2, 10}
    assert set(fl.c3) == {3, 13, 5, 4, 11}
    assert (fl.v1, fl.v2, fl.v3) == (5, 4, 11)
    assert set(fl.p3) == {2, 8, 11}


def test_build_flower_contact_on_nearest_landing_arm():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 12, 11, 8, 2)), tf, af)
    fl = build_flower(g, tf, af, lm)
    assert verify_flower(g, fl)
    # The x2 spoke now stops at the landing 4; the arm interior 12 joins c3.
    assert fl.v2 == 4
    assert set(fl.c3) == {3, 13, 5, 4, 12, 11}


def test_build_flower_late_apex_contact_extends_x3_spoke():
    g, tf, af = _late_p_contact_fixture()
    lm = compute_landmarks(Path((0, 4, 11, 15, 8, 2)), tf, af)
    assert (lm.u, lm.uprime, lm.v) == (4, 11, 15)
    fl = build_flower(g, tf, af, lm)
    assert verify_flower(g, fl)
    # v3 is the departure vertex on the apex arm, not the return contact.
    assert fl.v3 == 11
    assert set(fl.p3) == {2, 8, 15, 11}


def test_build_flower_swapped_side_restores_input_roles():
    g, tf, af = _one_sided_fixture()
    tf_sw = tf.swap_sides()
    af_sw = ApexFan(af.p, af.landings, "swapped")
    lm = compute_landmarks(Path((0, 4, 11, 8, 2)), tf_sw, af_sw)
    fl = build_flower(g, tf_sw, af_sw, lm)
    assert verify_flower(g, fl)
    assert fl.roots.as_tuple() == (2, 1, 0, 3)
    assert set(fl.c1) == {1, 9, 2, 10}
    assert (fl.v1, fl.v3) == (11, 5)


def test_build_flower_rejects_two_sided_landings():
    g, tf, af = _two_sided_fixture()
    lm = compute_landmarks(Path((0, 6, 10, 7, 2)), tf, af)
    with pytest.raises(FlowerInvalid):
        build_flower(g, tf, af, lm)


def test_build_flower_rejects_landing_before_contact():
    g, tf, af = _one_sided_fixture()
    lm = compute_landmarks(Path((0, 5, 11, 8, 2)), tf, af)
    with pytest.raises(FlowerInvalid):
        build_flower(g, tf, af, lm)


def test_resolve_flower_finds_kite_on_dense_host():
    g = gen_complete_minus_matching(9, 2)
    kite = resolve_flower(g, BARE_FLOWER)
    assert verify_kite(g, BARE_FLOWER.roots, kite)


def test_resolve_flower_exhausts_when_host_has_no_kite():
    g = _bare_flower_graph()
    assert verify_flower(g, BARE_FLOWER)
    with pytest.raises(FlowerResolutionExhausted):
        resolve_flower(g, BARE_FLOWER)
    # Independent confirmation that the host really has no rooted kite.
    assert find_kite_exhaustive(g, BARE_FLOWER.roots) is None
    assert not rooted_kite_exists(g, BARE_FLOWER.roots)


def test_resolve_flower_rejects_broken_flower():
    g = _bare_flower_graph()
    broken = Flower(
        roots=BARE_FLOWER.roots,
        c1=BARE_FLOWER.c1,
        c2=BARE_FLOWER.c2,
        c3=BARE_FLOWER.c3,
        p1=BARE_FLOWER.p1,
        p2=BARE_FLOWER.p2,
        p3=(6, 3),
        v1=BARE_FLOWER.v1,
        v2=BARE_FLOWER.v2,
        v3=3,
    )
    with pytest.raises(PreconditionViolated):
        resolve_flower(g, broken)


# ----------------------------------------------------------- find_kite


def test_find_kite_direct_stage_on_complete_graph():
    g = gen_complete_minus_matching(8, 0)
    res = find_kite(g, RootQuadruple(0, 1, 2, 3))
    assert res.stage == "direct"
    assert verify_kite(g, res.roots, res.kite)
    assert len(res.kite.cycle) == 3 and len(res.kite.pendant) == 2


def test_find_kite_pipeline_stage_on_complete_graph():
    g = gen_complete_minus_matching(8, 0)
    res = find_kite(g, RootQuadruple(0, 1, 2, 3), FindKiteOptions(try_direct=False))
    assert res.stage == "claim1"
    assert res.diagnostics == ()
    assert verify_kite(g, res.roots, res.kite)


def test_find_kite_regression_formerly_unordered_instance():
    # This quadruple used to abort on landmark ordering and fall back;
    # the crossing stretch now assembles it constructively.
    g = gen_complete_minus_matching(9, 1)
    res = find_kite(g, RootQuadruple(2, 0, 5, 1), FindKiteOptions(try_direct=False))
    assert res.stage == "claim1"
    assert res.diagnostics == ()
    assert verify_kite(g, res.roots, res.kite)


def test_find_kite_reaches_claim2_on_matching_family():
    g = gen_complete_minus_matching(9, 2)
    res = find_kite(g, RootQuadruple(2, 0, 3, 1), FindKiteOptions(try_direct=False))
    assert res.stage == "claim2"
    assert res.diagnostics == ()
    assert verify_kite(g, res.roots, res.kite)


def test_find_kite_rejects_roots_outside_graph():
    g = gen_complete_minus_matching(8, 0)
    with pytest.raises(PreconditionViolated):
        find_kite(g, RootQuadruple(0, 1, 2, 9))


def test_find_kite_connectivity_gate():
    ring = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    with pytest.raises(NotSevenConnected):
        find_kite(ring, RootQuadruple(0, 1, 2, 3), FindKiteOptions(verify_connectivity=True))


def test_find_kite_falls_back_when_no_fan_exists():
    g = _bare_flower_graph(extras=[(7, 2)])
    res = find_kite(g, RootQuadruple(2, 4, 6, 5), FindKiteOptions(try_direct=False))
    assert res.stage == "fallback"
    assert verify_kite(g, res.roots, res.kite)
    assert len(res.diagnostics) == 1
    assert "7-fan" in res.diagnostics[0].reason
    assert "n=9" in res.diagnostics[0].instance


def test_find_kite_fallback_disabled_reraises_stage_failure():
    g = _bare_flower_graph(extras=[(7, 2)])
    opts = FindKiteOptions(try_direct=False, allow_fallback=False)
    with pytest.raises(NoSevenFan):
        find_kite(g, RootQuadruple(2, 4, 6, 5), opts)


def test_find_kite_reports_nonexistence():
    g = _bare_flower_graph()
    with pytest.raises(ConstructionFailed) as exc:
        find_kite(g, RootQuadruple(2, 4, 6, 5), FindKiteOptions(try_direct=False))
    assert exc.value.exhausted is False


def test_find_kite_reports_spent_budget():
    g = _bare_flower_graph()
    opts = FindKiteOptions(try_direct=False, budget=1)
    with pytest.raises(ConstructionFailed) as exc:
        find_kite(g, RootQuadruple(2, 4, 6, 5), opts)
    assert exc.value.exhausted is True


def test_find_kite_options_reject_nonpositive_budget():
    for budget in (0, -1):
        with pytest.raises(PreconditionViolated):
            FindKiteOptions(budget=budget)


def test_find_kite_verifies_a_pipeline_kite_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_kite(*args)

    monkeypatch.setattr(constructor, "verify_kite", counting)
    g = gen_random_kconnected(14, 7, 3)
    res = find_kite(g, RootQuadruple(0, 1, 2, 3), FindKiteOptions(try_direct=False))
    assert res.stage != "fallback"
    assert len(calls) == 1


def test_find_kite_falls_back_when_the_verifier_rejects_a_pipeline_kite(monkeypatch):
    calls = []

    def rejecting_first(*args):
        calls.append(args)
        return Verdict(False, "rejected for the test") if len(calls) == 1 else verify_kite(*args)

    monkeypatch.setattr(constructor, "verify_kite", rejecting_first)
    g = gen_random_kconnected(14, 7, 3)
    roots = RootQuadruple(0, 1, 2, 3)
    res = find_kite(g, roots, FindKiteOptions(try_direct=False))
    assert res.stage == "fallback"
    assert [d.stage for d in res.diagnostics] == ["assembly"]
    assert "rejected for the test" in res.diagnostics[0].reason
    assert verify_kite(g, roots, res.kite)


def test_find_kite_on_former_flower_circulant_roots():
    # C26(1,2,3,4) is 8-connected, and these roots needed the flower
    # stage on the lowest-neighbour-first linkage path.  On the shortest
    # one they take claim1; flowers are now reached through assemble on
    # pinned and walked linkage paths (below).
    g = circulant(26, (1, 2, 3, 4))
    res = find_kite(g, RootQuadruple(23, 0, 17, 9))
    assert res.as_json() == {
        "roots": [23, 0, 17, 9],
        "cycle": [0, 1, 23, 19, 17, 13, 10, 6, 3],
        "pendant": [0, 2, 5, 9],
        "stage": "claim1",
    }


def test_find_kite_reaches_claim3_on_circulant():
    # Of the sampled root choices on sparse circulants, few reach claim3
    # on the shortest linkage path; these do.
    g = circulant(20, (1, 3, 5, 7))
    res = find_kite(g, RootQuadruple(19, 16, 8, 6), FindKiteOptions(try_direct=False))
    assert res.as_json() == {
        "roots": [19, 16, 8, 6],
        "cycle": [0, 1, 8, 9, 16, 19],
        "pendant": [16, 13, 6],
        "stage": "claim3",
    }


def _assembly_corpus():
    """Root choices over sparse circulants and K9 minus a 4-matching.

    30 seeded roots on each of C_n(1,2,3,4), C_n(1,2,4,7) and
    C_n(1,3,5,7) for n in {20, 26, 30}, with seed 2000 + n.  Then every
    third root choice on K9 minus a 4-matching, the roots that took
    claim3 and flower on the lowest-neighbour-first linkage path, and
    the claim3 instance above.
    """
    for n in (20, 26, 30):
        for offsets in ((1, 2, 3, 4), (1, 2, 4, 7), (1, 3, 5, 7)):
            g = circulant(n, offsets)
            rng = random.Random(2000 + n)
            for _ in range(30):
                yield g, RootQuadruple(*rng.sample(range(n), 4))
    g = gen_complete_minus_matching(9, 4)
    for quad in itertools.islice(itertools.permutations(range(9), 4), 0, None, 3):
        yield g, RootQuadruple(*quad)
    yield circulant(30, (1, 2, 4, 7)), RootQuadruple(9, 24, 19, 18)
    yield circulant(26, (1, 2, 3, 4)), RootQuadruple(23, 0, 17, 9)
    yield circulant(20, (1, 3, 5, 7)), RootQuadruple(19, 16, 8, 6)


def test_find_kite_assemblies_match_golden_digest(monkeypatch):
    # sha256 over repr((stage, kite)) of every root choice, and the
    # assembly path each took.
    taken = []

    def recording_assemble(*args):
        path, kite = assemble(*args)
        taken.append(path)
        return path, kite

    monkeypatch.setattr(constructor, "assemble", recording_assemble)
    opts = FindKiteOptions(try_direct=False)
    digest = hashlib.sha256()
    for g, roots in _assembly_corpus():
        res = find_kite(g, roots, opts)
        assert res.diagnostics == ()
        assert res.stage == ("claim1" if taken[-1] == "crossing" else taken[-1])
        digest.update(repr((res.stage, res.kite)).encode())
    assert Counter(taken) == {
        "claim1": 1265, "claim2": 15, "claim3": 1
    }
    assert digest.hexdigest() == (
        "2580cdbea35bb223031891e61ff438c56d01c7f0aeb907958816c30d6f641df8"
    )


# ------------------------------------------- assemble on given linkage paths


def _fans(g, roots):
    tf = terminal_fan(g, roots)
    return tf, apex_fan(g, tf)


@pytest.mark.parametrize(
    "n, offsets, roots, l, stage, cycle, pendant",
    [
        # Roots that took flower and claim3 through find_kite when
        # two_linkage grew its path lowest neighbour first, on that path.
        (
            26, (1, 2, 3, 4), (23, 0, 17, 9),
            (23, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 17),
            "flower", (0, 23, 1, 2, 3, 6, 10, 13, 17, 20, 24), (0, 4, 5, 9),
        ),
        (
            30, (1, 2, 4, 7), (9, 24, 19, 18),
            (9, 2, 0, 1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 19),
            "claim3", (5, 9, 8, 15, 16, 17, 19, 23, 24, 28), (24, 22, 18),
        ),
        # The lowest-neighbour-first search took about 2 s to find this
        # path; assemble needs well under a millisecond on it.
        (
            30, (1, 2, 4, 7), (28, 13, 12, 5),
            (28, 0, 1, 2, 3, 4, 6, 7, 8, 10, 11, 12),
            "claim3", (2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 20, 24, 28), (13, 9, 5),
        ),
    ],
)
def test_assemble_reaches_late_stages_on_pinned_linkage(
    n, offsets, roots, l, stage, cycle, pendant
):
    g = circulant(n, offsets)
    roots = RootQuadruple(*roots)
    path, kite = assemble(g, *_fans(g, roots), Path(l))
    assert path == stage
    assert (kite.cycle, kite.pendant) == (cycle, pendant)
    assert verify_kite(g, roots, kite)


def test_resolve_flower_on_hard_circulant_flower():
    # A verified flower whose kite the oracle finds at once, while a
    # kite search seeded by the flower's edges spends over a million
    # expansions on it.
    g = circulant(26, (1, 2, 3, 4))
    roots = RootQuadruple(8, 15, 10, 23)
    assert verify_kite(g, roots, find_kite_exhaustive(g, roots))
    tf, af = _fans(g, roots)
    l = Path((8, 4, 0, 25, 22, 21, 18, 19, 20, 16, 13, 14, 10))
    fl = build_flower(g, tf, af, compute_landmarks(l, tf, af))
    assert verify_flower(g, fl)
    assert verify_kite(g, roots, resolve_flower(g, fl))


# Flowers that real circulant hosts reach, as (host, roots, linkage
# path): the find_kite flower regression's, and two on which a kite
# search seeded by the flower's edges spends over a million expansions.
CIRCULANT_FLOWERS = [
    (
        26, (1, 2, 3, 4), (23, 0, 17, 9),
        (23, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 17),
    ),
    (
        26, (1, 2, 3, 4), (8, 15, 10, 23),
        (8, 4, 0, 25, 22, 21, 18, 19, 20, 16, 13, 14, 10),
    ),
    (
        30, (1, 2, 3, 4), (9, 16, 7, 1),
        (9, 5, 2, 28, 27, 23, 19, 18, 21, 25, 22, 26, 0, 29, 3, 6, 7),
    ),
]


@pytest.mark.parametrize("n, offsets, roots, l", CIRCULANT_FLOWERS)
def test_resolve_flower_runs_at_most_four_searches(monkeypatch, n, offsets, roots, l):
    g = circulant(n, offsets)
    roots = RootQuadruple(*roots)
    tf, af = _fans(g, roots)
    fl = build_flower(g, tf, af, compute_landmarks(Path(l), tf, af))
    searches = []

    def counting(*args):
        searches.append(args)
        return shortest_avoiding(*args)

    monkeypatch.setattr(constructor, "shortest_avoiding", counting)
    kite = resolve_flower(g, fl)
    assert 1 <= len(searches) <= 4
    assert verify_kite(g, roots, kite)


def test_resolve_flower_rejects_nonpositive_budget():
    g = gen_complete_minus_matching(9, 2)
    for budget in (0, -1):
        with pytest.raises(PreconditionViolated):
            resolve_flower(g, BARE_FLOWER, budget)


def _linkage_walk(g, roots, favoured, rng):
    """A random x1-x3 path that some x2-x4 path avoids, or None if stuck.

    Every step keeps x2 and x4 connected and x3 reachable; when a legal
    step lies in favoured it takes one with probability 0.8.
    """
    x1, x2, x3, x4 = roots.as_tuple()
    ends = 1 << x2 | 1 << x4
    used, vs = 1 << x1, [x1]
    while vs[-1] != x3:
        steps = [
            w
            for w in g.neighbors(vs[-1])
            if not (used | ends) >> w & 1
            and connected_avoiding(g, x2, x4, used | 1 << w)
            and connected_avoiding(g, w, x3, used | ends)
        ]
        if not steps:
            return None
        near = [w for w in steps if w in favoured]
        w = rng.choice(near if near and rng.random() < 0.8 else steps)
        used |= 1 << w
        vs.append(w)
    return Path(tuple(vs))


def _lands_on_one_q_path(tf, af):
    # Only then can the chain get past claim2 to claim3 or the flower.
    tf_o = oriented_terminal_fan(tf, af)
    ws = [w for w in af.landing_vertices() if w != tf_o.x1]
    return len({i for i, q in enumerate(tf_o.q) for w in ws if w in q}) == 1


def test_assemble_on_seeded_linkage_walks():
    # 90 seeded roots on each of nine sparse circulants; one walk per
    # root, and 30 per root whose landings sit on one Q-path.  A walk
    # that gets stuck is drawn again.  Walks prefer the apex fan's arms,
    # which is what pushes the chain past claim1.
    paths = Counter()
    digest = hashlib.sha256()
    for n in (20, 26, 30):
        for offsets in ((1, 2, 3, 4), (1, 2, 4, 7), (1, 3, 5, 7)):
            g = circulant(n, offsets)
            rng = random.Random(100 * n + offsets[-1])
            for _ in range(90):
                roots = RootQuadruple(*rng.sample(range(n), 4))
                tf, af = _fans(g, roots)
                favoured = {v for arm in af.arms() for v in arm.vertices}
                for _ in range(30 if _lands_on_one_q_path(tf, af) else 1):
                    while (l := _linkage_walk(g, roots, favoured, rng)) is None:
                        pass
                    path, kite = assemble(g, tf, af, l)
                    assert verify_kite(g, roots, kite)
                    paths[path] += 1
                    digest.update(repr((path, kite)).encode())
    assert paths["claim3"] >= 20 and paths["flower"] >= 20
    assert digest.hexdigest() == (
        "a462cdd1156ac700233545c4c0622e27b5708aa82e35500c3c21884b566d02f3"
    )


def test_find_kite_is_deterministic():
    g = gen_random_kconnected(12, 7, 5)
    a = find_kite(g, RootQuadruple(0, 1, 2, 3), FindKiteOptions(try_direct=False))
    b = find_kite(g, RootQuadruple(0, 1, 2, 3), FindKiteOptions(try_direct=False))
    assert a == b
    assert a.as_json() == b.as_json()


def test_find_kite_constructive_on_random_hosts():
    opts = FindKiteOptions(try_direct=False)
    for seed in range(8):
        n = 10 + seed % 5
        g = gen_random_kconnected(n, 7, seed)
        res = find_kite(g, RootQuadruple(0, 1, 2, 3), opts)
        assert res.stage in {"claim1", "claim2", "claim3", "flower"}
        assert res.diagnostics == ()
        assert verify_kite(g, res.roots, res.kite)


# ------------------------------------------------ the graph's shared network


def _sample_roots(n, seed, count):
    rng = random.Random(seed)
    return [RootQuadruple(*rng.sample(range(n), 4)) for _ in range(count)]


@pytest.mark.parametrize("warm_up", ["vertex_connectivity", "has_connectivity_at_least"])
def test_find_kite_ignores_earlier_queries_on_the_graph(warm_up):
    host = gen_random_kconnected(20, 7, 3)
    used, fresh = Graph(host.n, host.edges), Graph(host.n, host.edges)
    if warm_up == "vertex_connectivity":
        assert vertex_connectivity(used).k >= 7
    else:
        assert has_connectivity_at_least(used, 7)
    opts = FindKiteOptions(try_direct=False)
    for roots in _sample_roots(host.n, 3, 12):
        assert find_kite(used, roots, opts) == find_kite(fresh, roots, opts)
    assert used == fresh and hash(used) == hash(fresh)


def test_find_kite_threads_sharing_one_graph_match_serial_results():
    host = gen_random_kconnected(30, 7, 4)
    roots = _sample_roots(host.n, 4, 10)
    opts = FindKiteOptions(try_direct=False)
    serial = [find_kite(Graph(host.n, host.edges), r, opts) for r in roots]
    shared = Graph(host.n, host.edges)  # its network is built by the race
    results: dict[int, list] = {}

    def work(i):
        results[i] = [find_kite(shared, r, opts) for r in roots]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(i) for i in range(4)] == [serial] * 4
