"""Root containers, kite/flower candidates, and their verifiers."""

from __future__ import annotations

import pytest

from kitelink.errors import MalformedLine, PreconditionViolated
from kitelink.generators import gen_complete_minus_matching
from kitelink.graphs import Graph
from kitelink.paths import Cycle, Path
from kitelink.structures import (
    Flower,
    KiteSubdivision,
    RootQuadruple,
    Verdict,
    kite_from_json,
    verify_flower,
    verify_kite,
)

K6 = gen_complete_minus_matching(6, 0)
ROOTS = RootQuadruple(0, 1, 2, 3)
GOOD = KiteSubdivision(cycle=(0, 1, 2), pendant=(1, 3))


def test_root_quadruple_validation():
    with pytest.raises(PreconditionViolated):
        RootQuadruple(0, 1, 2, 2)
    with pytest.raises(PreconditionViolated):
        RootQuadruple(-1, 1, 2, 3)
    assert ROOTS.as_tuple() == (0, 1, 2, 3)
    assert ROOTS.in_range(4) and not ROOTS.in_range(3)
    assert ROOTS.swapped() == RootQuadruple(2, 1, 0, 3)
    assert ROOTS.swapped().swapped() == ROOTS


def test_verdict_truthiness():
    assert Verdict(True)
    assert not Verdict(False, "because")
    assert Verdict(False, "because").reason == "because"


def test_kite_container_normalizes_cycle():
    a = KiteSubdivision(cycle=(2, 0, 1), pendant=(1, 3))
    assert a == GOOD
    assert a.vertices() == {0, 1, 2, 3}


def test_kite_json_roundtrip():
    obj = GOOD.as_json(ROOTS)
    rq, kite = kite_from_json(obj)
    assert rq == ROOTS and kite == GOOD
    for broken in (
        {"roots": [0, 1, 2], "cycle": [0, 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3], "cycle": [0, 1, 2]},
        {"cycle": [0, 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, "x"], "cycle": [0, 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3.9], "cycle": [0, 1, 2], "pendant": [1, 3]},
        {"roots": ["0", "1", "2", "3"], "cycle": [0, 1, 2], "pendant": [1, 3]},
        5,
        [0, 1, 2],
        {"roots": [0, 1, 2, 3], "cycle": None, "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3], "cycle": ["x", 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3], "cycle": [0, 1, 2], "pendant": [1, 3.5]},
        {"roots": [0, True, 2, 3], "cycle": [0, 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3], "cycle": [False, 1, 2], "pendant": [1, 3]},
        {"roots": [0, 1, 2, 3], "cycle": [0, 1, 2], "pendant": [True, 3]},
    ):
        with pytest.raises(MalformedLine):
            kite_from_json(broken)


def test_verify_kite_accepts_valid_kites():
    assert verify_kite(K6, ROOTS, GOOD)
    long = KiteSubdivision(cycle=(0, 4, 1, 2), pendant=(1, 5, 3))
    assert verify_kite(K6, ROOTS, long)
    # the verifier is symmetric in the x1/x3 corners
    assert verify_kite(K6, ROOTS.swapped(), GOOD)


def test_verify_kite_rejects_mutations():
    # pendant anchored at the wrong triangle corner
    wrong_role = KiteSubdivision(cycle=(0, 1, 2), pendant=(0, 3))
    assert "pendant starts at" in verify_kite(K6, ROOTS, wrong_role).reason
    # pendant re-enters the cycle interior
    shared = KiteSubdivision(cycle=(0, 1, 2, 4), pendant=(1, 4, 3))
    assert "touches cycle" in verify_kite(K6, ROOTS, shared).reason
    # non-edge on the cycle
    sparse = Graph(6, [(u, v) for u, v in K6.edges if (u, v) != (0, 1)])
    assert "missing edge" in verify_kite(sparse, ROOTS, GOOD).reason
    # pendant touches the cycle twice via its tip
    tip = KiteSubdivision(cycle=(0, 1, 2, 3), pendant=(1, 3))
    assert "lies on cycle" in verify_kite(K6, ROOTS, tip).reason
    # cycle degenerates below 3 vertices
    short = KiteSubdivision(cycle=(0, 1), pendant=(1, 3))
    assert "fewer than 3" in verify_kite(K6, ROOTS, short).reason


def test_verify_kite_rejects_role_and_range_errors():
    assert "root outside graph" in verify_kite(Graph(3, []), ROOTS, GOOD).reason
    missing_root = KiteSubdivision(cycle=(0, 4, 2), pendant=(4, 3))
    assert "x2=1 not on cycle" in verify_kite(K6, ROOTS, missing_root).reason
    bad_tip = KiteSubdivision(cycle=(0, 1, 2), pendant=(1, 4))
    assert "not x4" in verify_kite(K6, ROOTS, bad_tip).reason
    repeated = KiteSubdivision(cycle=(0, 1, 2), pendant=(1, 5, 5, 3))
    assert "repeats" in verify_kite(K6, ROOTS, repeated).reason


# A 9-vertex host: complete graph minus the matching {(0,1), (2,3)}.
K9M2 = gen_complete_minus_matching(9, 2)
FLOWER = Flower(
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


def test_verify_flower_accepts_hand_built_instance():
    assert verify_flower(K9M2, FLOWER)


def test_verify_flower_accepts_reverse_cyclic_order():
    f = Flower(
        roots=RootQuadruple(2, 4, 6, 3),
        c1=FLOWER.c1,
        c2=FLOWER.c2,
        c3=FLOWER.c3,
        p1=(2, 1),
        p2=(4, 5),
        p3=(6, 7),
        v1=1,
        v2=5,
        v3=7,
    )
    assert verify_flower(K9M2, f)


def test_verify_flower_rejects_bad_cyclic_order():
    f = Flower(
        roots=FLOWER.roots,
        c1=FLOWER.c1,
        c2=FLOWER.c2,
        c3=FLOWER.c3,
        p1=(2, 1),
        p2=(4, 7),
        p3=(6, 3),
        v1=1,
        v2=7,
        v3=3,
    )
    assert "cyclic order" in verify_flower(K9M2, f).reason


def test_verify_flower_rejects_structural_breaks():
    # c1 and c2 sharing more than x2
    f = Flower(FLOWER.roots, (2, 4, 0), (6, 4, 0), FLOWER.c3,
               FLOWER.p1, FLOWER.p2, FLOWER.p3, 1, 3, 7)
    assert "meet exactly in x2" in verify_flower(K9M2, f).reason
    # c3 touching c1
    f = Flower(FLOWER.roots, FLOWER.c1, FLOWER.c2, (0, 3, 7, 5),
               FLOWER.p1, FLOWER.p2, FLOWER.p3, 1, 3, 7)
    assert "c3 touches" in verify_flower(K9M2, f).reason
    # spoke landing not on c3
    f = Flower(FLOWER.roots, FLOWER.c1, FLOWER.c2, FLOWER.c3,
               (2, 1), (4, 3), (6, 8), 1, 3, 8)
    assert verify_flower(K9M2, f).reason is not None
    # spokes sharing a vertex
    f = Flower(FLOWER.roots, FLOWER.c1, FLOWER.c2, FLOWER.c3,
               (2, 1), (4, 1), FLOWER.p3, 1, 1, 7)
    assert verify_flower(K9M2, f).reason is not None
    # missing edge inside a spoke (0-1 was removed by the matching)
    f = Flower(FLOWER.roots, FLOWER.c1, FLOWER.c2, FLOWER.c3,
               (2, 0, 1), FLOWER.p2, FLOWER.p3, 1, 3, 7)
    assert "missing edge" in verify_flower(K9M2, f).reason


def test_flower_normalizes_cycles():
    assert FLOWER.c1 == (0, 2, 4)
