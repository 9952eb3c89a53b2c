"""The census of 7-connected graphs on at most 10 vertices, and the
claim 3 stage that its hosts reach through find_kite with default
options."""

import itertools
from collections import Counter

import pytest

from kitelink.constructor import find_kite
from kitelink.structures import KiteSubdivision, RootQuadruple, verify_kite

from bruteforce import census, complement_classes, k_minus


def test_census_keeps_every_class_without_a_four_cycle():
    assert [len(list(census(n))) for n in (7, 8, 9, 10)] == [0, 1, 5, 87]
    everything = {(p, c) for p, c, _ in complement_classes(10)}
    kept = {(p, c) for p, c, _ in census(10)}
    dropped = everything - kept
    assert len(everything) == 106 and kept <= everything
    assert len(dropped) == 19
    assert dropped == {(p, c) for p, c in everything if 4 in c}


@pytest.mark.parametrize(
    "paths, cycles, stages",
    [
        ((10,), (), {"claim1": 3216, "direct": 1764, "claim2": 59, "claim3": 1}),
        ((), (10,), {"claim1": 3488, "direct": 1500, "claim2": 51, "claim3": 1}),
    ],
    ids=["K10-P10", "K10-C10"],
)
def test_every_root_choice_of_k10_minus_a_long_path_or_cycle(paths, cycles, stages):
    g = k_minus(10, paths, cycles)
    got = Counter()
    for quad in itertools.permutations(range(10), 4):
        roots = RootQuadruple(*quad)
        res = find_kite(g, roots)
        assert verify_kite(g, roots, res.kite)
        got[res.stage] += 1
    assert got == stages


@pytest.mark.parametrize(
    "paths, cycles, quad, kite",
    [
        ((10,), (), (8, 4, 7, 5), KiteSubdivision((0, 7, 2, 4, 8), (4, 9, 5))),
        ((), (10,), (8, 4, 7, 5), KiteSubdivision((0, 7, 2, 4, 8), (4, 9, 5))),
        ((4,), (3, 3), (5, 2, 4, 3), KiteSubdivision((0, 4, 7, 2, 9, 5), (2, 6, 3))),
    ],
    ids=["K10-P10", "K10-C10", "K10-(P4+C3+C3)"],
)
def test_claim3_on_census_hosts(paths, cycles, quad, kite):
    g = k_minus(10, paths, cycles)
    roots = RootQuadruple(*quad)
    res = find_kite(g, roots)
    assert (res.stage, res.kite) == ("claim3", kite)
    assert verify_kite(g, roots, kite)
