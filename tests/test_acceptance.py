"""Acceptance battery.

One test per shipping criterion, named test_criterion_N_*; `pytest -v`
therefore emits exactly one pass/fail line per criterion.  Each test also
prints a one-line summary with the measured numbers (visible under -s).
"""

import itertools
import json
import random
import time

from kitelink.constructor import FindKiteOptions, find_kite
from kitelink.errors import ConstructionFailed
from kitelink.fans import check_fan, extend_fan, find_fan, vertex_connectivity
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph
from kitelink.harness import TrialConfig, report_lines, run_trials
from kitelink.linkage import two_linkage
from kitelink.oracle import find_kite_exhaustive, is_kite_linked
from kitelink.structures import (
    KiteSubdivision,
    RootQuadruple,
    verify_kite,
)

import census_sweep
from bruteforce import (
    brute_connectivity,
    connected_masks,
    connected_representatives,
    mask_to_graph,
    rooted_kite_exists,
    two_linkage_oracle,
)


def _quadruples(n):
    return itertools.permutations(range(n), 4)


def test_criterion_1_exhaustive_k8_suite():
    g = gen_complete_minus_matching(8, 0)
    started = time.perf_counter()
    stages_default, stages_pipeline = set(), set()
    pipeline_opts = FindKiteOptions(try_direct=False)
    for quad in _quadruples(8):
        roots = RootQuadruple(*quad)
        res = find_kite(g, roots)
        assert verify_kite(g, roots, res.kite)
        stages_default.add(res.stage)
        res = find_kite(g, roots, pipeline_opts)
        assert verify_kite(g, roots, res.kite)
        assert res.diagnostics == ()
        stages_pipeline.add(res.stage)
    elapsed = time.perf_counter() - started
    assert "fallback" not in stages_default | stages_pipeline
    assert stages_default == {"direct"}
    assert stages_pipeline <= {"claim1", "claim2", "claim3", "flower"}
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS - 1680 quadruples x2 option sets on K8, "
        f"zero fallbacks, {elapsed:.1f}s"
    )


def test_criterion_2_complete_nine_vertex_coverage():
    started = time.perf_counter()
    opts = FindKiteOptions(try_direct=False)
    stage_tally = {}
    for m in range(5):
        g = gen_complete_minus_matching(9, m)
        for quad in _quadruples(9):
            roots = RootQuadruple(*quad)
            res = find_kite(g, roots, opts)
            assert verify_kite(g, roots, res.kite)
            stage_tally[res.stage] = stage_tally.get(res.stage, 0) + 1
    elapsed = time.perf_counter() - started
    assert sum(stage_tally.values()) == 5 * 3024
    assert "fallback" not in stage_tally
    assert elapsed < 300.0
    print(
        f"criterion 2: PASS - 5 matching classes x 3024 quadruples, "
        f"stages {stage_tally}, {elapsed:.1f}s"
    )


def test_criterion_3_random_campaign():
    opts = FindKiteOptions(try_direct=False)
    verified = 0
    fallback_seeds = []
    for seed in range(200):
        n = 10 + seed % 7
        g = gen_random_kconnected(n, 7, seed)
        rng = random.Random(9000 + seed)
        roots = RootQuadruple(*rng.sample(range(n), 4))
        res = find_kite(g, roots, opts)
        assert verify_kite(g, roots, res.kite)
        verified += 1
        if res.stage == "fallback":
            fallback_seeds.append(seed)
    assert verified == 200
    print(
        f"criterion 3: PASS - {verified}/200 verified; "
        f"fallback count = {len(fallback_seeds)}"
        + (f"; reproducing seeds {fallback_seeds}" if fallback_seeds else "")
    )


def test_criterion_4_oracle_agreement():
    instances = []
    for seed in range(20):
        n = 10 + seed % 3
        g = gen_random_kconnected(n, 7, 500 + seed)
        rng = random.Random(seed)
        instances.append((g, RootQuadruple(*rng.sample(range(n), 4))))
    k9 = gen_complete_minus_matching(9, 2)
    for quad in itertools.islice(_quadruples(9), 0, 3024, 251):
        instances.append((k9, RootQuadruple(*quad)))
    sparse = Graph(
        9,
        [(2, 4), (0, 4), (0, 2), (4, 6), (4, 8), (6, 8),
         (1, 3), (3, 7), (5, 7), (1, 5), (1, 2), (3, 4), (6, 7)],
    )
    for quad in itertools.islice(_quadruples(9), 5, 3024, 151):
        instances.append((sparse, RootQuadruple(*quad)))
    instances.append((sparse, RootQuadruple(2, 4, 6, 5)))

    assert len(instances) >= 50
    agreements = 0
    for g, roots in instances:
        try:
            res = find_kite(g, roots)
            constructed = res.kite
        except ConstructionFailed:
            constructed = None
        witness = find_kite_exhaustive(g, roots)
        assert (constructed is None) == (witness is None)
        if constructed is not None:
            assert verify_kite(g, roots, constructed)
            assert verify_kite(g, roots, witness)
        elif g.n <= 9:
            assert not rooted_kite_exists(g, roots)
        agreements += 1
    print(f"criterion 4: PASS - {agreements} instances, existence agreement 100%")


def test_criterion_5_two_linkage_completeness():
    checked = 0
    hosts = []
    for n in (4, 5):
        hosts.extend(mask_to_graph(n, mask) for mask in connected_masks(n))
    hosts.extend(connected_representatives(6))
    for g in hosts:
        for s1, t1, s2, t2 in _quadruples(g.n):
            got = two_linkage(g, s1, t1, s2, t2)
            want = two_linkage_oracle(g, s1, t1, s2, t2)
            assert (got is None) == (want is None)
            checked += 1
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert two_linkage(ring, 0, 2, 1, 3) is None
    assert two_linkage_oracle(ring, 0, 2, 1, 3) is None
    print(
        f"criterion 5: PASS - {checked} terminal quadruples across "
        f"{len(hosts)} connected hosts agree; C4 crossing pair unlinkable"
    )


def test_criterion_6_connectivity_exactness():
    for n in range(2, 11):
        g = gen_complete_minus_matching(n, 0)
        assert vertex_connectivity(g).k == n - 1
        if n <= 8:
            assert brute_connectivity(g) == n - 1
    for n in range(3, 11):
        ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert vertex_connectivity(ring).k == 2
        if n <= 8:
            assert brute_connectivity(ring) == 2
    assert vertex_connectivity(gen_complete_minus_matching(9, 4)).k == 7
    print("criterion 6: PASS - complete and cycle families exact, brute-checked to n=8")


def test_criterion_7_perfect_extension_fuzz():
    collected = 0
    seed = 0
    while collected < 1000:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(8, 13)
        p = rng.uniform(0.35, 0.8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph(n, edges)
        x = rng.randrange(n)
        pool = [v for v in range(n) if v != x]
        s = frozenset(rng.sample(pool, rng.randint(3, min(7, len(pool)))))
        kmax, base = 0, None
        for k in range(1, len(s) + 1):
            fan = find_fan(g, x, s, k)
            if fan is None:
                break
            kmax = k
        if kmax < 2:
            continue
        base = find_fan(g, x, s, 1 + seed % (kmax - 1) if kmax > 2 else 1)
        ext = extend_fan(g, x, s, base, kmax)
        assert ext is not None, f"extension failed at k={kmax} (seed {seed})"
        assert check_fan(g, x, s, ext) is None
        assert len(ext.arms) == kmax
        base_ends = {arm.last for arm in base.arms}
        ext_ends = {arm.last for arm in ext.arms}
        assert base_ends <= ext_ends
        collected += 1
    print(f"criterion 7: PASS - {collected} feasible extension instances, 0 failures")


def test_criterion_8_negative_controls():
    g = gen_complete_minus_matching(8, 0)
    roots = RootQuadruple(0, 1, 2, 3)
    good = KiteSubdivision(cycle=(0, 1, 2), pendant=(1, 3))
    assert verify_kite(g, roots, good)

    wrong_role = verify_kite(g, RootQuadruple(0, 1, 3, 2), good)
    shared_interior = verify_kite(
        g, roots, KiteSubdivision(cycle=(0, 4, 1, 2), pendant=(1, 4, 3))
    )
    missing = Graph(8, [e for e in g.edges if e != (1, 3)])
    missing_edge = verify_kite(missing, roots, good)
    touches_twice = verify_kite(
        g, roots, KiteSubdivision(cycle=(0, 1, 2), pendant=(1, 0, 3))
    )
    short_cycle = verify_kite(g, roots, KiteSubdivision(cycle=(0, 1), pendant=(1, 3)))
    rejected = [wrong_role, shared_interior, missing_edge, touches_twice, short_cycle]
    assert all(not verdict for verdict in rejected)
    assert all(verdict.reason for verdict in rejected)

    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    v5 = is_kite_linked(c5)
    assert not v5.linked and v5.witness is not None
    assert not rooted_kite_exists(c5, v5.witness)

    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    v4 = is_kite_linked(k4e)
    assert not v4.linked and v4.witness is not None
    assert not rooted_kite_exists(k4e, v4.witness)
    print("criterion 8: PASS - 5 mutation classes rejected; C5 and K4-e unlinked with witnesses")


def test_criterion_9_campaign_determinism():
    config = dict(
        generator="random", n=12, trials=40, seed=11, oracle_fraction=0.15
    )
    first = "\n".join(report_lines(run_trials(TrialConfig(**config))))
    second = "\n".join(report_lines(run_trials(TrialConfig(**config))))
    assert first == second
    for line in first.splitlines():
        assert json.loads(line)["outcome"] == "success"
    print("criterion 9: PASS - identical byte streams across repeat runs")


def test_criterion_10_census():
    # Every ordered root choice of every 7-connected graph on 8 and 9
    # vertices, each class met once by the census, by construction alone;
    # CI runs n = 10 as well through the same sweep.
    started = time.perf_counter()
    for n in (8, 9):
        assert census_sweep.sweep(n) == census_sweep.PINNED[n]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 10: PASS - 16800 census calls on n = 8, 9, no StageFailure, {elapsed:.1f}s")
