"""Fans, terminal fans, and connectivity against brute-force duals."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    ReferenceNetwork,
    brute_connectivity,
    brute_max_fan,
    circulant,
    exit_,
    index_order_connectivity_at_least,
    joined_rings,
    separates,
)
from kitelink import flow
from kitelink.constructor import _apex_arms, apex_fan
from kitelink.errors import (
    GraphTooSmall,
    InvalidBaseFan,
    PreconditionViolated,
)
from kitelink.fans import (
    CutCertificate,
    Fan,
    TerminalFan,
    check_fan,
    extend_fan,
    find_fan,
    has_connectivity_at_least,
    terminal_fan,
    vertex_connectivity,
)
from kitelink.flow import Flow
from kitelink.generators import gen_complete_minus_matching, gen_random_kconnected
from kitelink.graphs import Graph
from kitelink.paths import Path
from kitelink.structures import RootQuadruple, _check_walk


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_check_fan_catches_each_violation():
    g = gen_complete_minus_matching(6, 0)
    s = frozenset({3, 4, 5})
    good = Fan(0, (Path((0, 3)), Path((0, 1, 4))))
    assert check_fan(g, 0, s, good) is None
    assert check_fan(g, 1, s, good) == "fan center mismatch"
    assert "does not start" in check_fan(g, 0, s, Fan(0, (Path((1, 3)),)))
    assert "has no edge" in check_fan(g, 0, s, Fan(0, (Path((0,)),)))
    assert "missing edge" in check_fan(
        Graph(6, [(0, 1)]), 0, s, Fan(0, (Path((0, 3)),))
    )
    # arm passing through the target set before its end
    assert "exactly at its end" in check_fan(
        g, 0, s, Fan(0, (Path((0, 3, 4)),))
    )
    assert "reused" in check_fan(g, 0, s, Fan(0, (Path((0, 3)), Path((0, 1, 3)))))
    assert "overlap" in check_fan(
        g, 0, s, Fan(0, (Path((0, 1, 3)), Path((0, 1, 4))))
    )
    assert check_fan(g, 3, s, Fan(3, (Path((3, 4)),))) is not None
    assert check_fan(g, 3, s, Fan(3, ())) == "center may not belong to the target set"


def test_check_fan_reports_a_bad_arm_as_the_kite_verifier_does():
    g = gen_complete_minus_matching(6, 0)
    s = frozenset({3, 4, 5})
    cases = [
        (Graph(6, [(0, 1)]), Path((0, 3)), "arm Path([0, 3]) uses missing edge 0-3"),
        (g, Path((0, 9)), "arm Path([0, 9]) uses out-of-range vertex 9"),
        (g, Path((0,)), "arm Path([0]) has no edge"),
    ]
    for host, arm, message in cases:
        assert check_fan(host, 0, s, Fan(0, (arm,))) == message
        assert _check_walk(host, arm.vertices, f"arm {arm!r}", closed=False) == message


def test_find_fan_on_bottleneck():
    # everything from 0 to {4, 5} squeezes through vertex 3
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    s = frozenset({4, 5})
    fan = find_fan(g, 0, s, 1)
    assert fan is not None and check_fan(g, 0, s, fan) is None
    assert find_fan(g, 0, s, 2) is None


def test_find_fan_validations():
    g = gen_complete_minus_matching(5, 0)
    with pytest.raises(PreconditionViolated):
        find_fan(g, 9, frozenset({1}), 1)
    with pytest.raises(PreconditionViolated):
        find_fan(g, 0, frozenset({0, 1}), 1)
    with pytest.raises(PreconditionViolated):
        find_fan(g, 0, frozenset({1}), 2)
    with pytest.raises(PreconditionViolated):
        find_fan(g, 0, frozenset({1}), 0)
    with pytest.raises(PreconditionViolated, match="target set outside graph"):
        find_fan(g, 0, frozenset({1, 5}), 1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_find_fan_matches_separator_dual(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    g = _random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
    x = rng.randrange(n)
    pool = [v for v in range(n) if v != x]
    s = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    cap = brute_max_fan(g, x, s)
    for k in range(1, len(s) + 1):
        fan = find_fan(g, x, s, k)
        if k <= cap:
            assert fan is not None and check_fan(g, x, s, fan) is None
            assert fan.k == k
        else:
            assert fan is None


def test_extend_fan_keeps_endpoints():
    g = gen_complete_minus_matching(8, 0)
    s = frozenset(range(1, 8))
    base = Fan(0, (Path((0, 6)), Path((0, 7))))
    fan = extend_fan(g, 0, s, base, 7)
    assert fan is not None and fan.k == 7
    assert {6, 7} <= set(fan.endpoints())
    assert check_fan(g, 0, s, fan) is None
    # a base arm may take a detour through non-target vertices
    s4 = frozenset({4, 5, 6, 7})
    detour = Fan(0, (Path((0, 2, 6)), Path((0, 7))))
    fan = extend_fan(g, 0, s4, detour, 4)
    assert fan is not None and {6, 7} <= set(fan.endpoints())
    assert check_fan(g, 0, s4, fan) is None


def test_extend_fan_rejects_bad_bases():
    g = gen_complete_minus_matching(6, 0)
    s = frozenset({3, 4, 5})
    with pytest.raises(InvalidBaseFan):
        extend_fan(g, 0, s, Fan(0, (Path((1, 3)),)), 3)
    with pytest.raises(InvalidBaseFan):
        extend_fan(
            g, 0, s,
            Fan(0, (Path((0, 3)), Path((0, 4)), Path((0, 5)))), 2,
        )


def test_extend_fan_reports_infeasible_k():
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    s = frozenset({4, 5})
    base = find_fan(g, 0, s, 1)
    assert base is not None
    assert extend_fan(g, 0, s, base, 2) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_extend_fan_keeps_base_endpoints_on_7_connected_hosts(seed):
    rng = random.Random(seed)
    n = rng.randint(9, 16)
    g = gen_random_kconnected(n, 7, rng.randrange(1000))
    x = rng.randrange(n)
    pool = [v for v in range(n) if v != x]
    s = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    # A fan of a random subgraph is a valid base in g that find_fan on g
    # need not choose; any 7-connected graph has one of up to 7 arms.
    sub = Graph(n, [e for e in g.edges if rng.random() < 0.6])
    size = rng.randint(1, min(7, len(s)))
    found = find_fan(sub, x, s, size) or find_fan(g, x, s, size)
    base = Fan(x, tuple(a for a in found.arms if rng.random() < 0.7) or found.arms[:1])
    assert check_fan(g, x, s, base) is None
    k = rng.randint(base.k, len(s))
    fan = extend_fan(g, x, s, base, k)
    assert (fan is None) == (find_fan(g, x, s, k) is None)
    if fan is not None:
        assert fan.k == k and check_fan(g, x, s, fan) is None
        assert set(base.endpoints()) <= set(fan.endpoints())


def test_terminal_fan_on_k8():
    g = gen_complete_minus_matching(8, 0)
    roots = RootQuadruple(0, 1, 2, 3)
    tf = terminal_fan(g, roots)
    assert tf is not None
    assert tf.hub == 1 and tf.x1 == 0 and tf.x3 == 2 and tf.x4 == 3
    assert len(tf.arms()) == 7
    # disjointness: same-bundle arms share hub and far endpoint only
    for i, a in enumerate(tf.arms()):
        assert a.first == tf.hub
        for b in tf.arms()[i + 1 :]:
            shared = set(a.vertices) & set(b.vertices)
            allowed = {tf.hub} | ({a.last} if a.last == b.last else set())
            assert shared == allowed
    with pytest.raises(PreconditionViolated, match="roots outside graph"):
        terminal_fan(g, RootQuadruple(0, 1, 2, 8))


def test_terminal_fan_multiplicities_respect_capacity():
    # x1 of degree 2 cannot absorb three arms
    base = gen_complete_minus_matching(9, 0)
    edges = [e for e in base.edges if 0 not in e or e in ((0, 1), (0, 2))]
    g = Graph(9, edges)
    assert terminal_fan(g, RootQuadruple(0, 1, 2, 3)) is None


def test_terminal_fan_swap_sides():
    tf = terminal_fan(gen_complete_minus_matching(8, 0), RootQuadruple(0, 1, 2, 3))
    sw = tf.swap_sides()
    assert sw.x1 == tf.x3 and sw.x3 == tf.x1 and sw.x4 == tf.x4
    assert sw.swap_sides() == tf


def test_vertex_connectivity_known_families():
    for n in range(2, 9):
        assert vertex_connectivity(gen_complete_minus_matching(n, 0)).k == n - 1
    for n in range(3, 9):
        cert = vertex_connectivity(_cycle(n))
        assert cert.k == 2
        # C3 is complete, so only longer cycles carry a cut witness
        assert (cert.cut is None) == (n == 3)
        if cert.cut is not None:
            assert len(cert.cut) == 2
    assert vertex_connectivity(gen_complete_minus_matching(9, 4)).k == 7
    with pytest.raises(GraphTooSmall):
        vertex_connectivity(Graph(1, []))
    with pytest.raises(GraphTooSmall):
        has_connectivity_at_least(Graph(1, []), 1)


def test_cut_certificate_invariant():
    cert = vertex_connectivity(_cycle(5))
    assert cert.cut is not None
    # removing the certified cut really disconnects the graph
    kept = [v for v in range(5) if v not in cert.cut]
    g = _cycle(5)
    comp = {kept[0]}
    frontier = [kept[0]]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w in cert.cut or w in comp:
                continue
            comp.add(w)
            frontier.append(w)
    assert len(comp) < len(kept)
    with pytest.raises(Exception):
        CutCertificate(2, frozenset({1}))


def _maybe_separated_graph(rng: random.Random, n: int, p: float) -> Graph:
    # Half the graphs plant a separator S with no edge between sides A
    # and B, which often leaves Even's fan phase to find the cut.
    sides = rng.choice(("A", "ASB"))
    side = [rng.choice(sides) for _ in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if {side[i], side[j]} != {"A", "B"} and rng.random() < p
    ]
    return Graph(n, edges)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_connectivity_matches_cut_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    g = _maybe_separated_graph(rng, n, rng.choice((0.3, 0.55, 0.8, 1.0)))
    want = brute_connectivity(g)
    cert = vertex_connectivity(g)
    assert cert.k == want
    if cert.cut is not None:
        assert separates(g, cert.cut)
    for k in range(0, n + 1):
        assert has_connectivity_at_least(g, k) == (want >= k)


@pytest.mark.parametrize("steps", [(1, 2, 3, 4), (1, 2, 4, 7)])
@pytest.mark.parametrize("n", [20, 40])
def test_connectivity_of_sparse_circulants(n, steps):
    g = circulant(n, steps)
    cert = vertex_connectivity(g)
    assert cert.k == 8
    assert len(cert.cut) == 8 and separates(g, cert.cut)
    assert has_connectivity_at_least(g, 8)
    assert not has_connectivity_at_least(g, 9)


def test_connectivity_when_min_degree_vertex_is_in_every_min_cut():
    # Vertex 0 (degree 4, the lowest index of least degree) joins two
    # disjoint K5s through two vertices of each, so {0} is the only
    # minimum separator and only a flow between two neighbours of 0
    # finds it.  Among the first two vertices only the adjacent pair
    # (0, 1) exists, so the fan phase has to reject k = 2.
    clique = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    edges = clique + [(a + 5, b + 5) for a, b in clique]
    g = Graph(11, edges + [(0, 1), (0, 2), (0, 6), (0, 7)])
    assert brute_connectivity(g) == 1
    cert = vertex_connectivity(g)
    assert cert.k == 1 and cert.cut == frozenset({0})
    assert has_connectivity_at_least(g, 1)
    assert not has_connectivity_at_least(g, 2)


def _fan_digest(g: Graph, root_choices: list[RootQuadruple]) -> str:
    h = hashlib.sha256()
    for roots in root_choices:
        tf = terminal_fan(g, roots)
        af = apex_fan(g, tf)
        arms = ([a.vertices for a in tf.arms()], [a.vertices for a in af.arms()])
        h.update(repr((roots.as_tuple(), arms, af.side)).encode())
    return h.hexdigest()


def _sampled_roots(n: int, seed: int, count: int) -> list[RootQuadruple]:
    rng = random.Random(seed)
    return [RootQuadruple(*rng.sample(range(n), 4)) for _ in range(count)]


def _golden_fan_host(name: str) -> tuple[Graph, list[RootQuadruple]]:
    if name == "C30(1,2,4,7)":
        return circulant(30, (1, 2, 4, 7)), [RootQuadruple(28, 13, 12, 5)]
    if name == "C26(1,2,3,4)":
        return circulant(26, (1, 2, 3, 4)), [RootQuadruple(23, 0, 17, 9)]
    seed = int(name.removeprefix("random40-s"))
    return gen_random_kconnected(40, 7, seed), _sampled_roots(40, seed, 20)


# sha256 over the terminal_fan and apex_fan arms of each root choice,
# computed when every fan query still built its own flow network: the
# arms pin the augmenting-path order, not only the fans' existence.
_FAN_DIGESTS = {
    "random40-s0": "005099e0db071a4090de79ccf303b23c03c5d1852bc65c9fe13097e04479f790",
    "random40-s1": "2db6acf19b25480ffcfe4c1e8da6935809d1bdc9171f3f509d665265f3571e41",
    "random40-s2": "aee449a4e8f93ecd13d472accfdd88f7992320f50f85618fb8316aa644139519",
    "C30(1,2,4,7)": "eed39a2990b2a0c1d773cb08a1409e904b34518ac591c1cad1fcbca1bc08ab5f",
    "C26(1,2,3,4)": "a8bc075319ddc482706e8daa94bd867f3815dbc3e3a4efea3ee51b4e969ec699",
}


@pytest.mark.parametrize("host", sorted(_FAN_DIGESTS))
def test_fan_arms_match_golden_digests(host):
    g, root_choices = _golden_fan_host(host)
    assert _fan_digest(g, root_choices) == _FAN_DIGESTS[host]


# Reference queries: each fan and connectivity query as it ran before
# max_flow routed the short arms first, every unit by augmentation.
def _augment_only(net, cap, x: int, limit: int) -> int:
    sent = 0
    while sent < limit and net.augment(cap, exit_(x)):
        sent += 1
    return sent


def _reference_terminal_fan(g: Graph, roots: RootQuadruple) -> TerminalFan | None:
    x1, x2, x3, x4 = roots.as_tuple()
    net = ReferenceNetwork(g)
    cap = net.residual({x1: 3, x3: 3, x4: 1})
    if _augment_only(net, cap, x2, 7) < 7:
        return None
    paths = sorted((Path(a) for a in net.arms(cap, x2)), key=lambda p: p.vertices)
    q = tuple(p for p in paths if p.last == x1)
    r = tuple(p for p in paths if p.last == x3)
    return TerminalFan(x2, q, r, next(p for p in paths if p.last == x4))


def _reference_extend_fan(g: Graph, x: int, s: frozenset[int], base: Fan, k: int) -> Fan | None:
    net = ReferenceNetwork(g)
    cap = net.residual(dict.fromkeys(s, 1))
    for arm in base.arms:
        net.route(cap, arm.vertices)
    if _augment_only(net, cap, x, k - base.k) < k - base.k:
        return None
    arms = sorted((Path(a) for a in net.arms(cap, x)), key=lambda p: (p.last, p.vertices))
    return Fan(x, tuple(arms))


def _reference_connectivity(g: Graph) -> CutCertificate:
    if g.is_complete():
        return CutCertificate(g.n - 1, None)
    net = ReferenceNetwork(g)
    v = min(g.vertices(), key=g.degree)
    nbrs = g.neighbors(v)
    pairs = [(v, w) for w in g.vertices() if w != v and not g.has_edge(v, w)]
    pairs += [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if not g.has_edge(a, b)]
    best, best_cut = g.n - 1, None
    for s, t in pairs:
        cap = net.residual({t: best})
        value = _augment_only(net, cap, s, best)
        if value < best:
            best, best_cut = value, net.min_cut(cap, s)
    return CutCertificate(best, best_cut)


def _equivalence_hosts(family: str) -> list[Graph]:
    if family == "random40":
        return [gen_random_kconnected(40, 7, s) for s in (3, 4)]
    if family == "random12-30":
        return [gen_random_kconnected(n, 7, 200 + n) for n in (12, 16, 20, 25, 30)]
    if family == "circulant":
        return [circulant(n, st) for n in (16, 34) for st in ((1, 2, 3, 4), (1, 2, 4, 7), (1, 3, 5, 7))]
    if family == "planted":
        return [_planted_separator_graph(random.Random(40 + i)) for i in range(12)]
    rng = random.Random(17)  # sparse, so not 7-connected
    return [_random_graph(rng, rng.randint(14, 24), rng.choice((0.2, 0.3))) for _ in range(8)]


def _planted_separator_graph(rng: random.Random) -> Graph:
    # Sides A and B with no edge between them, joined through a small
    # separator S, dense enough that kappa is usually |S| < min degree.
    n = rng.randint(14, 22)
    order = rng.sample(range(n), n)
    cut = rng.randint(1, 4)
    side = {v: "S" for v in order[:cut]}
    side.update((v, "A" if i % 2 else "B") for i, v in enumerate(order[cut:]))
    p = rng.choice((0.5, 0.65, 0.8))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if {side[i], side[j]} != {"A", "B"} and rng.random() < p
    ]
    return Graph(n, edges)


@pytest.mark.parametrize("family", ["random40", "random12-30", "circulant", "sparse"])
def test_fans_and_connectivity_match_augmentation_alone(family):
    none_answers = 0
    for i, g in enumerate(_equivalence_hosts(family)):
        assert repr(vertex_connectivity(g)) == repr(_reference_connectivity(g))
        for roots in _sampled_roots(g.n, 300 + i, 40):
            tf = terminal_fan(g, roots)
            assert repr(tf) == repr(_reference_terminal_fan(g, roots))
            if tf is None:
                none_answers += 1
                continue
            # apex_fan's extension of the x4 arm into the terminal fan
            s = frozenset(v for arm in tf.q + tf.r for v in arm.vertices)
            base = Fan(tf.x4, (tf.s.reverse(),))
            fan = extend_fan(g, tf.x4, s, base, 7)
            assert repr(fan) == repr(_reference_extend_fan(g, tf.x4, s, base, 7))
            none_answers += fan is None
    assert (none_answers > 0) == (family == "sparse")


def test_extend_fan_matches_augmentation_alone_on_random_bases():
    # When x is adjacent to a base-arm vertex past that arm's first step,
    # residual reverse arcs give rerouting paths as short as the two-edge
    # arms, so the short-arm sweep must stop there; count those bases.
    rng = random.Random(23)
    rerouting_bases = 0
    for _ in range(400):
        n = rng.randint(8, 22)
        g = _random_graph(rng, n, rng.choice((0.3, 0.45, 0.6, 0.8)))
        x = rng.randrange(n)
        pool = [v for v in range(n) if v != x]
        s = frozenset(rng.sample(pool, rng.randint(1, len(pool) // 2 + 1)))
        sub = Graph(n, [e for e in g.edges if rng.random() < 0.4])
        found = find_fan(sub, x, s, rng.randint(1, min(7, len(s))))
        if found is None:
            continue
        base = Fan(x, tuple(a for a in found.arms if rng.random() < 0.7) or found.arms[:1])
        past_first_step = {v for arm in base.arms for v in arm.vertices[2:]}
        rerouting_bases += any(g.has_edge(x, v) for v in past_first_step)
        for k in range(base.k, len(s) + 1):
            fan = extend_fan(g, x, s, base, k)
            assert repr(fan) == repr(_reference_extend_fan(g, x, s, base, k))
    assert rerouting_bases >= 40


def test_connectivity_matches_the_scan_on_planted_separators():
    # Where kappa < min degree the cut comes from the flow that failed
    # Even's check, and on these hosts it is the reference scan's cut.
    hosts = _equivalence_hosts("planted")
    below_min_degree = 0
    for g in hosts:
        cert = vertex_connectivity(g)
        assert repr(cert) == repr(_reference_connectivity(g))
        below_min_degree += cert.k < g.min_degree()
    assert 3 * below_min_degree >= len(hosts)


@pytest.mark.parametrize(
    "g",
    [circulant(n, st) for n in (20, 40) for st in ((1, 2, 3, 4), (1, 2, 4, 7))]
    + [gen_random_kconnected(40, 7, s) for s in (0, 2)]
    + [gen_complete_minus_matching(20, 5)],
    ids=[
        "C20(1,2,3,4)", "C20(1,2,4,7)", "C40(1,2,3,4)", "C40(1,2,4,7)",
        "random40-0", "random40-2", "K20-5",
    ],
)
def test_connectivity_at_min_degree_needs_no_cut_search(g, monkeypatch):
    # kappa = min degree: one Even decision gives the neighbourhood of
    # the lowest minimum-degree vertex, with no min_cut.
    # On random40-2 a frozenset built straight from the neighbour tuple
    # prints in another order than the scan's, so repr is compared.
    want = repr(_reference_connectivity(g))

    def no_cut(*_args):
        raise AssertionError("min_cut ran although kappa = min degree")

    monkeypatch.setattr(Flow, "min_cut", no_cut)
    v = min(g.vertices(), key=g.degree)
    cert = vertex_connectivity(g)
    assert cert == CutCertificate(g.degree(v), frozenset(g.neighbors(v)))
    assert repr(cert) == want
    assert separates(g, cert.cut)


def test_connectivity_below_min_degree_reads_the_failing_flows_cut(monkeypatch):
    # kappa = 3 < min degree = 8: Even's check at k = 8 fails on a flow
    # of value 3, its cut is the witness, and the check passes at k = 3.
    g = joined_rings(400)
    cuts = []
    min_cut = Flow.min_cut

    def counted(self, *args):
        cuts.append(min_cut(self, *args))
        return cuts[-1]

    monkeypatch.setattr(Flow, "min_cut", counted)
    cert = vertex_connectivity(g)
    assert (cert.k, g.min_degree(), len(cuts)) == (3, 8, 1)
    assert cert.cut == cuts[0] and separates(g, cert.cut)


@pytest.mark.parametrize("family", ["random40", "random12-30", "circulant", "planted", "sparse"])
def test_degree_order_decides_as_index_order(family):
    # Even's theorem holds for any vertex order: the degree order changes
    # which flows run, never a decision.
    for g in _equivalence_hosts(family):
        for k in range(g.n + 1):
            assert has_connectivity_at_least(g, k) == index_order_connectivity_at_least(g, k)


def test_degree_order_decides_as_index_order_on_random_graphs():
    rng = random.Random(31)
    refused_by_a_flow = 0
    for _ in range(300):
        n = rng.randint(2, 18)
        g = _maybe_separated_graph(rng, n, rng.choice((0.3, 0.5, 0.7, 0.85, 0.95)))
        for k in range(n + 1):
            want = index_order_connectivity_at_least(g, k)
            assert has_connectivity_at_least(g, k) == want
            refused_by_a_flow += not want and k <= g.min_degree()
    assert refused_by_a_flow >= 30


def test_degree_order_runs_fewer_flows_on_a_dense_host(monkeypatch):
    # kappa = min degree = 32.  In index order 225 of the 496 pairs among
    # the first 32 vertices share fewer than 32 neighbours, and 27 later
    # vertices have fewer than 32 neighbours before them: 252 flows.
    g = gen_random_kconnected(80, 7, 1)
    flows = []
    max_flow = flow.max_flow

    def counted(*args):
        flows.append(args)
        return max_flow(*args)

    monkeypatch.setattr(flow, "max_flow", counted)
    assert index_order_connectivity_at_least(g, 32)
    index_order = len(flows)
    flows.clear()
    assert has_connectivity_at_least(g, 32)
    assert (len(flows), index_order) == (158, 252)


def _count_flows(monkeypatch) -> tuple[list[tuple[bool, int]], list[int]]:
    # One entry per max_flow query: whether its short arms filled it (it
    # returned no flow state) and how many Flows it built; and the count
    # of every Flow built, inside a query or not.
    queries: list[tuple[bool, int]] = []
    built = [0]
    init, max_flow = Flow.__init__, flow.max_flow

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counted_max_flow(*args):
        before = built[0]
        out = max_flow(*args)
        queries.append((out[2] is None, built[0] - before))
        return out

    monkeypatch.setattr(Flow, "__init__", counted_init)
    monkeypatch.setattr(flow, "max_flow", counted_max_flow)
    return queries, built


def test_filled_fans_build_no_residual(monkeypatch):
    # On dense random hosts the short arms fill every terminal fan and
    # apex step sampled here, so none of these 360 queries, and nothing
    # else, builds a flow state.
    hosts = [gen_random_kconnected(40, 7, s) for s in range(3)]
    queries, built = _count_flows(monkeypatch)
    for s, g in enumerate(hosts):
        for roots in _sampled_roots(40, 500 + s, 60):
            _apex_arms(g, terminal_fan(g, roots))
    assert len(queries) == 360
    assert queries == [(True, 0)] * 360
    assert built == [0]


def test_even_check_builds_a_residual_only_for_queries_that_fall_back(monkeypatch):
    g = gen_random_kconnected(80, 7, 1)
    queries, _ = _count_flows(monkeypatch)
    assert has_connectivity_at_least(g, 32)
    assert all(built == (not filled) for filled, built in queries)
    filled = sum(f for f, _ in queries)
    assert (len(queries), filled, len(queries) - filled) == (158, 28, 130)


def test_terminal_fan_matches_augmentation_alone_across_the_fill_point(monkeypatch):
    # Roots of weight 3, 3 and 1 on random graphs from sparse to dense:
    # the short arms fill some queries, and the rest augment from them,
    # some to a full fan and some to none.
    queries, _ = _count_flows(monkeypatch)
    rng = random.Random(29)
    cases = []  # (filled, found a fan) per root choice
    for _ in range(300):
        n = rng.randint(8, 22)
        g = _random_graph(rng, n, rng.choice((0.35, 0.5, 0.65, 0.8)))
        roots = RootQuadruple(*rng.sample(range(n), 4))
        tf = terminal_fan(g, roots)
        assert repr(tf) == repr(_reference_terminal_fan(g, roots))
        cases.append((queries[-1][0], tf is not None))
    fills = sum(filled for filled, _ in cases)
    fans_after_augmenting = cases.count((False, True))
    assert fills >= 50 and len(cases) - fills >= 50 and fans_after_augmenting >= 30
