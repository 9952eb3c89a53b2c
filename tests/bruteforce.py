"""Brute-force reference implementations used only by the test suite.

Everything here is written from the definitions, with no pruning beyond
simple-path constraints, so it stays independent of the library's search
code; the one exception, index_order_connectivity_at_least, is a frozen
copy of an earlier library check. Sizes are kept small enough for
exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from kitelink.errors import BudgetExceeded, DuplicateTerminals, GraphTooSmall, PreconditionViolated
from kitelink.graphs import Graph
from kitelink.linkage import LinkagePair
from kitelink.paths import Path
from kitelink.structures import RootQuadruple


def all_simple_paths(g: Graph, s: int, t: int, banned: frozenset[int] = frozenset()):
    """Yield every simple s-t path avoiding `banned` as a vertex tuple."""
    if s in banned or t in banned:
        return
    stack: list[int] = [s]
    on_stack = {s}

    def rec():
        v = stack[-1]
        if v == t:
            yield tuple(stack)
            return
        for w in g.neighbors(v):
            if w in on_stack or w in banned:
                continue
            stack.append(w)
            on_stack.add(w)
            yield from rec()
            stack.pop()
            on_stack.remove(w)

    yield from rec()


def rooted_kite_exists(g: Graph, roots: RootQuadruple) -> bool:
    """Definitional check: cycle through x1, x2, x3 plus a pendant to x4.

    The cycle is split at the three branch vertices into arcs x1-x2,
    x2-x3, x3-x1 with pairwise disjoint interiors; x4 never lies on the
    cycle because the pendant may meet it only at x2.
    """
    x1, x2, x3, x4 = roots.as_tuple()
    for arc1 in all_simple_paths(g, x1, x2, frozenset({x3, x4})):
        used1 = frozenset(arc1)
        for arc2 in all_simple_paths(g, x2, x3, (used1 - {x2}) | {x4}):
            used2 = used1 | frozenset(arc2)
            for arc3 in all_simple_paths(g, x3, x1, (used2 - {x1, x3}) | {x4}):
                cycle = used2 | frozenset(arc3)
                for _ in all_simple_paths(g, x2, x4, cycle - {x2}):
                    return True
    return False


def two_linkage_oracle(
    g: Graph, s1: int, t1: int, s2: int, t2: int, budget: int = 1_000_000
) -> LinkagePair | None:
    """Disjoint s1-t1 and s2-t2 paths by enumerating both, or None.

    Rejects terminals the way the solver does, counts node expansions
    and raises BudgetExceeded when the budget runs out before the answer
    is known.
    """
    terms = (s1, t1, s2, t2)
    if any(not 0 <= v < g.n for v in terms):
        raise PreconditionViolated(f"terminals {terms} outside graph")
    if len(set(terms)) != 4:
        raise DuplicateTerminals(f"terminals must be distinct, got {terms}")
    spent = [0]

    def charge():
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceeded(f"linkage oracle exceeded {budget} expansions")

    def paths_from(v: int, goal: int, used: set[int], acc: list[int]):
        charge()
        if v == goal:
            yield list(acc)
            return
        for w in g.neighbors(v):
            if w in used:
                continue
            used.add(w)
            acc.append(w)
            yield from paths_from(w, goal, used, acc)
            acc.pop()
            used.remove(w)

    for first in paths_from(s1, t1, {s1, s2, t2}, [s1]):
        blocked = set(first) | {s2}
        for second in paths_from(s2, t2, set(blocked), [s2]):
            return LinkagePair(Path(first), Path(second))
    return None


def brute_connectivity(g: Graph) -> int:
    """Vertex connectivity by cut enumeration; complete graphs give n-1."""
    verts = list(range(g.n))
    if g.n <= 1:
        return 0
    for k in range(0, g.n - 1):
        for cut in itertools.combinations(verts, k):
            if separates(g, frozenset(cut)):
                return k
    return g.n - 1


def index_order_connectivity_at_least(g: Graph, k: int) -> bool:
    """Even's check (SIAM J. Comput. 4, 1975) with the vertices in index
    order: a copy of has_connectivity_at_least before it scanned them by
    degree, kept as the reference its decisions are compared against."""
    if g.n < 2:
        raise GraphTooSmall("connectivity needs at least two vertices")
    if k <= 0:
        return True
    if g.min_degree() < k:
        return False
    net = g.split_network()
    for t in range(k):
        for s in range(t):
            if g.has_edge(s, t) or (g.adjacency_mask(s) & g.adjacency_mask(t)).bit_count() >= k:
                continue
            if net.max_flow(s, 1 << t, {t: k}, k)[0] < k:
                return False
    for j in range(k, g.n):
        if bisect_left(g.neighbors(j), j) >= k:
            continue
        if net.max_flow(j, (1 << j) - 1, {}, k)[0] < k:
            return False
    return True


def separates(g: Graph, removed: frozenset[int]) -> bool:
    """True when g minus the removed set has two or more components."""
    left = [v for v in range(g.n) if v not in removed]
    if len(left) < 2:
        return False
    seen = {left[0]}
    frontier = [left[0]]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in removed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) < len(left)


def brute_max_fan(g: Graph, x: int, targets: frozenset[int]) -> int:
    """Largest fan size from x into targets, via the separator dual.

    The fan version of Menger: the maximum number of paths from x to
    targets, disjoint except at x and each meeting targets once, equals
    the minimum size of a vertex set T (x excluded, targets allowed)
    meeting every x-targets path.
    """
    others = [v for v in range(g.n) if v != x]
    best = len(others)
    for k in range(0, len(others) + 1):
        if k >= best:
            break
        for cut in itertools.combinations(others, k):
            if _separates_fan(g, x, targets, frozenset(cut)):
                best = k
                break
    return best


def _separates_fan(g: Graph, x: int, targets: frozenset[int], cut: frozenset[int]) -> bool:
    if x in targets:
        return False
    seen = {x}
    frontier = [x]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w in cut or w in seen:
                continue
            if w in targets:
                return False
            seen.add(w)
            frontier.append(w)
    return True


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    """C_n(steps): vertex i joined to i + s and i - s mod n for each step s."""
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def joined_rings(n: int) -> Graph:
    """Two C_h(1,2,3,4) rings, h = n // 2, on 0..h-1 and h..2h-1, joined
    by the edges i -- h + i for i = 0, h // 3 and 2h // 3: minimum
    degree 8 and connectivity 3."""
    h = n // 2
    edges = [(o + i, o + (i + s) % h) for o in (0, h) for i in range(h) for s in (1, 2, 3, 4)]
    return Graph(2 * h, edges + [(i, h + i) for i in (0, h // 3, 2 * h // 3)])


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def mask_to_graph(n: int, mask: int) -> Graph:
    pairs = _pairs(n)
    edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
    return Graph(n, edges)


def _mask_connected(n: int, mask: int, pairs: list[tuple[int, int]]) -> bool:
    adj = [0] * n
    for b, (i, j) in enumerate(pairs):
        if mask >> b & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        rest = adj[v] & ~seen
        while rest:
            low = rest & -rest
            rest ^= low
            seen |= low
            frontier.append(low.bit_length() - 1)
    return seen == (1 << n) - 1


def connected_masks(n: int):
    """Yield the edge bitmask of every labeled connected graph on n vertices."""
    pairs = _pairs(n)
    for mask in range(1 << len(pairs)):
        if _mask_connected(n, mask, pairs):
            yield mask


def connected_representatives(n: int) -> list[Graph]:
    """One labeled representative per isomorphism class of connected graphs.

    A mask is kept when no vertex permutation maps it to a smaller mask,
    so the representatives are the lexicographic minima of their orbits.
    """
    pairs = _pairs(n)
    index = {p: b for b, p in enumerate(pairs)}
    eperms = []
    for perm in itertools.permutations(range(n)):
        eperms.append(tuple(index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs))
    reps = []
    for mask in connected_masks(n):
        canonical = True
        for ep in eperms:
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                out |= 1 << ep[low.bit_length() - 1]
            if out < mask:
                canonical = False
                break
        if canonical:
            reps.append(mask_to_graph(n, mask))
    return reps
