"""Brute-force ground truth for rooted kites.

Everything here is definitional search, written independently of the
constructive pipeline so the two can check each other.  A rooted kite is
found by enumerating its four connecting paths directly: the cycle
through x1, x2, x3 split at the roots into three arcs, then the pendant
from x2 to x4.  Feasible up to roughly n = 14; beyond that budgets bite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded, GraphTooSmall, PreconditionViolated
from .graphs import Graph, connected_avoiding
from .paths import Cycle, Path
from .structures import KiteSubdivision, RootQuadruple


@dataclass(frozen=True)
class SearchBudget:
    """Cap on node expansions for one exhaustive call.

    Neighbors are scanned in vertex order, so the first (hence
    lexicographically least) solution is returned.  The search is
    complete within the budget.
    """

    max_expansions: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_expansions < 1:
            raise PreconditionViolated("budget needs at least one expansion")


@dataclass(frozen=True)
class KiteLinkedVerdict:
    linked: bool
    witness: RootQuadruple | None

    def __bool__(self) -> bool:
        return self.linked


def _bits(vertices) -> int:
    mask = 0
    for u in vertices:
        mask |= 1 << u
    return mask


class _PathSearch:
    """Shared DFS plumbing: budget counter, pruning."""

    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.budget = budget
        self.spent = 0

    def walk(self, v: int, goal: int, blocked: int, acc: list[int]):
        """Yield every simple path v -> goal through vertices outside the
        bitmask blocked.

        acc already contains v, and blocked includes every vertex of acc.
        """
        self.spent += 1
        if self.spent > self.budget.max_expansions:
            raise BudgetExceeded(
                f"kite search exceeded {self.budget.max_expansions} expansions"
            )
        if v == goal:
            yield list(acc)
            return
        if not connected_avoiding(self.g, v, goal, blocked):
            return
        for w in self.g.neighbors(v):
            if blocked >> w & 1:
                continue
            acc.append(w)
            yield from self.walk(w, goal, blocked | 1 << w, acc)
            acc.pop()


def find_kite_exhaustive(
    g: Graph, roots: RootQuadruple, budget: SearchBudget | None = None
) -> KiteSubdivision | None:
    """The definitional rooted-kite search; None means none exists.

    The cycle is enumerated as three arcs (x2->x1 dodging x3, x1->x3
    dodging x2, x3->x2 dodging x1), the pendant last, so partial cycles
    are pruned by reachability before pendant work starts.
    """
    if budget is None:
        budget = SearchBudget()
    if g.n < 4:
        raise GraphTooSmall("a rooted kite needs four distinct roots")
    if not roots.in_range(g.n):
        raise PreconditionViolated(f"roots {roots.as_tuple()} outside graph")
    x1, x2, x3, x4 = roots.as_tuple()
    search = _PathSearch(g, budget)
    x4_bit = 1 << x4
    for a_arc in search.walk(x2, x1, _bits((x2, x3, x4)), [x2]):
        for b_arc in search.walk(x1, x3, _bits(a_arc) | x4_bit, [x1]):
            used = _bits(a_arc) | _bits(b_arc)
            for c_arc in search.walk(x3, x2, used & ~(1 << x2) | x4_bit, [x3]):
                cycle = a_arc + b_arc[1:] + c_arc[1:-1]
                for pendant in search.walk(x2, x4, _bits(cycle), [x2]):
                    return KiteSubdivision.from_parts(Cycle(cycle), Path(pendant))
    return None


def is_kite_linked(g: Graph, budget: SearchBudget | None = None) -> KiteLinkedVerdict:
    """Decide kite-linkage by trying every root assignment.

    The kite's only symmetry swaps x1 and x3, so injections are scanned
    with x1 < x3; counts are half the naive n(n-1)(n-2)(n-3).  The budget
    applies per root assignment, not to the whole scan.
    """
    if g.n < 4:
        raise GraphTooSmall("kite-linkage needs at least 4 vertices")
    for x1 in range(g.n):
        for x3 in range(x1 + 1, g.n):
            for x2 in range(g.n):
                if x2 == x1 or x2 == x3:
                    continue
                for x4 in range(g.n):
                    if x4 == x1 or x4 == x2 or x4 == x3:
                        continue
                    roots = RootQuadruple(x1, x2, x3, x4)
                    if find_kite_exhaustive(g, roots, budget) is None:
                        return KiteLinkedVerdict(False, roots)
    return KiteLinkedVerdict(True, None)
