"""Brute-force ground truth for rooted kites.

Everything here is definitional search, written independently of the
constructive pipeline so the two can check each other.  A rooted kite is
found by enumerating its four connecting paths directly: the cycle
through x1, x2, x3 split at the roots into three arcs, then the pendant
from x2 to x4, each walked depth-first without recursion.  Feasible up
to roughly n = 14; beyond that budgets bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import (
    DEFAULT_BUDGET, BudgetExceeded, GraphTooSmall, PreconditionViolated, check_budget
)
from .graphs import Graph, connected_avoiding, vertex_mask
from .paths import Cycle, Path
from .structures import KiteSubdivision, RootQuadruple


@dataclass(frozen=True)
class SearchBudget:
    """Cap on node expansions for one exhaustive call, or for a whole
    is_kite_linked scan.

    Neighbors are scanned in vertex order, so the first (hence
    lexicographically least) solution is returned.  The search is
    complete within the budget.
    """

    max_expansions: int = DEFAULT_BUDGET

    def __post_init__(self):
        check_budget(self.max_expansions)


@dataclass(frozen=True)
class KiteLinkedVerdict:
    linked: bool
    witness: RootQuadruple | None

    def __bool__(self) -> bool:
        return self.linked


class _PathSearch:
    """Shared DFS plumbing: budget counter, pruning."""

    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.budget = budget
        self.spent = 0

    def walk(self, v: int, goal: int, blocked: int):
        """Yield every simple path v -> goal through vertices outside the
        bitmask blocked, which includes v.

        Depth-first, with one neighbour iterator per vertex of the path
        on an explicit stack, so a long path costs no recursion.
        Entering a vertex spends one expansion.
        """
        acc = [v]
        frames = []
        while True:
            self.spent += 1
            if self.spent > self.budget.max_expansions:
                raise BudgetExceeded(
                    f"kite search exceeded {self.budget.max_expansions} expansions"
                )
            if v == goal:
                yield list(acc)
            live = v != goal and connected_avoiding(self.g, v, goal, blocked)
            frames.append(iter(self.g.neighbors(v) if live else ()))
            while True:
                v = next(frames[-1], -1)
                if v < 0:
                    frames.pop()
                    blocked ^= 1 << acc.pop()
                    if not frames:
                        return
                elif not blocked >> v & 1:
                    break
            acc.append(v)
            blocked |= 1 << v


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
    return _search_kite(_PathSearch(g, budget), roots)


def _search_kite(search: _PathSearch, roots: RootQuadruple) -> KiteSubdivision | None:
    """find_kite_exhaustive's search, spending search's budget."""
    x1, x2, x3, x4 = roots.as_tuple()
    x4_bit = 1 << x4
    for a_arc in search.walk(x2, x1, vertex_mask((x2, x3, x4))):
        for b_arc in search.walk(x1, x3, vertex_mask(a_arc) | x4_bit):
            used = vertex_mask(a_arc) | vertex_mask(b_arc)
            for c_arc in search.walk(x3, x2, used & ~(1 << x2) | x4_bit):
                cycle = a_arc + b_arc[1:] + c_arc[1:-1]
                for pendant in search.walk(x2, x4, vertex_mask(cycle)):
                    return KiteSubdivision.from_parts(Cycle(cycle), Path(pendant))
    return None


def is_kite_linked(g: Graph, budget: SearchBudget | None = None) -> KiteLinkedVerdict:
    """Decide kite-linkage by trying every root assignment.

    The kite's only symmetry swaps x1 and x3, so injections are scanned
    with x1 < x3; counts are half the naive n(n-1)(n-2)(n-3).  The budget
    bounds the whole scan: every root assignment's expansions count
    against it, and BudgetExceeded is raised once their sum passes it.
    K7 spends 4,368 expansions over its 420 root assignments.
    """
    if g.n < 4:
        raise GraphTooSmall("kite-linkage needs at least 4 vertices")
    if budget is None:
        budget = SearchBudget()
    search = _PathSearch(g, budget)
    for x1, x3, x2, x4 in permutations(range(g.n), 4):
        if x1 < x3:
            roots = RootQuadruple(x1, x2, x3, x4)
            if _search_kite(search, roots) is None:
                return KiteLinkedVerdict(False, roots)
    return KiteLinkedVerdict(True, None)
