"""Every root choice of every census class through find_kite, by
construction alone: no direct shortcut and no exhaustive fallback.

    PYTHONPATH=src python tests/census_sweep.py

runs n = 8, 9 and 10 (438,480 calls at n = 10, about 30 s), checks
every kite with verify_kite and exits 1 unless each n gives its pinned
stage counts and digest.  Criterion 10 of the acceptance battery runs
n = 8 and 9 through the same sweep.
"""

import hashlib
import itertools
import sys
from collections import Counter

from kitelink.constructor import FindKiteOptions, find_kite
from kitelink.structures import RootQuadruple, verify_kite

from bruteforce import census

CONSTRUCTION_ONLY = FindKiteOptions(try_direct=False, allow_fallback=False)

# n -> (stage counts, sha256 over repr((paths, cycles, roots, stage, kite))
# of every call in census order and root-permutation order).
PINNED = {
    8: ({"claim1": 1680}, "1f2e64819c9da3c1d10deaf9a669909eccb90f6dbcfdfec7537559796f17ecb0"),
    9: ({"claim1": 15080, "claim2": 40}, "d0e4d9b10a5017d3c2925535037f18e755b4aa2bad407b6d8414f3c7f95305d7"),
    10: (
        {"claim1": 434362, "claim2": 4075, "claim3": 43},
        "41382590181df29b45043d42e48769eeae8e8e9b04c30210ec40a57d9b5f2c77",
    ),
}


def sweep(n: int) -> tuple[dict[str, int], str]:
    """Stage counts and digest of find_kite on every ordered root choice
    of every census class on n vertices; a kite that fails verify_kite
    raises AssertionError, and a stage that fails raises StageFailure."""
    stages = Counter()
    digest = hashlib.sha256()
    for paths, cycles, g in census(n):
        for quad in itertools.permutations(range(n), 4):
            roots = RootQuadruple(*quad)
            res = find_kite(g, roots, CONSTRUCTION_ONLY)
            assert verify_kite(g, roots, res.kite), (paths, cycles, quad)
            stages[res.stage] += 1
            digest.update(repr((paths, cycles, quad, res.stage, res.kite)).encode())
    return dict(stages), digest.hexdigest()


def main() -> int:
    failed = 0
    for n, pinned in PINNED.items():
        got = sweep(n)
        print(f"n = {n}: {got[0]} {got[1]}", flush=True)
        if got != pinned:
            print(f"  expected {pinned[0]} {pinned[1]}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
