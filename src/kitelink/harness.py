"""Campaign runner: generate instances, run the constructor, verify, and
report as JSON lines.

Reports are byte-deterministic for a fixed config: wall-clock time is
only recorded when timing is requested, and everything else is a pure
function of the seed.  Trials run one after another and reports come
back in trial order, from iter_trials as each trial finishes.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

from .constructor import FindKiteOptions, find_kite
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    GraphTooSmall,
    KitelinkError,
    PreconditionViolated,
    check_budget,
)
from .generators import gen_complete_minus_matching, gen_random_kconnected
from .graphs import Graph
from .oracle import SearchBudget, find_kite_exhaustive
from .structures import RootQuadruple, verify_kite

_ROOT_SALT = 0x9E3779B9
_ORACLE_SALT = 7919

# Each trial host generator by name, called with the config and the
# trial's seed; the first is the default.
GENERATORS: dict[str, Callable[[TrialConfig, int], Graph]] = {
    "random": lambda config, seed: gen_random_kconnected(config.n, config.k, seed),
    "kminusmatching": lambda config, seed: gen_complete_minus_matching(config.n, config.matching),
}
# Sampled roots draw one quadruple per trial, each on its own host;
# exhaustive roots run every ordered quadruple of one host.
ROOT_POLICIES = _SAMPLED, _EXHAUSTIVE = ("sampled", "exhaustive")


@dataclass(frozen=True)
class TrialConfig:
    generator: str = next(iter(GENERATORS))
    n: int = 12
    k: int = 7
    matching: int = 0
    trials: int = 10
    seed: int = 0
    roots: str = _SAMPLED
    oracle_fraction: float = 0.0
    budget: int = DEFAULT_BUDGET
    timing: bool = False

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise PreconditionViolated(f"unknown generator {self.generator!r}")
        if self.n < 4:
            raise GraphTooSmall(f"four distinct roots need at least 4 vertices, got {self.n}")
        if self.roots not in ROOT_POLICIES:
            raise PreconditionViolated(f"unknown root policy {self.roots!r}")
        if self.roots == _SAMPLED and self.trials < 1:
            raise PreconditionViolated("need at least one trial")
        if not 0.0 <= self.oracle_fraction <= 1.0:
            raise PreconditionViolated("oracle fraction must sit in [0, 1]")
        check_budget(self.budget)


@dataclass(frozen=True)
class TrialReport:
    index: int
    n: int
    m: int
    seed: int
    roots: tuple[int, int, int, int]
    outcome: str  # "success" or "failure"
    stage: str
    verified: bool
    oracle_checked: bool
    oracle_agrees: bool | None
    error: str
    kite: dict | None
    wall_ms: float | None

    def as_json(self) -> dict:
        """The fields in order, index as "trial"; wall_ms left out when
        None, as it is for a trial not timed."""
        out = {
            "trial" if f.name == "index" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "wall_ms" or self.wall_ms is not None
        }
        out["roots"] = list(self.roots)
        return out


def _trial_seed(config: TrialConfig, index: int) -> int:
    return config.seed * 1_000_003 + index


def _tasks(config: TrialConfig) -> Iterator[tuple[int, Graph, int, RootQuadruple]]:
    """Each trial's task in trial order, its host built only when reached."""
    if config.roots == _EXHAUSTIVE:
        seed = _trial_seed(config, 0)
        g = GENERATORS[config.generator](config, seed)
        for i, roots in enumerate(itertools.permutations(range(g.n), 4)):
            yield i, g, seed, RootQuadruple(*roots)
        return
    for i in range(config.trials):
        seed = _trial_seed(config, i)
        g = GENERATORS[config.generator](config, seed)
        roots = random.Random(seed ^ _ROOT_SALT).sample(range(g.n), 4)
        yield i, g, seed, RootQuadruple(*roots)


def _run_one(task: tuple[int, Graph, int, RootQuadruple], config: TrialConfig) -> TrialReport:
    index, g, seed, roots = task
    options = FindKiteOptions(budget=config.budget)
    started = time.perf_counter()
    outcome, stage, verified, error, kite_json = "failure", "", False, "", None
    found = False
    try:
        result = find_kite(g, roots, options)
        verdict = verify_kite(g, roots, result.kite)
        found = True
        if verdict:
            outcome, stage, verified = "success", result.stage, True
            kite_json = result.kite.as_json(roots)
        else:
            stage, error = result.stage, f"verifier rejected: {verdict.reason}"
    except KitelinkError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - started) * 1000.0 if config.timing else None
    oracle_checked, oracle_agrees = False, None
    if config.oracle_fraction > 0.0:
        gate = random.Random(seed + _ORACLE_SALT).random()
        if gate < config.oracle_fraction:
            oracle_checked = True
            try:
                witness = find_kite_exhaustive(g, roots, SearchBudget(config.budget))
                oracle_agrees = (witness is not None) == found
            except BudgetExceeded:
                oracle_agrees = None
    return TrialReport(
        index=index,
        n=g.n,
        m=g.m,
        seed=seed,
        roots=roots.as_tuple(),
        outcome=outcome,
        stage=stage,
        verified=verified,
        oracle_checked=oracle_checked,
        oracle_agrees=oracle_agrees,
        error=error,
        kite=kite_json,
        wall_ms=wall_ms,
    )


def iter_trials(config: TrialConfig) -> Iterator[TrialReport]:
    """The campaign's reports in trial order, each as its trial finishes."""
    return (_run_one(t, config) for t in _tasks(config))


def run_trials(config: TrialConfig) -> list[TrialReport]:
    """Execute the whole campaign; one report per trial, in trial order."""
    return list(iter_trials(config))


def stage_counts(reports: Iterable[TrialReport]) -> dict[str, int]:
    """How many trials each stage settled; failures count as 'failure'."""
    return dict(Counter(r.stage if r.outcome == "success" else "failure" for r in reports))


def report_lines(reports: Iterable[TrialReport]) -> Iterator[str]:
    for r in reports:
        yield json.dumps(r.as_json(), separators=(",", ":"))
