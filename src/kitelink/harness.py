"""Campaign runner: generate instances, run the constructor, verify, and
report as JSON lines.

Reports are byte-deterministic for a fixed config: wall-clock time is
only recorded when timing is requested, and everything else is a pure
function of the seed.  Trials run one after another and reports come
back in trial order.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from .constructor import FindKiteOptions, find_kite
from .errors import DEFAULT_BUDGET, BudgetExceeded, KitelinkError, PreconditionViolated
from .generators import gen_complete_minus_matching, gen_random_kconnected
from .graphs import Graph
from .oracle import SearchBudget, find_kite_exhaustive
from .structures import RootQuadruple, verify_kite

_ROOT_SALT = 0x9E3779B9
_ORACLE_SALT = 7919


@dataclass(frozen=True)
class TrialConfig:
    generator: str = "random"  # "random" or "kminusmatching"
    n: int = 12
    k: int = 7
    matching: int = 0
    trials: int = 10
    seed: int = 0
    roots: str = "sampled"  # "sampled" or "exhaustive"
    oracle_fraction: float = 0.0
    budget: int = DEFAULT_BUDGET
    timing: bool = False

    def __post_init__(self):
        if self.generator not in ("random", "kminusmatching"):
            raise PreconditionViolated(f"unknown generator {self.generator!r}")
        if self.roots not in ("sampled", "exhaustive"):
            raise PreconditionViolated(f"unknown root policy {self.roots!r}")
        if self.roots == "sampled" and self.trials < 1:
            raise PreconditionViolated("need at least one trial")
        if not 0.0 <= self.oracle_fraction <= 1.0:
            raise PreconditionViolated("oracle fraction must sit in [0, 1]")
        if self.budget < 1:
            raise PreconditionViolated("budget needs at least one expansion")


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

    def as_json(self, timing: bool = False) -> dict:
        out = {
            "trial": self.index,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "roots": list(self.roots),
            "outcome": self.outcome,
            "stage": self.stage,
            "verified": self.verified,
            "oracle_checked": self.oracle_checked,
            "oracle_agrees": self.oracle_agrees,
            "error": self.error,
            "kite": self.kite,
        }
        if timing:
            out["wall_ms"] = self.wall_ms
        return out


def _trial_seed(config: TrialConfig, index: int) -> int:
    return config.seed * 1_000_003 + index


def _make_graph(config: TrialConfig, seed: int) -> Graph:
    if config.generator == "kminusmatching":
        return gen_complete_minus_matching(config.n, config.matching)
    return gen_random_kconnected(config.n, config.k, seed)


def _tasks(config: TrialConfig) -> list[tuple[int, Graph, int, RootQuadruple]]:
    if config.roots == "exhaustive":
        seed = _trial_seed(config, 0)
        g = _make_graph(config, seed)
        quads = [
            RootQuadruple(a, b, c, d)
            for a, b, c, d in itertools.permutations(range(g.n), 4)
        ]
        return [(i, g, seed, roots) for i, roots in enumerate(quads)]
    out = []
    for i in range(config.trials):
        seed = _trial_seed(config, i)
        g = _make_graph(config, seed)
        rng = random.Random(seed ^ _ROOT_SALT)
        a, b, c, d = rng.sample(range(g.n), 4)
        out.append((i, g, seed, RootQuadruple(a, b, c, d)))
    return out


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


def run_trials(config: TrialConfig) -> list[TrialReport]:
    """Execute the whole campaign; one report per trial, in trial order."""
    return [_run_one(t, config) for t in _tasks(config)]


def stage_counts(reports: list[TrialReport]) -> dict[str, int]:
    """How many trials each stage settled; failures count as 'failure'."""
    out: dict[str, int] = {}
    for r in reports:
        key = r.stage if r.outcome == "success" else "failure"
        out[key] = out.get(key, 0) + 1
    return out


def report_lines(reports: list[TrialReport], timing: bool = False):
    for r in reports:
        yield json.dumps(r.as_json(timing), separators=(",", ":"))
