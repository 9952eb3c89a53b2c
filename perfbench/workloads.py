"""The four workloads.

Each builds its inputs from the workload seed in `setup` and returns a
deck of items; the runner feeds the deck to `run` one item at a time, a
closed loop with one caller.  `run` times only the work a library user
waits for and checks every answer outside the timed region.  In a
traced run each item is also replayed layer by layer (see replay.py).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from kitelink import (
    FindKiteOptions,
    Graph,
    RootQuadruple,
    SearchBudget,
    TrialConfig,
    find_kite,
    find_kite_exhaustive,
    gen_random_kconnected,
    has_connectivity_at_least,
    kite_from_json,
    run_trials,
    verify_kite,
    vertex_connectivity,
)

from replay import (
    FIND_KITE,
    DeadlineMissed,
    Tracer,
    deadline,
    public_stage,
    replay_find_kite,
    within_call_budget,
)


@dataclass
class Call:
    """One find_kite call: where, on what, how it ended and how long it took."""

    key: object  # the same input run again has the same key
    host: str
    roots: tuple[int, int, int, int]
    stage: str  # find_kite's stage, or "timeout"
    ms: float
    split: dict[str, float] | None = None  # layer -> ms of the replay, traced runs only


@dataclass
class Tally:
    """What the measured part of a run produced."""

    item: int = 0  # deck index of the item running now
    ops: list[tuple[int, int, float]] = field(default_factory=list)  # (item, operations, seconds)
    calls: list[Call] = field(default_factory=list)
    oracle_ms: list[float] = field(default_factory=list)
    # Keys of the inputs that failed in any of their runs.  One input is one
    # operation in the result's attempted and failed counts, which therefore
    # repeat exactly for a seed, however many repeats the window holds.
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    # Counts over the first pass of the deck, which repeat exactly for a seed.
    exact: bool = True
    stages: dict[str, int] = field(default_factory=dict)
    misses: int = 0
    # Traced runs: over the calls replayed to the end, the untraced
    # find_kite time, the replay time and the part the layer spans cover.
    kite_seconds: float = 0.0
    replay_seconds: float = 0.0
    covered_seconds: float = 0.0

    def count(self, stage: str) -> None:
        if self.exact:
            self.stages[stage] = self.stages.get(stage, 0) + 1


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return Graph(n, sorted(edges))


def _label(n: int, steps: tuple[int, ...]) -> str:
    return f"C{n}({','.join(map(str, steps))})"


def _circulants(hosts) -> dict[str, Graph]:
    return {_label(n, steps): circulant(n, steps) for n, steps in hosts}


def _sample_roots(rng: random.Random, n: int) -> RootQuadruple:
    return RootQuadruple(*rng.sample(range(n), 4))


class Workload:
    name = ""
    rate_name = ""  # the plain rate's name: what one operation is
    deadline_s: float | None = None  # wall-clock limit of one call
    budget_calls: int | None = None  # work limit of one call, see CirculantSweep
    quick_s = 0.0  # calls at least this long are checked against budget_calls
    try_direct = False

    def __init__(self, seed: int, tally: Tally, tracer: Tracer | None):
        self.seed = seed
        self.tally = tally
        self.tr = tracer
        self.hosts: dict[str, Graph] = {}
        self.conn_s: list[float] = []  # certification time of each set-up

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def setup(self, tr: Tracer | None) -> list:
        raise NotImplementedError

    def run(self, item) -> None:
        host, roots = item
        res, call = self.kite_call(host, roots)
        if self.tr is not None:
            with self.tr.op():
                call.split = self.replay(host, roots, res, call.ms)
        self.tally.ops.append((self.tally.item, 1, call.ms / 1000.0))

    def kite_call(self, host: str, roots: RootQuadruple):
        """Timed find_kite plus its checks; returns (result or None, Call)."""
        g, tally = self.hosts[host], self.tally
        options = FindKiteOptions(try_direct=self.try_direct)
        start = time.perf_counter()
        try:
            with deadline(self.deadline_s):
                res = find_kite(g, roots, options)
        except DeadlineMissed:
            res = None
        ms = (time.perf_counter() - start) * 1000.0
        if (
            res is not None
            and self.budget_calls is not None
            and ms >= self.quick_s * 1000.0
            and not within_call_budget(self.budget_calls, find_kite, g, roots, options)
        ):
            res = None
        if res is None:
            tally.failed.add(tally.item)
            if tally.exact:
                tally.misses += 1
        else:
            if not verify_kite(g, roots, res.kite):
                tally.problems.append(f"{host} {roots.as_tuple()}: find_kite kite rejected")
            if res.stage == "fallback":
                tally.failed.add(tally.item)
        call = Call(tally.item, host, roots.as_tuple(), "timeout" if res is None else res.stage, ms)
        if self.tr is None:
            tally.count(call.stage)
        tally.calls.append(call)
        return res, call

    def replay(self, host: str, roots: RootQuadruple, res, ms: float) -> dict[str, float]:
        """Replay one find_kite call with spans and compare the answers.

        Returns the replay's per-layer split in ms.  The replay of a call
        that missed its deadline is cut after quick_s and shows the cut in
        its spans; a replay cut short is not a mismatch.
        """
        g, tr, tally = self.hosts[host], self.tr, self.tally
        first = len(tr.spans)
        try:
            with deadline(self.quick_s if res is None else self.deadline_s):
                stage, kite = replay_find_kite(tr, g, roots, self.try_direct)
        except DeadlineMissed:
            stage, kite = "timeout", None
        tally.count(stage)
        if res is not None and stage != "timeout":
            where = f"{host} {roots.as_tuple()}"
            self._compare(tally.item, where, stage, kite, res.stage, res.kite, ms, first)
        return self._split(first)

    def _compare(self, key, where, stage, kite, want_stage, want_kite, ms, first) -> None:
        tally = self.tally
        if public_stage(stage) != want_stage or kite != want_kite:
            tally.failed.add(key)
            tally.problems.append(f"{where}: replay gave {stage}, find_kite gave {want_stage}")
        tally.kite_seconds += ms / 1000.0
        for s in self.tr.spans[first:]:
            if s.layer == FIND_KITE:
                tally.replay_seconds += s.seconds
            elif s.parent == FIND_KITE:
                tally.covered_seconds += s.seconds

    def _split(self, first: int) -> dict[str, float]:
        split: dict[str, float] = {}
        for s in self.tr.spans[first:]:
            split[s.layer] = split.get(s.layer, 0.0) + s.seconds * 1000.0
        return split

    def certify(self, tr: Tracer | None, expected: int) -> None:
        """vertex_connectivity on every host, asserting kappa."""
        total = 0.0
        for host, g in self.hosts.items():
            start = time.perf_counter()
            if tr is None:
                k = vertex_connectivity(g).k
            else:
                with tr.op():
                    k = tr.call("fans.vertex_connectivity", vertex_connectivity, g).k
            total += time.perf_counter() - start
            if k != expected:
                self.tally.problems.append(f"{host}: connectivity {k}, expected {expected}")
        self.conn_s.append(total)


class Campaign14(Workload):
    """harness.run_trials as a campaign user runs it: random n=14 hosts,
    sampled roots, a fifth of the trials cross-checked by the oracle."""

    name = "campaign14"
    rate_name = "trials_per_s"
    TRIALS = 10  # per campaign; one campaign is one deck item
    CAMPAIGNS = 24  # per deck

    @staticmethod
    def config(seed: int, trials: int) -> TrialConfig:
        return TrialConfig(
            generator="random", n=14, k=7, trials=trials, seed=seed,
            roots="sampled", oracle_fraction=0.2, timing=True,
        )

    def setup(self, tr):
        seeds = self.rng("campaigns").sample(range(1, 1 << 30), self.CAMPAIGNS + 1)
        # There are no inputs to build; set-up is a short campaign, which
        # the first time also loads what a campaign needs.
        run_trials(self.config(seeds[0], 3))
        return [self.config(s, self.TRIALS) for s in seeds[1:]]

    def run(self, cfg: TrialConfig) -> None:
        tally, tr = self.tally, self.tr
        start = time.perf_counter()
        if tr is None:
            reports = run_trials(cfg)
        else:
            with tr.op():
                reports = tr.call("harness.run_trials", run_trials, cfg)
        tally.ops.append((tally.item, len(reports), time.perf_counter() - start))
        for j, r in enumerate(reports):
            host = f"G14#{r.seed}"
            if r.outcome != "success" or not r.verified or (
                r.oracle_checked and r.oracle_agrees is not True
            ):
                tally.problems.append(f"{host} {r.roots}: {r.outcome} {r.stage} {r.error}")
            if r.stage == "fallback":
                tally.failed.add((tally.item, j))
            call = Call((tally.item, j), host, r.roots, r.stage, r.wall_ms)
            if tr is None:
                tally.count(r.stage)
            else:
                with tr.op():
                    call.split = self.replay_trial(cfg, r, call.key)
            tally.calls.append(call)

    def replay_trial(self, cfg: TrialConfig, r, key) -> dict[str, float]:
        """Regenerate the trial's host and replay the trial: generation, a
        connectivity check on the accepted graph, find_kite, the oracle."""
        tr, tally = self.tr, self.tally
        host = f"G14#{r.seed}"
        first = len(tr.spans)
        g = tr.call("generators.gen_random_kconnected", gen_random_kconnected, cfg.n, cfg.k, r.seed)
        if g.m != r.m or not tr.call(
            "fans.has_connectivity_at_least", has_connectivity_at_least, g, cfg.k
        ):
            tally.problems.append(f"{host}: regenerated host differs or is not {cfg.k}-connected")
        roots = RootQuadruple(*r.roots)
        mark = len(tr.spans)
        stage, kite = replay_find_kite(tr, g, roots, True, cfg.budget)
        tally.count(stage)
        # The harness reports wall_ms around find_kite plus its own verify_kite.
        want = None if r.kite is None else kite_from_json(r.kite)[1]
        self._compare(key, f"{host} {r.roots}", stage, kite, r.stage, want, r.wall_ms, mark)
        if r.oracle_checked:
            witness = tr.call(
                "oracle.find_kite_exhaustive", find_kite_exhaustive, g, roots, SearchBudget(cfg.budget)
            )
            if witness is None or not verify_kite(g, roots, witness):
                tally.problems.append(f"{host} {r.roots}: oracle witness missing or invalid")
        return self._split(first)


class Random40(Workload):
    """find_kite(try_direct=False) on dense random 7-connected n=40 hosts."""

    name = "random40"
    rate_name = "kites_per_s"
    HOSTS = 3
    ROOTS = 1002  # sampled root choices per deck, dealt over the hosts in turn

    def setup(self, tr):
        self.hosts = {}
        for seed in self.rng("hosts").sample(range(1, 1 << 30), self.HOSTS):
            if tr is None:
                g = gen_random_kconnected(40, 7, seed)
            else:
                with tr.op():
                    g = tr.call("generators.gen_random_kconnected", gen_random_kconnected, 40, 7, seed)
                    tr.call("fans.has_connectivity_at_least", has_connectivity_at_least, g, 7)
            self.hosts[f"R40#{seed}"] = g
        rng, names = self.rng("roots"), list(self.hosts)
        return [(names[i % len(names)], _sample_roots(rng, 40)) for i in range(self.ROOTS)]


# Sparse 8-connected circulants: the only hosts seen to reach claim3 and
# flower, and the ones with the two_linkage tail.
SWEEP = [(n, s) for s in ((1, 2, 3, 4), (1, 2, 4, 7), (1, 3, 5, 7)) for n in (20, 30, 40)]
NAMED = (
    ((30, (1, 2, 4, 7)), (28, 13, 12, 5)),  # claim3; two_linkage holds most of the call
    ((26, (1, 2, 3, 4)), (23, 0, 17, 9)),  # flower
)


class CirculantSweep(Workload):
    """find_kite(try_direct=False) over sparse circulants, each host first
    certified 8-connected, every call under a deadline."""

    name = "circulant_sweep"
    rate_name = "kites_per_s"
    PER_HOST = 20  # sampled root choices per sweep host per deck
    # The deadline is a work budget: a call misses it when it makes more
    # than budget_calls Python function calls, so an input misses on every
    # run or on none, whatever the machine's speed.  Counting slows a call
    # about 3.7x, so only calls of quick_s or more are counted again, and
    # a call still running at deadline_s is stopped and counted a miss.
    # On a 2-core Xeon the calls that make most Python calls (two_linkage
    # searches) take 0.36-0.58 us per call, and the machine's speed swings
    # by about 1.6x, so a call over budget takes at least 3 s, twice
    # quick_s, and one within budget at most 8 s, 2/3 of deadline_s.  The
    # named claim3 call makes 6.2 million calls in 1.7-3 s.
    budget_calls = 12_000_000
    quick_s = 1.5
    deadline_s = 12.0

    def setup(self, tr):
        self.hosts = _circulants(SWEEP + [host for host, _ in NAMED])
        self.certify(tr, 8)
        rng = self.rng("roots")
        sampled = [(_label(n, s), _sample_roots(rng, n)) for n, s in SWEEP for _ in range(self.PER_HOST)]
        rng.shuffle(sampled)
        return [(_label(*host), RootQuadruple(*r)) for host, r in NAMED] + sampled


class OracleCheck(Workload):
    """find_kite against find_kite_exhaustive on small circulants: both
    kites verified, and both must exist."""

    name = "oracle_check"
    rate_name = "checks_per_s"
    try_direct = True  # default options, as cross-checking users call it
    PER_HOST = 60
    # No C14(1,2,4,7): step 7 is half of 14, so that host is only 7-regular.
    HOSTS = [(n, (1, 2, 3, 4)) for n in (14, 16, 18)] + [(n, (1, 2, 4, 7)) for n in (16, 18)]

    def setup(self, tr):
        self.hosts = _circulants(self.HOSTS)
        self.certify(tr, 8)
        rng = self.rng("roots")
        deck = [(_label(n, s), _sample_roots(rng, n)) for n, s in self.HOSTS for _ in range(self.PER_HOST)]
        rng.shuffle(deck)
        return deck

    def run(self, item) -> None:
        host, roots = item
        g, tally, tr = self.hosts[host], self.tally, self.tr
        res, call = self.kite_call(host, roots)
        if tr is None:
            start = time.perf_counter()
            witness = find_kite_exhaustive(g, roots)
            oracle_ms = (time.perf_counter() - start) * 1000.0
        else:
            with tr.op():
                call.split = self.replay(host, roots, res, call.ms)
                start = time.perf_counter()
                witness = tr.call("oracle.find_kite_exhaustive", find_kite_exhaustive, g, roots)
                oracle_ms = (time.perf_counter() - start) * 1000.0
        tally.oracle_ms.append(oracle_ms)
        tally.ops.append((tally.item, 1, (call.ms + oracle_ms) / 1000.0))
        if witness is None or not verify_kite(g, roots, witness):
            tally.problems.append(f"{host} {roots.as_tuple()}: oracle witness missing or invalid")
        if res is None:
            tally.problems.append(f"{host} {roots.as_tuple()}: find_kite gave no kite, the oracle did")


WORKLOADS = {w.name: w for w in (Campaign14, Random40, CirculantSweep, OracleCheck)}
