"""Tests for the campaign runner."""

import json
from dataclasses import fields

import pytest

from kitelink import harness
from kitelink.errors import GraphTooSmall, PreconditionViolated
from kitelink.harness import TrialConfig, TrialReport, report_lines, run_trials, stage_counts


def test_config_rejects_unknown_generator():
    with pytest.raises(PreconditionViolated):
        TrialConfig(generator="dense")


def test_config_rejects_unknown_root_policy():
    with pytest.raises(PreconditionViolated):
        TrialConfig(roots="all")


def test_config_rejects_empty_campaign():
    with pytest.raises(PreconditionViolated):
        TrialConfig(trials=0)


def test_config_rejects_fewer_than_four_vertices():
    for generator in ("random", "kminusmatching"):
        for roots in ("sampled", "exhaustive"):
            for n in (0, 3):
                with pytest.raises(GraphTooSmall):
                    TrialConfig(generator=generator, n=n, roots=roots)
    assert len(run_trials(TrialConfig(generator="kminusmatching", n=4, trials=1))) == 1


def test_config_rejects_bad_oracle_fraction():
    with pytest.raises(PreconditionViolated):
        TrialConfig(oracle_fraction=1.5)


def test_config_rejects_nonpositive_budget():
    for budget in (0, -1):
        with pytest.raises(PreconditionViolated):
            TrialConfig(n=10, trials=3, seed=1, budget=budget)


def test_sampled_trials_use_distinct_seeds():
    config = TrialConfig(generator="random", n=10, trials=5, seed=3)
    reports = run_trials(config)
    assert len(reports) == 5
    assert [r.index for r in reports] == list(range(5))
    assert len({r.seed for r in reports}) == 5


def test_sampled_trials_are_reproducible():
    config = TrialConfig(generator="random", n=11, trials=4, seed=9)
    assert run_trials(config) == run_trials(config)


def test_exhaustive_roots_cover_every_ordered_quadruple():
    config = TrialConfig(generator="kminusmatching", n=8, matching=0, roots="exhaustive")
    reports = run_trials(config)
    assert len(reports) == 8 * 7 * 6 * 5
    assert len({r.roots for r in reports}) == len(reports)
    assert all(r.outcome == "success" and r.verified for r in reports)
    # The complete graph always carries the one-triangle kite directly.
    assert stage_counts(reports) == {"direct": len(reports)}


def test_oracle_gate_all_or_nothing():
    config = TrialConfig(generator="random", n=10, trials=4, seed=2, oracle_fraction=1.0)
    reports = run_trials(config)
    assert all(r.oracle_checked for r in reports)
    assert all(r.oracle_agrees is True for r in reports)
    silent = TrialConfig(generator="random", n=10, trials=4, seed=2)
    assert all(not r.oracle_checked for r in run_trials(silent))


def test_oracle_out_of_budget_leaves_agreement_unknown():
    # One expansion is enough for find_kite on these hosts but not for the
    # exhaustive oracle, so each trial succeeds with no verdict from it.
    config = TrialConfig(n=12, trials=5, seed=3, oracle_fraction=1.0, budget=1)
    reports = run_trials(config)
    assert [r.outcome for r in reports] == ["success"] * 5
    assert all(r.oracle_checked and r.oracle_agrees is None for r in reports)
    assert all(json.loads(line)["oracle_agrees"] is None for line in report_lines(reports))


def test_matching_generator_fixes_graph_across_trials():
    config = TrialConfig(generator="kminusmatching", n=9, matching=3, trials=5, seed=1)
    reports = run_trials(config)
    assert {r.n for r in reports} == {9}
    assert {r.m for r in reports} == {9 * 8 // 2 - 3}


def test_budget_failures_are_reported_not_raised():
    # With a perfect matching gone every hub has degree six, so any root
    # choice missing a direct edge must run the fallback; a one-step
    # budget turns exactly those trials into reported failures.
    starved = TrialConfig(
        generator="kminusmatching", n=8, matching=4, roots="exhaustive", budget=1
    )
    reports = run_trials(starved)
    counts = stage_counts(reports)
    assert set(counts) == {"direct", "failure"}
    failed = [r for r in reports if r.outcome == "failure"]
    assert failed and all("ConstructionFailed" in r.error for r in failed)
    assert all(r.kite is None for r in failed)

    funded = TrialConfig(generator="kminusmatching", n=8, matching=4, roots="exhaustive")
    counts = stage_counts(run_trials(funded))
    assert set(counts) == {"direct", "fallback"}
    assert counts["direct"] == len(reports) - len(failed)


def test_stage_counts_total_matches_reports():
    config = TrialConfig(generator="random", n=10, trials=6, seed=7)
    reports = run_trials(config)
    assert sum(stage_counts(reports).values()) == len(reports)


def test_report_lines_shape_and_timing_key():
    config = TrialConfig(generator="random", n=10, trials=2, seed=5)
    reports = run_trials(config)
    keys = [
        "trial", "n", "m", "seed", "roots", "outcome", "stage",
        "verified", "oracle_checked", "oracle_agrees", "error", "kite",
    ]
    for line in report_lines(reports):
        obj = json.loads(line)
        assert list(obj) == keys
    # Timed, the keys still come in field order, "trial" (the index)
    # first and wall_ms last.
    assert [f.name for f in fields(TrialReport)] == ["index", *keys[1:], "wall_ms"]
    timed = run_trials(TrialConfig(generator="random", n=10, trials=2, seed=5, timing=True))
    for line in report_lines(timed):
        obj = json.loads(line)
        assert list(obj) == keys + ["wall_ms"]
        assert obj["wall_ms"] >= 0.0


def test_hosts_are_built_as_trials_reach_them(monkeypatch):
    built = []

    def counting(config, seed):
        built.append(seed)
        return make_graph(config, seed)

    make_graph = harness.GENERATORS["random"]
    monkeypatch.setitem(harness.GENERATORS, "random", counting)
    tasks = harness._tasks(TrialConfig(generator="random", n=10, trials=5, seed=4))
    assert built == []
    first = next(tasks)
    assert built == [first[2]]
    assert [t[0] for t in tasks] == [1, 2, 3, 4] and len(built) == 5
