"""kitelink benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload random40 --seed 1 --seconds 20 --trace 0

Run from a checkout: the library is imported from its `src/`.  With
`--trace 0` the run measures end to end and the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json;
with `--trace 1` every call is also replayed layer by layer and the
object holds the per-layer metrics.  The lines before it give every
figure by name and unit, the counts that must repeat exactly for a
seed, the environment and the slowest calls.  The full report is also
written to perfbench/results/.  The exit code is 1 when an output check
fails and 2 when the library is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median of SETUP_BEFORE set-ups before the measured loop
# (the last one's deck is run) and SETUP_AFTER after it, so that it reads
# the machine's speed over the whole run, not over its first seconds.
SETUP_BEFORE = 3
SETUP_AFTER = 2
# After the first pass, items slower than this many times the median item
# are not run again, so the repeats go to the items whose timings they steady.
REPEAT_CUTOFF = 20
# Each input is timed at this quantile of its repeats.  The 2-vCPU VM
# this was tuned on runs at two speeds about 1.6x apart; the slow one
# showed up in every 20 s run, the fast one in some only, so a high
# quantile reads the same state run after run where a median or a
# minimum reads whichever state happened to last longest.
REPEAT_QUANTILE = 0.9
SLOWEST = 5  # calls listed in the slowest-instance log

LAYERS = (
    "harness.run_trials",
    "generators.gen_random_kconnected",
    "fans.has_connectivity_at_least",
    "fans.vertex_connectivity",
    "constructor.find_kite",
    "fans.terminal_fan",
    "constructor.apex_fan",
    "linkage.two_linkage",
    "constructor.claim1_assembly",
    "constructor.crossing_assembly",
    "constructor.compute_landmarks",
    "constructor.claim2_assembly",
    "constructor.claim3_assembly",
    "constructor.build_flower",
    "constructor.resolve_flower",
    "structures.verify_kite",
    "oracle.find_kite_exhaustive",
)


def pct(values, q: float) -> float:
    """Linearly interpolated quantile q in [0, 1]; 0.0 for no values."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def by_key(pairs) -> dict:
    """Each key's values at REPEAT_QUANTILE."""
    runs: dict = {}
    for key, value in pairs:
        runs.setdefault(key, []).append(value)
    return {key: pct(values, REPEAT_QUANTILE) for key, values in runs.items()}


def kite_ms_by_input(tally) -> list[float]:
    """One latency per distinct find_kite input."""
    return list(by_key((c.key, c.ms) for c in tally.calls).values())


def attempted(tally) -> int:
    """Distinct inputs run: trials on campaign14, find_kite inputs elsewhere."""
    return len({c.key for c in tally.calls})


def item_rates(tally) -> list[float]:
    """Operations per second of each deck item."""
    seconds = by_key((item, s) for item, _, s in tally.ops)
    count = {item: n for item, n, _ in tally.ops}
    return [count[item] / s for item, s in seconds.items()]


def environment(workload: str, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(tally, setup_times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "kite_p50_ms": (statistics.median(kite_ms_by_input(tally)), "ms"),
        "ops_per_s": (statistics.median(item_rates(tally)), "1/s"),
    }


def workload_figures(w, tally) -> list[tuple[str, float, str, int]]:
    """Every figure that applies to the workload, as (name, value, unit, samples)."""
    kite_ms = [c.ms for c in tally.calls]
    by_input = kite_ms_by_input(tally)
    rates = item_rates(tally)
    ops = sum(n for _, n, _ in tally.ops)
    busy = sum(s for _, _, s in tally.ops)
    out = [
        ("kite_p50_ms", statistics.median(by_input), "ms", len(by_input)),
        ("kite_p90_ms", pct(kite_ms, 0.9), "ms", len(kite_ms)),
        ("kite_p99_ms", pct(kite_ms, 0.99), "ms", len(kite_ms)),
        ("kite_max_ms", max(kite_ms), "ms", len(kite_ms)),
        (w.rate_name, ops / busy, "1/s", ops),
        ("ops_per_s", statistics.median(rates), "1/s", len(rates)),
        ("fail_frac", len(tally.failed) / attempted(tally), "ratio", attempted(tally)),
    ]
    if tally.oracle_ms:
        n = len(tally.oracle_ms)
        out.append(("oracle_p50_ms", pct(tally.oracle_ms, 0.5), "ms", n))
        out.append(("oracle_p99_ms", pct(tally.oracle_ms, 0.99), "ms", n))
    if w.conn_s:
        out.append(("conn_s", statistics.median(w.conn_s), "s", len(w.conn_s)))
    return out


def per_layer(tracer, tally) -> dict:
    """Per-layer metrics from the spans; counts cover the exact part only."""
    from replay import DECLINING, STAGES

    by_layer: dict[str, list] = {}
    for s in tracer.spans:
        by_layer.setdefault(s.layer, []).append(s)
    out = {}
    for layer in LAYERS:
        spans = by_layer.get(layer, [])
        ms = [s.seconds * 1000.0 for s in spans]
        busy = sum(s.seconds for s in spans)
        enclosing = sum(tracer.op_seconds[op] for op in {s.op for s in spans})
        out[f"{layer}.calls"] = (sum(s.exact for s in spans), "count")
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.p50_ms"] = (pct(ms, 0.5), "ms")
        out[f"{layer}.p99_ms"] = (pct(ms, 0.99), "ms")
        out[f"{layer}.max_ms"] = (max(ms, default=0.0), "ms")
        out[f"{layer}.share"] = (busy / enclosing if enclosing else 0.0, "ratio")
    for layer in DECLINING:
        calls = sum(s.exact and not s.timed_out for s in by_layer.get(layer, []))
        hits = calls - tracer.declined.count(layer)
        out[f"{layer}.hit_frac"] = (hits / calls if calls else 0.0, "ratio")
    timeouts = sum(s.exact and s.timed_out for s in by_layer.get("linkage.two_linkage", []))
    out["linkage.two_linkage.timeouts"] = (timeouts, "count")
    for stage in STAGES:
        out[f"constructor.stage.{stage}"] = (tally.stages.get(stage, 0), "count")
    replayed = tally.replay_seconds
    out["trace.coverage"] = (tally.covered_seconds / replayed if replayed else 0.0, "ratio")
    out["trace.overhead_frac"] = (replayed / tally.kite_seconds - 1.0 if replayed else 0.0, "ratio")
    return out


def networkx_baseline(hosts: dict) -> list[str]:
    """networkx.node_connectivity on the hosts, for comparison only."""
    try:
        import networkx as nx
    except ImportError:
        return ["baseline networkx: not installed, skipped"]
    lines = []
    for host, g in hosts.items():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        start = time.perf_counter()
        k = nx.node_connectivity(h)
        lines.append(
            f"baseline networkx.node_connectivity {host} k={k} "
            f"{time.perf_counter() - start:.6f} s (baseline only, never gated)"
        )
    return lines


def closed_loop(w, deck: list, seconds: float) -> tuple[list[int], int]:
    """The whole deck once (its counts must repeat exactly), then round the
    items that are not slow again until `seconds` have passed since the
    start, and for at least half of `seconds`, so that every item gets
    repeats spread over some time.  Returns the repeated items and the
    number of repeats."""
    start = time.perf_counter()
    tally = w.tally
    for i, item in enumerate(deck):
        tally.item = i
        w.run(item)
    tally.exact = False
    if w.tr is not None:
        w.tr.exact = False
    first = {item: s for item, _, s in tally.ops}
    cutoff = REPEAT_CUTOFF * statistics.median(first.values())
    again = [i for i in range(len(deck)) if first[i] <= cutoff]
    done = 0
    repeats_start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or time.perf_counter() - repeats_start < seconds / 2
    ):
        tally.item = again[done % len(again)]
        w.run(deck[tally.item])
        done += 1
    return again, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kitelink" / "__init__.py").is_file():
        print(f"perfbench: no kitelink package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # These import kitelink, so they load once src/ is on the path.
    from replay import Tracer, install_deadline_handler
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    install_deadline_handler()
    tally = Tally()
    tracer = Tracer() if args.trace else None
    w = WORKLOADS[args.workload](args.seed, tally, tracer)

    setup_times = []

    def timed_setup(tr=None) -> list:
        start = time.perf_counter()
        deck = w.setup(tr)
        setup_times.append(time.perf_counter() - start)
        return deck

    for _ in range(SETUP_BEFORE - 1):
        timed_setup()
    deck = timed_setup(tracer)
    start = time.perf_counter()
    again, done = closed_loop(w, deck, args.seconds)
    window = time.perf_counter() - start
    for _ in range(SETUP_AFTER):
        timed_setup()

    env = environment(args.workload, args.seed)
    figures = workload_figures(w, tally)
    counts = {
        "deck": len(deck),
        "stages": dict(sorted(tally.stages.items())),
        "deadline_misses": tally.misses,
    }
    if tracer is not None:
        layer_calls: dict[str, int] = {}
        for s in tracer.spans:
            layer_calls[s.layer] = layer_calls.get(s.layer, 0) + s.exact
        counts["layer_calls"] = layer_calls
        metrics = per_layer(tracer, tally)
    else:
        metrics = end_to_end(tally, setup_times)
    slowest = sorted(tally.calls, key=lambda c: c.ms, reverse=True)[:SLOWEST]

    lines = [f"env {k}={v}" for k, v in env.items()]
    lines.append(
        f"run window_s={window:.3f} deck={len(deck)} repeated_items={len(again)} "
        f"repeats={done} passes={1 + done / len(again):.2f}"
    )
    lines += [f"metric {n} {v:.6g} {u} (n={c})" for n, v, u, c in figures]
    lines.append(f"metric setup_s {statistics.median(setup_times):.6g} s (n={len(setup_times)})")
    lines.append("exact " + json.dumps(counts, sort_keys=True))
    for c in slowest:
        split = ""
        if c.split:
            split = " " + " ".join(
                f"{layer}={ms:.3f}ms" for layer, ms in sorted(c.split.items(), key=lambda t: -t[1])
            )
        lines.append(f"slowest {c.host} roots={list(c.roots)} stage={c.stage} {c.ms:.3f}ms{split}")
    if args.workload == "circulant_sweep" and not args.trace:
        lines += networkx_baseline(w.hosts)
    lines += [f"problem {p}" for p in tally.problems[:20]]
    print("\n".join(lines))

    correct = not tally.problems
    result = {
        "correct": correct,
        "attempted": attempted(tally),
        "failed": len(tally.failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report = {
        "env": env,
        "window_s": window,
        "figures": {n: {"value": v, "unit": u, "samples": c} for n, v, u, c in figures},
        "exact": counts,
        "slowest": [vars(c) for c in slowest],
        "calls": [[c.key, c.ms] for c in tally.calls],
        "ops": tally.ops,
        "problems": tally.problems,
        "result": result,
    }
    if tracer is not None:
        report["spans"] = [
            [s.op, s.layer, s.parent, s.seconds, s.timed_out] for s in tracer.spans
        ]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
