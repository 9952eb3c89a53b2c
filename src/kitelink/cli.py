"""Command-line surface.

Exit codes are uniform across subcommands: 0 found/valid/true, 1 not
found/invalid/false, 2 precondition or format error, 3 budget exhausted.
Graph files are the plain text format from graphs.parse_graph, or JSON
when the file starts with '{'; '-' reads standard input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructor import FindKiteOptions, find_kite
from .errors import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    ConstructionFailed,
    FormatError,
    KitelinkError,
    MalformedLine,
    PreconditionViolated,
    StageFailure,
)
from .fans import find_fan, vertex_connectivity
from .generators import gen_complete_minus_matching, gen_random_kconnected
from .graphs import Graph, format_graph, graph_as_json, parse_graph, parse_graph_json
from .harness import TrialConfig, report_lines, run_trials, stage_counts
from .linkage import two_linkage
from .oracle import SearchBudget, find_kite_exhaustive, is_kite_linked
from .structures import RootQuadruple, kite_from_json, verify_kite


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path} is not UTF-8 text: {exc}") from None


def _read_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph(text)


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload, separators=(",", ":")))


def _cmd_conn(args) -> int:
    g = _read_graph(args.graph)
    cert = vertex_connectivity(g)
    cut = sorted(cert.cut) if cert.cut is not None else None
    _emit(args, {"n": g.n, "m": g.m, "connectivity": cert.k, "cut": cut})
    return 0


def _cmd_fan(args) -> int:
    g = _read_graph(args.graph)
    try:
        targets = frozenset(int(t) for t in args.targets.split(","))
    except ValueError:
        raise MalformedLine(
            f"targets {args.targets!r} are not comma-separated integers"
        ) from None
    fan = find_fan(g, args.x, targets, args.k)
    if fan is None:
        _emit(args, {"found": False})
        return 1
    _emit(
        args,
        {
            "found": True,
            "center": fan.center,
            "arms": [list(arm.vertices) for arm in fan.arms],
        },
    )
    return 0


def _cmd_link2(args) -> int:
    g = _read_graph(args.graph)
    pair = two_linkage(g, args.s1, args.t1, args.s2, args.t2)
    if pair is None:
        _emit(args, {"found": False})
        return 1
    _emit(
        args,
        {
            "found": True,
            "path1": list(pair.l.vertices),
            "path2": list(pair.lprime.vertices),
        },
    )
    return 0


def _cmd_kite_find(args) -> int:
    options = FindKiteOptions(
        verify_connectivity=args.check_connectivity,
        allow_fallback=not args.no_fallback,
        budget=args.budget,
    )
    g = _read_graph(args.graph)
    roots = RootQuadruple(args.x1, args.x2, args.x3, args.x4)
    result = find_kite(g, roots, options)
    _emit(args, result.as_json())
    return 0


def _cmd_kite_verify(args) -> int:
    g = _read_graph(args.graph)
    try:
        obj = json.loads(_read_text(args.kite))
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"kite file is not JSON: {exc}") from None
    roots, kite = kite_from_json(obj)
    verdict = verify_kite(g, roots, kite)
    _emit(args, {"valid": bool(verdict), "reason": verdict.reason})
    return 0 if verdict else 1


def _cmd_kite_oracle(args) -> int:
    g = _read_graph(args.graph)
    roots = RootQuadruple(args.x1, args.x2, args.x3, args.x4)
    kite = find_kite_exhaustive(g, roots, SearchBudget(args.budget))
    if kite is None:
        _emit(args, {"found": False})
        return 1
    _emit(args, kite.as_json(roots))
    return 0


def _cmd_kite_linked(args) -> int:
    g = _read_graph(args.graph)
    verdict = is_kite_linked(g, SearchBudget(args.budget))
    witness = list(verdict.witness.as_tuple()) if verdict.witness else None
    _emit(args, {"linked": verdict.linked, "witness": witness})
    return 0 if verdict.linked else 1


def _print_graph(args, g: Graph) -> int:
    if args.json:
        print(json.dumps(graph_as_json(g), separators=(",", ":")))
    else:
        sys.stdout.write(format_graph(g))
    return 0


def _cmd_gen_kmm(args) -> int:
    return _print_graph(args, gen_complete_minus_matching(args.n, args.m))


def _cmd_gen_random(args) -> int:
    return _print_graph(args, gen_random_kconnected(args.n, args.k, args.seed))


def _cmd_trials(args) -> int:
    config = TrialConfig(
        generator=args.generator,
        n=args.n,
        k=args.k,
        matching=args.matching,
        trials=args.trials,
        seed=args.seed,
        roots=args.roots,
        oracle_fraction=args.oracle_fraction,
        budget=args.budget,
        timing=args.timing,
    )
    reports = run_trials(config)
    for line in report_lines(reports, timing=args.timing):
        print(line)
    if not args.quiet:
        print(f"stages: {json.dumps(stage_counts(reports), sort_keys=True)}", file=sys.stderr)
    return 0 if all(r.outcome == "success" for r in reports) else 1


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    k8 = gen_complete_minus_matching(8, 0)
    cert = vertex_connectivity(k8)
    checks.append(("K8 connectivity is 7", cert.k == 7))

    roots = RootQuadruple(0, 1, 2, 3)
    res = find_kite(k8, roots, FindKiteOptions(try_direct=False))
    checks.append(
        ("K8 pipeline kite verifies", bool(verify_kite(k8, roots, res.kite)))
    )
    checks.append(("K8 pipeline avoids fallback", res.stage != "fallback"))

    k9m = gen_complete_minus_matching(9, 4)
    res9 = find_kite(k9m, RootQuadruple(0, 1, 2, 3), FindKiteOptions(try_direct=False))
    agree = find_kite_exhaustive(k9m, RootQuadruple(0, 1, 2, 3)) is not None
    checks.append(("K9 minus matching kite verifies",
                   bool(verify_kite(k9m, RootQuadruple(0, 1, 2, 3), res9.kite))))
    checks.append(("oracle agrees on K9 minus matching", agree))

    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    checks.append(("C5 is not kite-linked", not is_kite_linked(c5).linked))

    pair = two_linkage(k8, 0, 1, 2, 3)
    checks.append(("K8 carries a 2-linkage", pair is not None))

    ok = all(passed for _, passed in checks)
    if not args.quiet:
        for name, passed in checks:
            print(f"{'ok' if passed else 'FAIL'}  {name}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitelink",
        description="Rooted kite subdivisions in 7-connected graphs.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conn", help="vertex connectivity with a cut witness")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_conn)

    p = sub.add_parser("fan", help="k-fan from x into a target set")
    p.add_argument("graph")
    p.add_argument("x", type=int)
    p.add_argument("targets", help="comma-separated target vertices")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("link2", help="disjoint s1-t1 and s2-t2 paths")
    p.add_argument("graph")
    for name in ("s1", "t1", "s2", "t2"):
        p.add_argument(name, type=int)
    p.set_defaults(func=_cmd_link2)

    kite = sub.add_parser("kite", help="rooted kite operations")
    ksub = kite.add_subparsers(dest="kite_command", required=True)

    p = ksub.add_parser("find", help="constructive search")
    p.add_argument("graph")
    for name in ("x1", "x2", "x3", "x4"):
        p.add_argument(name, type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--check-connectivity", action="store_true")
    p.add_argument("--no-fallback", action="store_true")
    p.set_defaults(func=_cmd_kite_find)

    p = ksub.add_parser("verify", help="check a kite JSON against a graph")
    p.add_argument("graph")
    p.add_argument("kite")
    p.set_defaults(func=_cmd_kite_verify)

    p = ksub.add_parser("oracle", help="exhaustive rooted search")
    p.add_argument("graph")
    for name in ("x1", "x2", "x3", "x4"):
        p.add_argument(name, type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_kite_oracle)

    p = ksub.add_parser("linked", help="decide kite-linkage of a whole graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_kite_linked)

    gen = sub.add_parser("gen", help="instance generators")
    gsub = gen.add_subparsers(dest="gen_command", required=True)

    p = gsub.add_parser("kminusmatching", help="complete graph minus a matching")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_kmm)

    p = gsub.add_parser("random", help="seeded random k-connected graph")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("trials", help="campaign runner emitting JSON lines")
    p.add_argument("--generator", choices=("random", "kminusmatching"), default="random")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--matching", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--roots", choices=("sampled", "exhaustive"), default="sampled")
    p.add_argument("--oracle-fraction", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("selftest", help="small built-in battery")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except ConstructionFailed as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 3 if exc.exhausted else 1
    except StageFailure as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 1
    except KitelinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
