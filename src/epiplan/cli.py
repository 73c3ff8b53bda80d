"""Command-line interface: solve problems, evaluate traces, run benchmarks.

Exit codes: 0 success, 2 parse/input error, 3 unsolvable, 4 internal error
or budget abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from typing import List, Optional, Sequence, Tuple

from .core import EngineError, Ternary
from .parser import (
    DomainFile,
    ParseError,
    ProblemFile,
    format_formula,
    parse_domain,
    parse_formula,
    parse_problem,
    parse_trace,
)
from .perspectives import justified_perspective
from .planner import DEFAULT_MAX_DEPTH, SOLVED, UNSOLVABLE, PlanResult, breadth_first_plan
from .semantics import Evaluator

REPORT_COLUMNS = ("id", "expanded", "generated", "common_max", "common_avg",
                  "external_calls", "avg_call_ms", "total_time_s", "plan_length",
                  "goals")

# each set's (instance id, benchmark directory, problem) triples, indices 0-6
BENCH_SETS = {
    directory: [(f"{tag}{i}", directory, f"{stem}{i}") for i in range(7)]
    for tag, directory, stem in (("N", "number", "n"), ("G", "grapevine", "g"),
                                 ("BBL", "bbl", "bbl"))
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiplan",
        description="Plan for and evaluate multi-agent belief goals.")
    sub = parser.add_subparsers(required=True)

    solve = sub.add_parser("solve", help="find a shortest plan for a problem")
    solve.add_argument("domain")
    solve.add_argument("problem")
    solve.add_argument("--max-depth", type=_count, default=None,
                       help="override the search depth limit (default "
                            f"{DEFAULT_MAX_DEPTH} or the problem's max-depth)")
    solve.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    solve.add_argument("--time-budget", type=_seconds, default=None,
                       help="abort the search after this many seconds")
    solve.add_argument("--node-budget", type=_count, default=None,
                       help="abort the search after generating this many nodes")
    solve.add_argument("--seed", type=int, default=None,
                       help="accepted for harness uniformity; the search is "
                            "deterministic and ignores it")
    solve.set_defaults(func=_cmd_solve)

    evaluate = sub.add_parser("eval", help="evaluate a formula on a trace")
    evaluate.add_argument("domain")
    evaluate.add_argument("trace")
    evaluate.add_argument("formula")
    evaluate.add_argument("--explain", action="store_true",
                          help="also print each agent's perspective of the trace")
    evaluate.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="run the bundled benchmark instances")
    bench.add_argument("set", nargs="?", default="all",
                       help="number | grapevine | bbl | all")
    bench.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    bench.add_argument("--time-budget", type=_seconds, default=60.0,
                       help="per-instance time budget in seconds (default 60)")
    bench.add_argument("--node-budget", type=_count, default=None)
    bench.set_defaults(func=_cmd_bench)
    return parser


def _at_least_zero(kind: type, noun: str):
    """An argparse type for options that take a `kind` value >= 0; anything
    else, NaN too, makes argparse exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"expected {noun} >= 0, got {text!r}")
        return value
    return parse


_count = _at_least_zero(int, "a whole number")
_seconds = _at_least_zero(float, "a number of seconds")


def _read(path: str) -> str:
    """The text of a UTF-8 input file; undecodable bytes are a ParseError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} "
                             f"({exc.object[exc.start]:#04x}) {exc.reason}") from None


def _goal_text(problem: ProblemFile) -> str:
    parts = []
    for phi, target in problem.goals:
        body = format_formula(phi)
        if target is Ternary.TRUE:
            parts.append(body)
        elif target is Ternary.FALSE:
            parts.append(f"(not {body})")
        else:
            parts.append(f"{body} -> 1/2")
    return " & ".join(parts)


def _result_row(instance_id: str, result: PlanResult, goals: str) -> dict:
    if result.status == SOLVED:
        length: object = result.plan_length
    else:
        length = result.status
    return {
        "id": instance_id,
        "expanded": result.expanded,
        "generated": result.generated,
        "common_max": result.common_max,
        "common_avg": round(result.common_avg, 3),
        "external_calls": result.external_calls,
        "avg_call_ms": round(result.avg_call_ms, 3),
        "total_time_s": round(result.total_time, 3),
        "plan_length": length,
        "goals": goals,
    }


def _print_rows(rows: List[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
        return
    if fmt == "tsv":
        print("\t".join(REPORT_COLUMNS))
        for row in rows:
            print("\t".join(str(row[c]) for c in REPORT_COLUMNS))
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in REPORT_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in REPORT_COLUMNS))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in REPORT_COLUMNS))


def _depth_limit(problem: ProblemFile, override: Optional[int] = None) -> int:
    """The search depth: `override`, else the problem's max-depth, else the default."""
    if override is not None:
        return override
    return problem.max_depth if problem.max_depth is not None else DEFAULT_MAX_DEPTH


def _cmd_solve(args) -> int:
    domain = parse_domain(_read(args.domain))
    problem = parse_problem(_read(args.problem), domain)
    max_depth = _depth_limit(problem, args.max_depth)
    result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                problem.goals, max_depth=max_depth,
                                node_budget=args.node_budget,
                                time_budget=args.time_budget)
    if args.format == "text":
        # json and tsv give the status in `plan_length` and the exit code
        if result.status == SOLVED:
            print("PLAN: " + (" ".join(result.plan) if result.plan else "(empty)"))
        elif result.status == UNSOLVABLE:
            print(f"UNSOLVABLE within depth {max_depth}")
        else:
            print("ABORTED: budget exhausted before the search finished")
    _print_rows([_result_row(problem.name, result, _goal_text(problem))], args.format)
    if result.status == SOLVED:
        return 0
    if result.status == UNSOLVABLE:
        return 3
    return 4


def _cmd_eval(args) -> int:
    domain = parse_domain(_read(args.domain))
    seq = parse_trace(_read(args.trace), domain)
    phi = parse_formula(args.formula, domain.signature)
    evaluator = Evaluator(domain.model)
    verdict = evaluator.evaluate(seq, phi)
    if args.explain:
        _print_perspectives(domain, seq)
    print(str(verdict))
    return 0


def _print_perspectives(domain: DomainFile, seq) -> None:
    sig = domain.signature
    print(f"trace of {len(seq)} states; variables: {', '.join(sig.variables)}")
    rows = [("world", seq)]
    for agent in sig.agents:
        rows.append((f"agent {agent}", justified_perspective(domain.model, agent, seq)))
    for label, view in rows:
        print(f"{label}:")
        for t, state in enumerate(view):
            print(f"  t={t}  {state!r}")


def _cmd_bench(args) -> int:
    if args.set == "all":
        chosen = [entry for name in ("number", "grapevine", "bbl")
                  for entry in BENCH_SETS[name]]
    elif args.set in BENCH_SETS:
        chosen = BENCH_SETS[args.set]
    else:
        print(f"error: unknown benchmark set {args.set!r}; "
              f"choose from number, grapevine, bbl, all", file=sys.stderr)
        return 2
    rows = []
    for instance_id, domain_dir, problem_name in chosen:
        try:
            domain, problem = load_benchmark(domain_dir, problem_name)
            result = breadth_first_plan(
                domain.model, domain.actions, problem.initial, problem.goals,
                max_depth=_depth_limit(problem),
                node_budget=args.node_budget, time_budget=args.time_budget)
            rows.append(_result_row(instance_id, result, _goal_text(problem)))
        except EngineError as exc:
            rows.append({c: "-" for c in REPORT_COLUMNS}
                        | {"id": instance_id, "goals": f"failed: {exc}"})
    _print_rows(rows, args.format)
    return 0


def load_benchmark(domain_dir: str, problem_name: str) -> Tuple[DomainFile, ProblemFile]:
    """Load a bundled (domain, problem) pair, e.g. ("number", "n1")."""
    root = resources.files("epiplan").joinpath("benchmarks").joinpath(domain_dir)
    domain = parse_domain(root.joinpath(f"{domain_dir}.dom").read_text(encoding="utf-8"))
    problem = parse_problem(root.joinpath(f"{problem_name}.prob").read_text(encoding="utf-8"),
                            domain)
    return domain, problem


if __name__ == "__main__":
    sys.exit(main())
