"""Regenerate the benchmark's input pool and its expected results.

    python3 epibench/record.py            # rewrites pool.json and expected.json

The pool (eval-traces traces and formulas) comes from a fixed master seed;
traces are random walks that pick uniformly among the applicable actions.
Expected results are whatever the engine at the current commit computes:
the 21 bundled rows, one row per blind-search slot (every initial state of
a slot is solved, and the slot is rejected unless they all agree), and the
verdict of every pool formula on every pool trace. Everything recorded is
deterministic except the per-pair costs in pool.json, which are timings.
Run it only when a change is meant to alter these results, and say so in
CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import workloads
from common import (BUNDLED, EVAL_DOMAINS, blind_row, bundled_row, import_engine,
                    load_blind_domain, max_depth, load_eval_domain, verdict_char)

HERE = Path(__file__).resolve().parent

MASTER_SEED = 20241207
POOL_TRACES = 12
POOL_FORMULAS_PER_DEPTH = 16
DEPTHS = (1, 2, 3, 4)
TRACE_LENGTHS = {"number": (30, 60), "grapevine": (30, 60), "bbl": (30, 60),
                 # common belief over five or six agents costs up to ~3 s per
                 # formula at length 60, so one operation would outweigh a pass
                 "grapevine6": (30, 30)}


def _random_init(rng: random.Random, domain) -> dict:
    sig = domain.signature
    values = {}
    for var in sig.variables:
        if sig.is_agent(var):
            continue
        pool = sig.domain(var)
        if var.startswith("sct_"):
            values[var] = "t"      # moves restore secrets to t
        elif var.startswith("told_"):
            values[var] = "none"
        elif var.startswith("peeking_"):
            values[var] = False
        else:
            values[var] = rng.choice(pool)
    return values


def random_walk_text(engine, rng: random.Random, domain, length: int) -> str:
    init = _random_init(rng, domain)
    state = domain.signature.global_state(init)
    node = engine.planner.SearchNode(engine.core.StateSequence([state]), ())
    evaluator = engine.semantics.Evaluator(domain.model)
    fmt = engine.core.format_value
    lines = ["init " + " ".join(f"{k}={fmt(v)}" for k, v in init.items())]
    for _ in range(length - 1):
        children = [(a.name, engine.planner.apply_action(evaluator, a, node))
                    for a in domain.actions]
        children = [(name, child) for name, child in children if child is not None]
        name, node = rng.choice(children)
        lines.append(f"do {name}")
    return "\n".join(lines) + "\n"


def _payload_domains(engine, sig) -> dict:
    out = {}
    for var in sig.variables:
        if sig.is_agent(var):
            continue
        values = sig.domain(var)
        out[var] = ([engine.core.format_value(v) for v in values], type(values[0]) is int)
    return out


def build_pool(engine) -> dict:
    rng = random.Random(MASTER_SEED)
    domains = []
    for name in EVAL_DOMAINS:
        domain = load_eval_domain(engine, name)
        sig = domain.signature
        traces = [random_walk_text(engine, rng, domain, rng.randint(*TRACE_LENGTHS[name]))
                  for _ in range(POOL_TRACES)]
        formulas = []
        for depth in DEPTHS:
            for _ in range(POOL_FORMULAS_PER_DEPTH):
                text = workloads.random_formula(rng, sig.agents,
                                                _payload_domains(engine, sig), depth)
                engine.parser.parse_formula(text, sig)
                formulas.append({"depth": depth, "text": text})
        domains.append({"name": name, "traces": traces, "formulas": formulas})
    return {"master_seed": MASTER_SEED, "domains": domains}


def expected_results(engine, pool: dict) -> dict:
    """Solve everything once.

    Also stores in `pool` the measured cost in microseconds of every
    (trace, formula) pair, which `workloads.select_eval_ops` stratifies by.
    """
    cli, parser, planner = engine.cli, engine.parser, engine.planner
    bundled = {}
    for instance_id, domain_dir, problem_name in BUNDLED:
        domain, problem = cli.load_benchmark(domain_dir, problem_name)
        result = planner.breadth_first_plan(domain.model, domain.actions, problem.initial,
                                            problem.goals, max_depth=max_depth(problem))
        bundled[instance_id] = bundled_row(result)

    blind = {}
    for slot, spec in workloads.BLIND_SLOTS.items():
        domain = load_blind_domain(engine, spec["domain"])
        rows = set()
        for init_index in range(len(spec["inits"])):
            for goal_index in range(workloads.BLIND_GOAL_CHOICES):
                text = workloads.blind_problem_text(slot, init_index, goal_index)
                problem = parser.parse_problem(text, domain)
                result = planner.breadth_first_plan(domain.model, domain.actions,
                                                    problem.initial, problem.goals,
                                                    max_depth=max_depth(problem))
                rows.add(json.dumps(blind_row(result), sort_keys=True))
        if len(rows) != 1:
            raise SystemExit(f"blind-search slot {slot}: initial states disagree: {rows}")
        blind[slot] = json.loads(rows.pop())

    verdicts = {}
    for dom in pool["domains"]:
        domain = load_eval_domain(engine, dom["name"])
        phis = [parser.parse_formula(f["text"], domain.signature) for f in dom["formulas"]]
        rows, costs = [], []
        for text in dom["traces"]:
            seq = parser.parse_trace(text, domain)
            row, cost_row = "", []
            for phi in phis:
                start = time.perf_counter()
                verdict = engine.semantics.Evaluator(domain.model).evaluate(seq, phi)
                cost_row.append(round((time.perf_counter() - start) * 1e6))
                row += verdict_char(verdict)
            rows.append(row)
            costs.append(cost_row)
        verdicts[dom["name"]] = rows
        dom["cost"] = costs
    return {"bundled": bundled, "blind-search": blind, "eval-traces": verdicts}


def main() -> int:
    start = time.perf_counter()
    engine = import_engine()
    pool = build_pool(engine)
    print(f"pool built in {time.perf_counter() - start:.1f} s")
    expected = expected_results(engine, pool)
    (HERE / "pool.json").write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n",
                                        encoding="utf-8")
    print(f"expected results written in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
