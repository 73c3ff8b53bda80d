"""The epiplan benchmark: one workload per run, checked, metrics as JSON.

    python3 epibench/run.py --workload bundled --seed 1 --seconds 35 --trace 0

Workloads (see README.md in this directory for why each exists):
  bundled       the 21 bundled instances, solved in README order each pass
  blind-search  breadth-first searches with atom-only preconditions and an
                unreachable goal, so no perspective is ever built
  eval-traces   parse_formula + evaluate on seeded random traces, as
                `epiplan eval` does, with no planner

Each run imports the engine from this checkout's `src/`, builds its inputs
from the seed, then runs passes over them, one operation at a time, until
`--seconds` have passed. Every result is compared with `expected.json`;
eval-traces verdicts on short trace prefixes are also compared with the
exhaustive oracle after the timed passes. With `--trace 1` the run reports
per-layer figures instead, from a set-up and one pass in which every
operation runs untraced and then traced (see tracer.py). The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True   # every set-up pays the same compile cost

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from common import (BUNDLED, EngineMissing, blind_row, bundled_row,  # noqa: E402
                    import_engine, load_blind_domain, load_eval_domain, max_depth,
                    verdict_char)
from speed import HostSpeed  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

WORKLOADS = ("bundled", "blind-search", "eval-traces")
SETUP_REPEATS = 11
SOLVE_TIME_BUDGET = 60.0      # per search, as `epiplan bench` uses
EVAL_STRATUM = 4              # eval-traces: one pair out of every 4 per pass,
EVAL_TAIL = 16                # and the pool's 16 costliest pairs in every pass
ORACLE_PREFIXES = (1, 2)      # prefix lengths checked against the oracle
ORACLE_WORK = 20000           # oracle completions allowed along one formula


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for `kind`
    ("end_to_end" or "per_layer")."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


# --------------------------------------------------------------------------
# Set-up: import, generate, parse
# --------------------------------------------------------------------------

def set_up(engine, workload: str, seed: int) -> dict:
    """Generate the workload's inputs from the seed and parse them."""
    if workload == "bundled":
        ops = [(iid, *engine.cli.load_benchmark(domain_dir, problem))
               for iid, domain_dir, problem in BUNDLED]
        return {"ops": ops}
    if workload == "blind-search":
        domains = {}
        ops = []
        for slot, text in workloads.blind_search_instances(seed):
            name = workloads.BLIND_SLOTS[slot]["domain"]
            if name not in domains:
                domains[name] = load_blind_domain(engine, name)
            ops.append((slot, domains[name], engine.parser.parse_problem(text, domains[name])))
        return {"ops": ops}
    pool = json.loads((HERE / "pool.json").read_text(encoding="utf-8"))
    chosen = workloads.select_eval_ops(pool, seed, EVAL_STRATUM, EVAL_TAIL)
    by_name = {dom["name"]: dom for dom in pool["domains"]}
    domains = {name: load_eval_domain(engine, name) for name in by_name}
    traces = {}
    ops = []
    for name, t, f in chosen:
        if (name, t) not in traces:
            traces[name, t] = engine.parser.parse_trace(by_name[name]["traces"][t],
                                                        domains[name])
        formula = by_name[name]["formulas"][f]
        ops.append((name, t, f, domains[name], traces[name, t], formula["text"],
                    formula["depth"]))
    return {"ops": ops}


# --------------------------------------------------------------------------
# Timed passes
# --------------------------------------------------------------------------

class Outcome:
    """Everything measured in the timed passes, per operation."""

    def __init__(self, n_ops: int):
        self.passes = 0
        self.op_seconds = [[] for _ in range(n_ops)]   # one entry per pass
        self.op_wall_seconds = [[] for _ in range(n_ops)]  # the same, not normalised
        self.op_eval_ms = [[] for _ in range(n_ops)]   # ms per evaluator call, per pass
        self.generated = [0] * n_ops                   # search nodes per pass
        self.evaluations = [1] * n_ops                 # evaluator calls per pass
        self.traced_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record_check(self, failure) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(failure)

    def record(self, index: int, timing, result, failure) -> None:
        elapsed, wall, factor = timing
        self.record_check(failure)
        self.op_seconds[index].append(elapsed)
        self.op_wall_seconds[index].append(wall)
        if result is None:
            self.op_eval_ms[index].append(elapsed * 1000.0)
        else:
            self.generated[index] = result.generated
            self.evaluations[index] = result.external_calls
            self.op_eval_ms[index].append(result.avg_call_ms * factor)

    def pass_equivalent(self, wall: bool = False) -> float:
        """Seconds of one pass, each operation at its median over passes
        (normalised seconds, or wall-clock seconds with `wall`).

        The per-operation median discards the passes in which the machine
        happened to run slowly, which a median of whole-pass times does not
        when such a stretch is shorter than a pass.
        """
        per_op = self.op_wall_seconds if wall else self.op_seconds
        return sum(statistics.median(times) for times in per_op)


def run_op(engine, workload: str, op, expected: dict, speed=None):
    """Run one operation.

    Returns ((seconds, wall seconds, speed factor), result or None, failure
    or None). With a HostSpeed sampler, seconds are normalised to the
    reference host speed (see speed.py) and the factor is the one applied;
    without one, seconds are wall-clock seconds and the factor is 1.
    """
    mark = speed.mark() if speed is not None else 0
    start = time.perf_counter()
    result = None
    try:
        if workload == "eval-traces":
            name, t, f, domain, seq, text, _ = op
            phi = engine.parser.parse_formula(text, domain.signature)
            verdict = engine.semantics.Evaluator(domain.model).evaluate(seq, phi)
            elapsed = time.perf_counter() - start
            timing = _timing(speed, mark, elapsed)
            got, want = verdict_char(verdict), expected[name][t][f]
            label = f"{name} trace {t} formula {f}"
        else:
            label, domain, problem = op
            result = engine.planner.breadth_first_plan(
                domain.model, domain.actions, problem.initial, problem.goals,
                max_depth=max_depth(problem), time_budget=SOLVE_TIME_BUDGET)
            elapsed = time.perf_counter() - start
            timing = _timing(speed, mark, elapsed)
            row = bundled_row(result) if workload == "bundled" else blind_row(result)
            got = json.dumps(row, sort_keys=True)
            want = json.dumps(expected[label], sort_keys=True)
    except Exception:  # an engine fault is a failed operation, not a crash
        timing = _timing(speed, mark, time.perf_counter() - start)
        got, want, label = traceback.format_exc(limit=3), "no exception", repr(op[0])
    failure = None if got == want else f"{label}: got {got}, expected {want}"
    return timing, result, failure


def _timing(speed, mark: int, elapsed: float):
    """(seconds, wall seconds, factor) of an operation; see run_op."""
    if speed is None:
        return elapsed, elapsed, 1.0
    wall = elapsed - speed.sampling_seconds(mark)
    factor = speed.factor(mark)
    return wall * factor, wall, factor


def run_pass(engine, workload: str, inputs: dict, expected: dict, out: Outcome,
             tracer=None, speed=None) -> float:
    """One pass over the operations; returns the wall time the operations took.

    With a tracer, each operation runs twice in a row, untraced and then
    traced, and `out.traced_seconds` collects the traced times: the two
    runs of an operation follow each other directly, so the tracing
    overhead is measured on the same state of the machine.
    """
    busy = 0.0
    for index, op in enumerate(inputs["ops"]):
        timing, result, failure = run_op(engine, workload, op, expected, speed)
        busy += timing[1]
        out.record(index, timing, result, failure)
        if tracer is not None:
            tracer.install()
            frame = tracer.enter("op")
            try:
                (traced_elapsed, _, _), _, failure = run_op(engine, workload, op, expected)
            finally:
                tracer.leave(frame)
                tracer.uninstall()
            out.traced_seconds += traced_elapsed
            out.record_check(failure)
    out.passes += 1
    return busy


def nested_knowledge(core, phi, under_knowledge: bool = False) -> bool:
    """True when a seeing or knowledge operator sits beneath another one."""
    knowledge = (core.Sees, core.Knows, core.GroupSees, core.GroupKnows,
                 core.SeesVar, core.GroupSeesVar)
    if isinstance(phi, knowledge) and under_knowledge:
        return True
    under = under_knowledge or isinstance(phi, knowledge)
    return any(nested_knowledge(core, getattr(phi, field), under)
               for field in ("child", "left", "right") if hasattr(phi, field))


def oracle_check(engine, inputs: dict) -> dict:
    """Compare definite verdicts on short trace prefixes with the oracle.

    The oracle enumerates every completion of a sequence once per nested
    operator, so a formula of modal depth d on a completion space of size N
    costs about N**d evaluations; it gets a ceiling of ORACLE_WORK**(1/d)
    and refuses (InstanceTooLarge) any prefix above it. Refusals and
    unknown verdicts are counted, not dropped.

    A disagreement is a failure unless the formula nests seeing or
    knowledge under seeing or knowledge. "Whether b sees phi" is fixed by
    the always-visible flags, like a tautology, while the ternary evaluator
    finds it unknown on a partial state; that is outside the separable
    shapes on which the three-valued semantics claims to agree with the
    oracle, so those disagreements are counted and reported on their own.
    """
    oracle, core = engine.oracle, engine.core
    counts = {"agreed": 0, "disagreed": 0, "refused": 0, "undecided": 0,
              "nested_knowledge_disagreed": 0}
    failures = []
    done = set()
    for name, t, f, domain, seq, text, depth in inputs["ops"]:
        phi = engine.parser.parse_formula(text, domain.signature)
        for length in ORACLE_PREFIXES:
            if length > len(seq) or (name, t, f, length) in done:
                continue
            done.add((name, t, f, length))
            prefix = seq.prefix(length - 1)
            verdict = engine.semantics.Evaluator(domain.model).evaluate(prefix, phi)
            if verdict is core.Ternary.UNKNOWN:
                counts["undecided"] += 1
                continue
            claim = phi if verdict is core.Ternary.TRUE else core.Not(phi)
            try:
                holds = oracle.complete_eval(domain.model, prefix, claim,
                                             ceiling=int(ORACLE_WORK ** (1.0 / depth)))
            except oracle.InstanceTooLarge:
                counts["refused"] += 1
                continue
            if holds:
                counts["agreed"] += 1
            elif nested_knowledge(core, phi):
                counts["nested_knowledge_disagreed"] += 1
            else:
                counts["disagreed"] += 1
                failures.append(f"oracle: {name} trace {t} prefix {length} formula {f} "
                                f"{text}: ternary {verdict_char(verdict)}, oracle disagrees")
    counts["failures"] = failures
    return counts


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[args.workload]
    setup_times = []
    setup_wall = []
    try:
        if args.trace:
            engine = import_engine()
            tracer = Tracer(engine)
            tracer.install()
            inputs = set_up(engine, args.workload, args.seed)
            tracer.uninstall()
        else:
            tracer = None
            with HostSpeed() as speed:
                for _ in range(SETUP_REPEATS):
                    mark = speed.mark()
                    start = time.perf_counter()
                    engine = import_engine()
                    inputs = set_up(engine, args.workload, args.seed)
                    seconds, wall, _ = _timing(speed, mark, time.perf_counter() - start)
                    setup_times.append(seconds)
                    setup_wall.append(wall)
    except EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gc.collect()        # the set-ups' discarded engines and inputs
    out = Outcome(len(inputs["ops"]))
    if tracer is None:
        # passes until --seconds; a pass starts only if it should end in time
        with HostSpeed() as speed:
            deadline = time.perf_counter() + args.seconds
            while True:
                pass_seconds = run_pass(engine, args.workload, inputs, expected, out,
                                        speed=speed)
                if time.perf_counter() + pass_seconds > deadline:
                    break
    else:
        run_pass(engine, args.workload, inputs, expected, out, tracer)
    solve_s = out.pass_equivalent()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = {"agreed": 0, "disagreed": 0, "refused": 0, "undecided": 0,
              "nested_knowledge_disagreed": 0, "failures": []}
    if args.workload == "eval-traces":
        oracle = oracle_check(engine, inputs)
        out.attempted += oracle["agreed"] + oracle["disagreed"]
        out.failed += oracle["disagreed"]
        out.failures += oracle["failures"]
    for line in out.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)

    eval_ms = [statistics.median(samples) for samples in out.op_eval_ms]
    print(f"workload {args.workload}, seed {args.seed}: {len(inputs['ops'])} operations "
          f"per pass, {out.passes} passes, {out.attempted} checked, {out.failed} failed "
          f"(fail_rate {out.failed / out.attempted:.4f})")
    print(f"eval_ms samples: {len(eval_ms)}, each the median of {out.passes} timings and "
          f"weighted by its {sum(out.evaluations)} evaluator calls")
    if tracer is None:
        print(f"wall clock, not normalised to the reference host speed: setup_s "
              f"{statistics.median(setup_wall):.6g} s, solve_s "
              f"{out.pass_equivalent(wall=True):.6g} s")
    if args.workload == "eval-traces":
        print("oracle prefixes: " + ", ".join(f"{k} {v}" for k, v in oracle.items()
                                              if k != "failures"))

    if tracer is None:
        # a history is a search node, or on eval-traces one evaluated trace
        histories = sum(out.generated) if args.workload != "eval-traces" else len(eval_ms)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "nodes_per_s": histories / solve_s,
            "eval_ms.p50": percentile(eval_ms, 0.50, out.evaluations),
            "eval_ms.p99": percentile(eval_ms, 0.99, out.evaluations),
            "evals_per_s": sum(out.evaluations) / solve_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_units("end_to_end")
    else:
        nodes = tracer.generated if args.workload != "eval-traces" else len(inputs["ops"])
        metrics = tracer.metrics(nodes)
        metrics["trace.overhead_s"] = out.traced_seconds - solve_s
        metrics["trace.overhead_share"] = (out.traced_seconds - solve_s) / solve_s
        for key in ("agreed", "refused", "undecided", "nested_knowledge_disagreed"):
            metrics[f"check.oracle_{key}"] = oracle[key]
        units = declared_units("per_layer")
        span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_file)
        print(f"spans written to {span_file.relative_to(HERE.parent)}")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                         "or declared in BENCHMARK.json, but not both")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
