"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite completes in well under the stated runtime ceilings.
"""

import json
import random
import time
from pathlib import Path

import pytest

from helpers import (
    LeakingModel,
    NonIdempotentModel,
    NonMonotoneModel,
    n_projection,
    random_instance,
    random_oracle_case,
    random_states,
)
from epiplan.cli import BENCH_SETS, load_benchmark
from epiplan.core import Atom, GroupBelieves, GroupMode, Not, StateSequence, Ternary
from epiplan.oracle import complete_eval
from epiplan.parser import parse_formula
from epiplan.perspectives import (
    AxiomViolation,
    check_observation_axioms,
    common_perspectives,
    justified_perspective,
)
from epiplan.planner import SOLVED, UNSOLVABLE, SearchNode, apply_action, breadth_first_plan
from epiplan.semantics import Evaluator

TABLE_LENGTHS = {"N0": 4, "N1": 2, "N2": 4, "N3": 6, "N4": 8, "N5": 4, "N6": 4}
EXACT_GROUP_INSTANCES = {"G0": 1, "BBL0": 1}
EXPECTED_ROWS = Path(__file__).resolve().parents[1] / "epibench" / "expected.json"
INNER_ATOM = {"number": "(< n 2)", "grapevine": "(= sct_a t)", "bbl": "(= o_2 2)"}


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def bench_runs():
    """Every bundled instance solved once; shared across the criteria below."""
    runs = {}
    for set_name, entries in BENCH_SETS.items():
        for instance_id, domain_dir, problem_name in entries:
            domain, problem = load_benchmark(domain_dir, problem_name)
            started = time.perf_counter()
            result = breadth_first_plan(
                domain.model, domain.actions, problem.initial, problem.goals,
                max_depth=problem.max_depth if problem.max_depth is not None else 12,
                time_budget=120.0)
            elapsed = time.perf_counter() - started
            runs[instance_id] = (set_name, domain, problem, result, elapsed)
    return runs


def _replay(domain, problem, plan) -> StateSequence:
    byname = {a.name: a for a in domain.actions}
    evaluator = Evaluator(domain.model)
    node = SearchNode(StateSequence([problem.initial]), ())
    for step in plan:
        node = apply_action(evaluator, byname[step], node)
        assert node is not None, f"replay of {plan} failed at {step}"
    return node.sequence


def test_criterion_1_perspective_idempotence():
    rng = random.Random(20240401)
    started = time.perf_counter()
    checked = 0
    while checked < 1000:
        sig, model, seq = random_instance(rng, max_vars=4, max_domain=3, max_len=6)
        if rng.random() < 0.3:
            seq = justified_perspective(model, rng.choice(sig.agents), seq)
        agent = rng.choice(sig.agents)
        once = justified_perspective(model, agent, seq)
        twice = justified_perspective(model, agent, once)
        assert twice == once, f"idempotence failed for {agent} on {seq!r}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"idempotence suite took {elapsed:.2f}s (ceiling 5s)"
    _ok(f"1 idempotence ({checked} instances, {elapsed:.2f}s)")


def test_criterion_2_fixed_point_convergence(number_dom, plan1):
    rng = random.Random(20240402)
    for _ in range(200):
        sig, model, seq = random_instance(rng, max_vars=4, max_domain=3, max_len=6)
        views, stats = common_perspectives(model, sig.agents, seq)
        bound = 2 ** (len(sig.variables) * len(seq))
        assert 1 <= stats.iterations <= bound
        assert stats.final_size == len(views)
    views, stats = common_perspectives(number_dom.model, ("a", "b"), plan1)
    assert {n_projection(w) for w in views} == {
        (None, 2, 2, 2, 2),
        (None, None, None, None, 1),
        (None, None, None, None, 2),
    }
    assert stats.iterations == 3
    _ok("2 fixed-point convergence (200 random + worked example, 3 iterations)")


def test_criterion_3_ternary_ground_truth(number_dom, plan1):
    evaluator = Evaluator(number_dom.model)
    cases = [
        ("(EB (a b) (< n 3))", Ternary.TRUE),
        ("(CB (a b) (< n 3))", Ternary.TRUE),
        ("(EB (a b) (= n 1))", Ternary.FALSE),
    ]
    for text, wanted in cases:
        got = evaluator.evaluate(plan1, parse_formula(text, number_dom.signature))
        assert got is wanted, f"{text}: expected {wanted}, got {got}"
    _ok("3 ternary ground truth on the peek/peek trace")


def test_criterion_4_number_plan_lengths(bench_runs):
    for instance_id, wanted in TABLE_LENGTHS.items():
        _, domain, problem, result, elapsed = bench_runs[instance_id]
        assert result.status == SOLVED, f"{instance_id} did not solve"
        assert result.plan_length == wanted, \
            f"{instance_id}: expected |p|={wanted}, got {result.plan_length}"
        assert elapsed < 60.0, f"{instance_id} took {elapsed:.1f}s (ceiling 60s)"
        witness = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                     problem.goals, max_depth=wanted - 1)
        assert witness.status == UNSOLVABLE, \
            f"{instance_id}: found a shorter plan than {wanted}"
    _ok("4 box-domain plan lengths 4,2,4,6,8,4,4 with optimality witnesses")


def test_criterion_5_group_domain_plan_lengths(bench_runs):
    for instance_id, wanted in EXACT_GROUP_INSTANCES.items():
        _, domain, problem, result, _ = bench_runs[instance_id]
        assert result.status == SOLVED and result.plan_length == wanted, \
            f"{instance_id}: expected |p|={wanted}, got {result.status} {result.plan_length}"
        witness = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                     problem.goals, max_depth=wanted - 1)
        assert witness.status == UNSOLVABLE
    reported = []
    for instance_id, (set_name, _, _, result, _) in bench_runs.items():
        if set_name == "number" or instance_id in EXACT_GROUP_INSTANCES:
            continue
        assert result.status in (SOLVED, UNSOLVABLE, "aborted")
        reported.append(f"{instance_id}={result.plan_length if result.plan else result.status}")
    _ok(f"5 G0/BBL0 exact, remainder reported best-effort ({', '.join(reported)})")


def test_criterion_6_oracle_bridge():
    rng = random.Random(20240406)
    decided = 0
    tried = 0
    while decided < 500:
        tried += 1
        model, seq, phi = random_oracle_case(rng)
        verdict = Evaluator(model).evaluate(seq, phi)
        if verdict is Ternary.TRUE:
            assert complete_eval(model, seq, phi) is True, \
                f"ternary 1 but complete semantics false: {phi} on {seq!r}"
            decided += 1
        elif verdict is Ternary.FALSE:
            assert complete_eval(model, seq, Not(phi)) is True, \
                f"ternary 0 but negation not complete-true: {phi} on {seq!r}"
            decided += 1
    _ok(f"6 oracle soundness bridge ({decided} decided verdicts, {tried} sampled)")


def test_criterion_7_observation_axiom_suite():
    rng = random.Random(20240407)
    for set_name, problem_name in (("number", "n0"), ("grapevine", "g0"), ("bbl", "bbl0")):
        domain, _ = load_benchmark(set_name, problem_name)
        states = random_states(rng, domain.signature, 1000)
        check_observation_axioms(domain.model, domain.signature.agents, states, rng=rng)
    from epiplan.core import Signature
    sig = Signature(["a", "b"], {"flag": (True, False), "v1": (0, 1, 2)})
    states = random_states(rng, sig, 60)
    caught = 0
    for broken in (LeakingModel(), NonMonotoneModel(), NonIdempotentModel()):
        with pytest.raises(AxiomViolation):
            check_observation_axioms(broken, sig.agents, states, rng=rng)
        caught += 1
    _ok(f"7 observation axioms (3 models x 1000 states; {caught} mutants rejected)")


def test_criterion_8_common_at_most_uniform(bench_runs):
    rng = random.Random(20240408)
    checked = 0
    for _ in range(400):
        sig, model, seq = random_instance(rng, max_vars=3, max_len=5)
        evaluator = Evaluator(model)
        var = next(v for v in sig.variables if not sig.is_agent(v))
        atom = Atom("=", var, sig.domain(var)[0])
        group = sig.agents
        cb = evaluator.evaluate(seq, GroupBelieves(GroupMode.COMMON, group, atom))
        eb = evaluator.evaluate(seq, GroupBelieves(GroupMode.UNIFORM, group, atom))
        assert cb <= eb
        checked += 1
    for instance_id, (set_name, domain, problem, result, _) in bench_runs.items():
        if result.status != SOLVED:
            continue
        seq = _replay(domain, problem, result.plan)
        atom = parse_formula(INNER_ATOM[set_name], domain.signature)
        group = tuple(domain.signature.agents)
        evaluator = Evaluator(domain.model)
        for t in range(len(seq)):
            prefix = seq.prefix(t)
            cb = evaluator.evaluate(prefix, GroupBelieves(GroupMode.COMMON, group, atom))
            eb = evaluator.evaluate(prefix, GroupBelieves(GroupMode.UNIFORM, group, atom))
            assert cb <= eb, f"{instance_id} at t={t}: CB {cb} > EB {eb}"
            checked += 1
    _ok(f"8 common <= uniform belief on {checked} evaluations")


def test_criterion_9_fixed_point_depth_statistic(bench_runs):
    seen = {}
    for instance_id, (_, _, _, result, _) in bench_runs.items():
        assert result.common_max <= 5, \
            f"{instance_id}: common-perspective iterations reached {result.common_max}"
        assert result.common_avg <= result.common_max
        seen[instance_id] = result.common_max
    top = max(seen.values())
    _ok(f"9 fixed-point iteration statistic bounded (max observed {top} <= 5)")


def test_bundled_rows_match_expected(bench_runs):
    """The bundled gate: plan length (or status), node counts and fixed-point
    statistics of every instance equal the recorded rows, byte for byte."""
    expected = json.loads(EXPECTED_ROWS.read_text(encoding="utf-8"))["bundled"]
    assert sorted(expected) == sorted(bench_runs)
    for instance_id, (_, _, _, result, _) in bench_runs.items():
        row = {
            "plan_length": result.plan_length if result.plan is not None else result.status,
            "expanded": result.expanded,
            "generated": result.generated,
            "common_max": result.common_max,
            "common_avg": round(result.common_avg, 3),
        }
        assert json.dumps(row, sort_keys=True) == \
            json.dumps(expected[instance_id], sort_keys=True), instance_id
    _ok(f"bundled gate ({len(expected)} rows match {EXPECTED_ROWS.parent.name}/expected.json)")


# per bundled instance: the tests the search asked for (`external_calls`,
# replayed ones included) and, over its common-belief evaluations, the
# fixed-point iterations and the number of fixed points, whose quotient is
# `common_avg`; recorded before searches whose goals read views replayed
# expansions, and unchanged by it
BUNDLED_CALLS = {
    "N0": (109, 0, 0),
    "N1": (14, 0, 0),
    "N2": (109, 94, 46),
    "N3": (754, 361, 176),
    "N4": (6041, 2903, 1355),
    "N5": (131, 106, 52),
    "N6": (101, 112, 75),
    "G0": (3, 6, 2),
    "G1": (274, 3, 1),
    "G2": (12286, 191, 63),
    "G3": (521, 300, 136),
    "G4": (2612, 4886, 2374),
    "G5": (274, 3, 1),
    "G6": (313, 0, 0),
    "BBL0": (4, 8, 4),
    "BBL1": (256, 176, 88),
    "BBL2": (593, 1186, 593),
    "BBL3": (593, 1186, 593),
    "BBL4": (593, 0, 0),
    "BBL5": (593, 0, 0),
    "BBL6": (1, 0, 0),
}


def test_bundled_call_accounting_is_pinned(bench_runs):
    """`expected.json` holds no `external_calls` column and rounds
    `common_avg`, so the test count and the exact fixed-point mean of
    every bundled instance are pinned here."""
    assert sorted(BUNDLED_CALLS) == sorted(bench_runs)
    for instance_id, (_, _, _, result, _) in bench_runs.items():
        calls, iterations, points = BUNDLED_CALLS[instance_id]
        assert result.external_calls == calls, instance_id
        assert result.common_avg == (iterations / points if points else 0.0), instance_id
    _ok(f"bundled call accounting ({len(BUNDLED_CALLS)} instances)")
