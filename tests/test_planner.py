import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from helpers import LITERAL, RuleVisibility, random_belief_free_formula, random_instance
from epiplan.cli import load_benchmark
from epiplan.core import (
    RELATIONS,
    And,
    Atom,
    Believes,
    GroupBelieves,
    GroupMode,
    Not,
    Signature,
    StateSequence,
    Ternary,
    ValidationError,
    Var,
)
from epiplan.oracle import InstanceTooLarge, complete_eval
from epiplan.parser import parse_formula
from epiplan.planner import (
    ABORTED,
    SOLVED,
    UNSOLVABLE,
    Action,
    Effect,
    SearchNode,
    apply_action,
    breadth_first_plan,
)
from epiplan.semantics import _MAX_BELIEF_PATHS, Evaluator


@pytest.fixture(scope="module")
def n1():
    return load_benchmark("number", "n1")


def _root(problem):
    return SearchNode(StateSequence([problem.initial]), ())


def _action(domain, name):
    return next(a for a in domain.actions if a.name == name)


class TestApply:
    def test_effect_appends_successor(self, n1):
        domain, problem = n1
        ev = Evaluator(domain.model)
        root = _root(problem)
        child = apply_action(ev, _action(domain, "subtract"), root)
        assert child is not None
        # one link to the root, read back as the plan and the history
        assert (child.parent, child.action, child.depth, child.folds) == \
            (root, "subtract", 1, ())
        assert child.plan == ("subtract",)
        assert len(child.sequence) == 2
        assert child.last is child.sequence.last and child.last.get("n") == 1
        assert child.sequence[0].get("n") == 2

    def test_mutually_exclusive_peeks(self, n1):
        domain, problem = n1
        ev = Evaluator(domain.model)
        peeked = apply_action(ev, _action(domain, "peek_b"), _root(problem))
        assert apply_action(ev, _action(domain, "peek_a"), peeked) is None

    def test_false_precondition_inapplicable(self, n1):
        domain, problem = n1
        ev = Evaluator(domain.model)
        assert apply_action(ev, _action(domain, "return_a"), _root(problem)) is None

    def test_effect_outside_domain_inapplicable(self, n1):
        domain, problem = n1
        ev = Evaluator(domain.model)
        # n starts at its maximum: add would leave the declared range
        assert apply_action(ev, _action(domain, "add"), _root(problem)) is None

    def test_unknown_precondition_blocks(self, n1):
        # a precondition that evaluates to 1/2 must not fire
        domain, problem = n1
        ev = Evaluator(domain.model)
        pre = parse_formula("(B a (= n 2))", domain.signature)
        action = _action(domain, "subtract")
        gated = type(action)("gated", pre, action.effects)
        assert apply_action(ev, gated, _root(problem)) is None


class TestSearch:
    def test_n1_plan_length(self, n1):
        domain, problem = n1
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=4)
        assert result.status == SOLVED
        assert result.plan_length == 2
        assert result.expanded <= result.generated
        # wall time covers the evaluator time it contains
        spent_evaluating = result.avg_call_ms / 1000.0 * result.external_calls
        assert result.total_time >= spent_evaluating * 0.99

    def test_depth_below_optimum_is_unsolvable(self, n1):
        domain, problem = n1
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=1)
        assert result.status == UNSOLVABLE
        assert result.plan is None

    def test_goal_already_true_gives_empty_plan(self, n1):
        domain, problem = n1
        goals = ((parse_formula("(= n 2)", domain.signature), Ternary.TRUE),)
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    goals, max_depth=4)
        assert result.status == SOLVED
        assert result.plan == ()
        assert result.expanded == 0
        assert result.generated == 1

    def test_unknown_target_goal(self, n1):
        # ask for B_b(n=2) to be exactly unknown: true initially, so empty plan
        domain, problem = n1
        goals = ((parse_formula("(B b (= n 2))", domain.signature), Ternary.UNKNOWN),)
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    goals, max_depth=2)
        assert result.status == SOLVED and result.plan == ()

    def test_determinism(self, n1):
        domain, problem = n1
        runs = [breadth_first_plan(domain.model, domain.actions, problem.initial,
                                   problem.goals, max_depth=4) for _ in range(2)]
        assert runs[0].plan == runs[1].plan
        assert runs[0].expanded == runs[1].expanded
        assert runs[0].generated == runs[1].generated
        assert runs[0].external_calls == runs[1].external_calls

    def test_search_statistics_are_pinned(self, n1):
        # figures recorded before belief-free verdicts were read back by last
        # state: a verdict read back is still a call, and no fixed point moves
        domain, problem = n1
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=4)
        assert (result.expanded, result.generated, result.external_calls) == (2, 6, 14)
        domain, problem = load_benchmark("grapevine", "g3")   # two CB goals
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=problem.max_depth)
        assert (result.expanded, result.generated, result.external_calls) == (17, 164, 521)
        assert (result.common_max, result.common_avg) == (3, 75 / 34)

    def test_deep_e_belief_goal_keeps_its_plan(self, monkeypatch):
        # seven nested EB over four agents would reach 21,844 viewer paths,
        # each stepped at every node; its top is judged on views instead,
        # and the plan and node counts stay those of the search on paths.
        # The levels past the bound keep their verdict on each view for one
        # `evaluate` call, so a view met again below another view is not
        # judged again (17,983 `_on_sequence` calls without that). g2's B
        # preconditions are judged on fold states, so the search replays
        # expansions and judges each of them once per distinct (last state,
        # folds): 273 precondition calls, not the 353 of one per node
        # expanded (4,901 in all), while the goal's 4,548 stay
        from epiplan import semantics

        domain, problem = load_benchmark("grapevine", "g2")
        text = "(= sct_a t)"
        for _ in range(7):
            text = f"(EB (a b c d) {text})"
        goals = ((parse_formula(text, domain.signature), Ternary.TRUE),)
        calls = []
        on_sequence = semantics._on_sequence
        monkeypatch.setattr(semantics, "_on_sequence",
                            lambda *args: calls.append(1) or on_sequence(*args))
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    goals, max_depth=3)
        assert result.status == SOLVED
        assert result.plan == ("move_a_room2", "move_b_room2", "share_a_t")
        assert result.generated == 170
        assert len(calls) == 4821

    @pytest.mark.parametrize("name, depth, status, plan, counts", [
        ("n1", 0, UNSOLVABLE, None, (0, 1, 1)),
        ("n1", 1, UNSOLVABLE, None, (1, 4, 8)),
        ("n1", 2, SOLVED, ("peek_a", "subtract"), (2, 6, 14)),
        ("n1", 3, SOLVED, ("peek_a", "subtract"), (2, 6, 14)),
        ("n1", 4, SOLVED, ("peek_a", "subtract"), (2, 6, 14)),
        ("g2", 6, SOLVED, ("share_a_t", "move_a_room2", "move_c_room1", "move_d_room1",
                           "share_b_t"), (399, 3298, 12286)),
    ])
    def test_frontier_holds_no_node_at_the_depth_limit(self, monkeypatch, name, depth,
                                                        status, plan, counts):
        # a node at the depth limit is goal-tested when generated and never
        # queued; plans and counts are those of a search that queued it
        import epiplan.planner as planner

        queued = []

        class Frontier(deque):
            def __init__(self, nodes=()):
                nodes = list(nodes)
                queued.extend(nodes)
                super().__init__(nodes)

            def append(self, node):
                queued.append(node)
                super().append(node)

        monkeypatch.setattr(planner, "deque", Frontier)
        domain, problem = load_benchmark("number" if name == "n1" else "grapevine", name)
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=depth)
        assert (result.status, result.plan) == (status, plan)
        assert (result.expanded, result.generated, result.external_calls) == counts
        assert all(node.depth < depth for node in queued)
        # every node queued is expanded, unless the goal is met first
        assert len(queued) == result.expanded or status == SOLVED

    @pytest.mark.parametrize("text", ["(CB (a b) (B a (= n 1)))",
                                      "(EB (a b) " * 6 + "(= n 1)" + ")" * 6])
    def test_view_judged_children_stay_off_the_node(self, n1, text):
        # a belief judged on views numbers its child's paths when a view
        # first needs them, so no node carries a fold state on them (the
        # six EB reach 126 paths, the five below the top 62)
        domain, problem = n1
        phi = parse_formula(text, domain.signature)
        start = StateSequence([problem.initial])
        assert Evaluator(domain.model).fold_states(start, [phi]) == ()
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    ((phi, Ternary.TRUE),), max_depth=problem.max_depth)
        assert result.plan == ("peek_a", "subtract", "return_a", "peek_b")
        assert result.generated == 46

    def test_node_budget_aborts(self, n1):
        # the root always counts, so a budget below 1 still generates it
        g2 = load_benchmark("grapevine", "g2")
        for (domain, problem), budget in ((n1, 0), (n1, 2), (g2, 50)):
            result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                        problem.goals, max_depth=4, node_budget=budget)
            assert result.status == ABORTED
            assert result.generated <= max(budget, 1)

    def test_partial_initial_state_rejected(self, n1):
        domain, problem = n1
        partial = domain.signature.make_state({"n": 2})
        with pytest.raises(ValidationError):
            breadth_first_plan(domain.model, domain.actions, partial,
                               problem.goals, max_depth=2)

    def test_duplicate_pruning_keeps_optimal_length(self, n1):
        # peek_a/return_a loops re-create earlier histories' states but never
        # the same full sequence; pruning must not lose the length-2 plan
        domain, problem = n1
        unpruned_result = breadth_first_plan(domain.model, domain.actions,
                                             problem.initial, problem.goals,
                                             max_depth=3)
        assert unpruned_result.plan_length == 2


# --------------------------------------------------------------------------
# Optimality witness: on small random atom-only domains, breadth-first
# search agrees with an enumerator that tries every action sequence.
# --------------------------------------------------------------------------

# atom-only formulas build no view, so what the model lets agents see is moot
BLIND = RuleVisibility({}, frozenset())


def _holds(values, atom):
    """An atom on a total assignment (a dict), read directly."""
    right = values[atom.rhs.name] if isinstance(atom.rhs, Var) else atom.rhs
    return LITERAL[atom.rel](values[atom.lhs], right)


def _step(domains, values, action):
    """The enumerator's own successor: None when the precondition is not
    true or an effect leaves its variable's domain."""
    if action.precondition is not None and not _holds(values, action.precondition):
        return None
    after = dict(values)
    for eff in action.effects:
        if eff.kind == "set":
            new = eff.operand
        elif eff.kind == "copy":
            new = after[eff.operand]
        else:
            new = after[eff.var] + eff.operand
        if not any(type(new) is type(v) and new == v for v in domains[eff.var]):
            return None
        after[eff.var] = new
    return after


def _shortest(domains, actions, values, goals, depth):
    """Length of the shortest action sequence, up to `depth` actions, that
    ends where every goal atom holds; every sequence is tried, nothing is
    pruned. None if there is none."""
    if all(_holds(values, atom) for atom in goals):
        return 0
    if depth == 0:
        return None
    lengths = []
    for action in actions:
        after = _step(domains, values, action)
        if after is not None:
            found = _shortest(domains, actions, after, goals, depth - 1)
            if found is not None:
                lengths.append(found + 1)
    return min(lengths, default=None)


@st.composite
def atom_only_instances(draw):
    n_int = draw(st.integers(1, 2))
    n_bool = draw(st.integers(0, 2))
    domains = {f"i{k}": tuple(range(draw(st.integers(0, 1)), draw(st.integers(2, 3))))
               for k in range(n_int)}
    domains.update({f"b{k}": (False, True) for k in range(n_bool)})
    ints = [v for v in domains if v.startswith("i")]
    bools = [v for v in domains if v.startswith("b")]

    def atom():
        var = draw(st.sampled_from(ints + bools))
        if var in bools:
            rhs = draw(st.sampled_from([Var(b) for b in bools]) | st.booleans())
            return Atom(draw(st.sampled_from(("=", "!="))), var, rhs)
        rhs = draw(st.sampled_from([Var(i) for i in ints]) | st.integers(-1, 4))
        return Atom(draw(st.sampled_from(RELATIONS)), var, rhs)

    def effect():
        var = draw(st.sampled_from(ints + bools))
        same_kind = ints if var in ints else bools
        kind = draw(st.sampled_from(("set", "copy", "add") if var in ints else ("set", "copy")))
        if kind == "set":
            return Effect(var, kind, draw(st.sampled_from(domains[var])))
        if kind == "copy":
            return Effect(var, kind, draw(st.sampled_from(same_kind)))
        return Effect(var, kind, draw(st.sampled_from((-1, 1, 2))))

    actions = tuple(
        Action(f"act{k}", atom() if draw(st.booleans()) else None,
               tuple(effect() for _ in range(draw(st.integers(1, 2)))))
        for k in range(draw(st.integers(1, 3))))
    initial = {var: draw(st.sampled_from(values)) for var, values in domains.items()}
    if draw(st.integers(0, 4)) == 0:
        # a goal that holds at the start: solved with nothing expanded
        var = draw(st.sampled_from(sorted(initial)))
        goals = (Atom("=", var, initial[var]),)
    else:
        goals = tuple(atom() for _ in range(draw(st.integers(1, 2))))
    return domains, actions, initial, goals, draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(atom_only_instances())
def test_plan_length_matches_exhaustive_enumeration(instance):
    domains, actions, initial, goals, max_depth = instance
    sig = Signature(["a"], domains)
    # the search also matches the reference that keeps every history
    result, _ = _same_search(BLIND, actions, sig.global_state(initial),
                             [(goal, Ternary.TRUE) for goal in goals], max_depth)
    want = _shortest(domains, actions, initial, goals, max_depth)
    if want is None:
        assert result.status == UNSOLVABLE
        return
    assert result.status == SOLVED
    assert result.plan_length == want
    if want == 0:
        assert result.expanded == 0 and result.generated == 1
    # the plan found is one the enumerator accepts
    values = initial
    by_name = {action.name: action for action in actions}
    for name in result.plan:
        values = _step(domains, values, by_name[name])
        assert values is not None
    assert all(_holds(values, atom) for atom in goals)


# --------------------------------------------------------------------------
# Duplicates are looked for among siblings only. The reference below keeps
# one search-wide set of every full history generated; both searches must
# return the same plan and the same node counts, on the atom-only instances
# above and on random rule-table models with belief goals.
# --------------------------------------------------------------------------

def _reference_plan(model, actions, initial, goals, max_depth, node_budget=None):
    """(status, plan, expanded, generated, external_calls, common_max,
    common_avg, dropped) of a breadth-first search that drops a child whose
    full history any earlier node already had, evaluates every test on the
    history and stops with
    ABORTED, as the planner does, when `generated` has reached `node_budget`
    before an action is tried."""
    evaluator = Evaluator(model)

    def outcome(status, plan):
        stats = evaluator.stats
        return (status, plan, expanded, generated, stats.external_calls, stats.common_max,
                stats.common_avg, dropped)

    def satisfied(node):
        return all(evaluator.evaluate(node.sequence, phi) is target
                   for phi, target in goals)

    root = SearchNode(StateSequence([initial]), ())
    expanded, generated, dropped = 0, 1, 0
    if satisfied(root):
        return outcome(SOLVED, ())
    frontier, seen = deque([root]), {root.sequence}
    while frontier:
        node = frontier.popleft()
        if len(node.plan) >= max_depth:
            continue
        expanded += 1
        for action in actions:
            if node_budget is not None and generated >= node_budget:
                return outcome(ABORTED, None)
            child = apply_action(evaluator, action, node)
            if child is None:
                continue
            generated += 1
            if child.sequence in seen:
                dropped += 1
                continue
            seen.add(child.sequence)
            if satisfied(child):
                return outcome(SOLVED, child.plan)
            frontier.append(child)
    return outcome(UNSOLVABLE, None)


def _same_search(model, actions, initial, goals, max_depth, node_budget=None):
    """Assert that `breadth_first_plan` matches the reference, evaluate
    calls and fixed-point statistics included; return its result and how
    many duplicates the reference dropped."""
    result = breadth_first_plan(model, actions, initial, goals, max_depth=max_depth,
                                node_budget=node_budget)
    *want, dropped = _reference_plan(model, actions, initial, goals, max_depth, node_budget)
    assert (result.status, result.plan, result.expanded, result.generated,
            result.external_calls, result.common_max, result.common_avg) == tuple(want)
    return result, dropped


def _random_effects(rng, sig):
    """One or two set, copy or add effects."""
    variables = [v for v in sig.variables if not sig.is_agent(v)]
    # effects write variables with more than one value, so that siblings
    # differ and the tree grows; the flag always has two
    varied = [v for v in variables if len(sig.domain(v)) > 1]
    effects = []
    for _ in range(rng.randint(1, 2)):
        var = rng.choice(varied)
        domain = sig.domain(var)
        roll = rng.randrange(3)
        if roll == 0 and all(type(v) is int for v in domain):
            effects.append(Effect(var, "add", rng.choice((-1, 1))))
        elif roll == 1:
            effects.append(Effect(var, "copy", rng.choice(variables)))
        else:
            effects.append(Effect(var, "set", rng.choice(domain)))
    return tuple(effects)


def _random_action(rng, sig, name):
    """An action of one or two set, copy or add effects, with no
    precondition, a belief-free one or a belief of one agent."""
    effects = _random_effects(rng, sig)
    roll = rng.randrange(4)
    if roll < 2:
        pre = None
    elif roll == 2:
        pre = random_belief_free_formula(rng, sig, 1)
    else:
        pre = Believes(rng.choice(sig.agents), random_belief_free_formula(rng, sig, 0))
    return Action(name, pre, effects)


def test_sibling_pruning_matches_full_history_set_with_belief_goals():
    rng = random.Random(12)
    dropped = 0
    for _ in range(150):
        sig, model, seq = random_instance(rng, max_vars=4, max_len=1)
        actions = tuple(_random_action(rng, sig, f"act{k}") for k in range(rng.randint(3, 5)))
        goals = []
        for _ in range(rng.randint(1, 2)):
            group = tuple(a for a in sig.agents if rng.random() < 0.6) or sig.agents[:1]
            phi = GroupBelieves(rng.choice(list(GroupMode)), group,
                                random_belief_free_formula(rng, sig, 1))
            goals.append((phi, rng.choice(list(Ternary))))
        dropped += _same_search(model, actions, seq[0], goals, rng.randint(3, 6))[1]
    # the instances do make siblings reach one state
    assert dropped > 0


def test_searches_with_nested_common_belief_goals_match_the_reference(monkeypatch):
    """Goals shaped as G3's, G4's and N6's, `(B a (CB g φ))` and `(CB g (CB h
    φ))`, with B and DB preconditions: the goals are judged on views and the
    preconditions on fold states, so expansions are replayed with each kept
    child goal-tested afresh. Plans, node counts, evaluate calls and
    fixed-point statistics are the reference's. Half the goals take their
    target from the end of a random walk where the start misses it, so a
    plan of a step or more exists; the others a random one, so many
    searches expand all they can and replay often."""
    from epiplan import planner

    applied = []
    apply_action_ = planner.apply_action

    def counting_apply(evaluator, action, node):
        applied.append(node)
        return apply_action_(evaluator, action, node)

    monkeypatch.setattr(planner, "apply_action", counting_apply)
    rng = random.Random(53)

    def group(sig):
        return tuple(a for a in sig.agents if rng.random() < 0.6) or sig.agents[:1]

    solved, replayed = 0, 0
    for _ in range(150):
        sig, model, seq = random_instance(rng, max_vars=3, max_len=1)
        actions = []
        for k in range(rng.randint(2, 4)):
            roll, inner = rng.randrange(3), random_belief_free_formula(rng, sig, 0)
            pre = None if roll == 0 else Believes(rng.choice(sig.agents), inner) if roll == 1 \
                else GroupBelieves(GroupMode.DISTRIBUTED, group(sig), inner)
            actions.append(Action(f"act{k}", pre, _random_effects(rng, sig)))
        evaluator = Evaluator(model)
        walk = SearchNode(seq, ())
        for _ in range(rng.randint(2, 4)):
            children = [child for child in (apply_action_(evaluator, action, walk)
                                            for action in actions) if child is not None]
            walk = rng.choice(children or [walk])
        goals = []
        for _ in range(3):
            common = GroupBelieves(GroupMode.COMMON, group(sig),
                                   random_belief_free_formula(rng, sig, 1))
            phi = Believes(rng.choice(sig.agents), common) if rng.random() < 0.5 \
                else GroupBelieves(GroupMode.COMMON, group(sig), common)
            if rng.random() < 0.5:
                goals.append((phi, rng.choice(list(Ternary))))
            else:
                target = evaluator.evaluate(walk.sequence, phi)
                if evaluator.evaluate(seq, phi) is not target:
                    goals.append((phi, target))
        if not goals:
            continue
        del applied[:]
        result, _ = _same_search(model, tuple(actions), seq[0], goals[:2], 4)
        solved += result.status == SOLVED and len(result.plan) > 0
        # a node expanded but never handed to apply_action was replayed
        replayed += result.expanded > len({id(node) for node in applied})
    assert solved > 10 and replayed > 40, (solved, replayed)


def test_every_node_budget_aborts_where_the_reference_does(monkeypatch):
    """Each budget from 0 to the unbudgeted search's `generated` gives the
    reference's status, plan and counts, on random rule-table instances
    with belief-free, B and C goals and B preconditions; a replayed
    expansion (module docstring of `planner`) that the budget could stop
    part way is expanded afresh, so it aborts at the same action. The
    preconditions are judged on fold states, so searches with a C goal
    replay too, goal-testing each child afresh."""
    from epiplan import planner

    applied = []
    apply_action_ = planner.apply_action

    def counting_apply(evaluator, action, node):
        applied.append(node)
        return apply_action_(evaluator, action, node)

    monkeypatch.setattr(planner, "apply_action", counting_apply)
    rng = random.Random(41)
    # by whether the goal is a C belief: runs with a replay, unbudgeted-alike
    # and aborted; runs with a refused one
    aborted = 0
    replayed = {(common, stopped): 0 for common in (False, True) for stopped in (False, True)}
    refreshed = {False: 0, True: 0}
    for case in range(120):
        sig, model, seq = random_instance(rng, max_vars=3, max_len=1)
        actions = tuple(_random_action(rng, sig, f"act{k}") for k in range(rng.randint(2, 4)))
        inner = random_belief_free_formula(rng, sig, 1)
        kind = case % 3
        if kind == 0:
            goal = inner
        elif kind == 1:
            goal = Believes(rng.choice(sig.agents), inner)
        else:
            goal = GroupBelieves(GroupMode.COMMON, sig.agents, inner)
        goals = [(goal, rng.choice(list(Ternary)))]
        max_depth = rng.randint(2, 4)
        unbudgeted = breadth_first_plan(model, actions, seq[0], goals, max_depth=max_depth)
        for budget in range(unbudgeted.generated + 1):
            del applied[:]
            result, _ = _same_search(model, actions, seq[0], goals, max_depth, budget)
            stopped = result.status == ABORTED
            aborted += stopped
            # every node expanded afresh applies an action, bar one an abort
            # stops before its first; the other nodes expanded were replayed
            fresh = {id(node): node for node in applied}.values()
            replays = result.expanded - len(fresh) - stopped
            replayed[kind == 2, stopped] += replays > 0
            # a key expanded afresh at two nodes: its replay was refused, as
            # the budget could stop it part way
            keys = Counter((node.last, node.folds) for node in fresh)
            refreshed[kind == 2] += any(count > 1 for count in keys.values())
    # the sweep reaches aborts, and with goals of either kind it reaches
    # replays in searches that finish and in searches the budget stops, and
    # replays refused at the budget
    assert aborted > 400, aborted
    for common in (False, True):
        assert replayed[common, False] > 10 and replayed[common, True] > 80 and \
            refreshed[common] > 150, (replayed, refreshed)


def _belief_over_atom(rng, sig):
    """B, EB, DB or CB of a random group over one atom."""
    var = rng.choice([v for v in sig.variables if not sig.is_agent(v)])
    atom = Atom("=" if rng.random() < 0.7 else "!=", var, rng.choice(sig.domain(var)))
    group = tuple(a for a in sig.agents if rng.random() < 0.6) or sig.agents[:1]
    if rng.random() < 0.25:
        return Believes(rng.choice(sig.agents), atom)
    return GroupBelieves(rng.choice(list(GroupMode)), group, atom)


def _replay_under_oracle(model, actions, initial, plan, goals, ceiling):
    """Replay `plan`, asserting with the exhaustive semantics that every
    precondition holds before its action and every TRUE or FALSE goal meets
    its target at the end."""
    by_name = {action.name: action for action in actions}
    evaluator = Evaluator(model)
    node = SearchNode(StateSequence([initial]), ())
    for name in plan:
        action = by_name[name]
        if action.precondition is not None:
            assert complete_eval(model, node.sequence, action.precondition, ceiling), \
                (plan, name, action.precondition)
        node = apply_action(evaluator, action, node)
    for phi, target in goals:
        if target is not Ternary.UNKNOWN:
            claim = phi if target is Ternary.TRUE else Not(phi)
            assert complete_eval(model, node.sequence, claim, ceiling), (plan, claim)


def test_every_plan_replays_under_the_oracle():
    """Plans for random small rule-table instances whose preconditions and
    goals are one belief over an atom hold under `oracle.complete_eval`.
    The goals take their targets from the end of a random walk where the
    start misses them, so a plan of a step or more exists. Seeing and
    knowledge stay out: ROADMAP item 1's defect is theirs. A plan whose
    history outgrows the completion ceiling is skipped."""
    rng = random.Random(29)
    lengths, skipped = Counter(), 0
    for _ in range(600):
        sig, model, seq = random_instance(rng, max_vars=4, max_len=1)
        actions = tuple(Action(f"act{k}", _belief_over_atom(rng, sig)
                               if rng.random() < 0.7 else None, _random_effects(rng, sig))
                        for k in range(rng.randint(3, 5)))
        evaluator = Evaluator(model)
        walk = SearchNode(seq, ())
        for _ in range(rng.randint(2, 4)):
            children = [child for child in (apply_action(evaluator, action, walk)
                                            for action in actions) if child is not None]
            walk = rng.choice(children or [walk])
        # goals the walk's end meets and the start does not
        goals = [(phi, evaluator.evaluate(walk.sequence, phi))
                 for phi in (_belief_over_atom(rng, sig) for _ in range(4))]
        goals = [(phi, target) for phi, target in goals
                 if evaluator.evaluate(seq, phi) is not target][:2]
        if not goals:
            continue
        result = breadth_first_plan(model, actions, seq[0], goals, max_depth=4)
        assert result.status == SOLVED
        try:
            _replay_under_oracle(model, actions, seq[0], result.plan, goals, ceiling=20_000)
        except InstanceTooLarge:
            skipped += 1
        else:
            lengths[len(result.plan)] += 1
    # most plans are checked, and some take more than one step
    assert skipped < 10 and sum(lengths.values()) >= 150, (skipped, lengths)
    assert sum(count for length, count in lengths.items() if length > 1) >= 5, lengths


# --------------------------------------------------------------------------
# The search layers stay attributable. A search whose formulas are judged on
# a node's last state and fold states alone expands each distinct (last,
# folds) once, with one apply_action per action, and replays the expansion
# at every other node with that key; every evaluate call is made by such a
# first expansion (or the root's goal test), and `external_calls` still
# counts each replayed test. Atoms read only the last state, so one
# interpret_atom per atom read per distinct (formula, last state); each
# apply_action whose precondition holds makes one _apply_effects, so a
# search without replays, as one with a common-belief precondition, makes
# one per node expanded and action whose precondition holds there.
# --------------------------------------------------------------------------

def test_search_layers_are_called_once_per_unit_of_work(monkeypatch):
    from epiplan import core, planner, semantics

    sig = Signature(["a"], {"x": range(4), "flag": (False, True)})
    up = Action("up", Atom("<", "x", 3), (Effect("x", "add", 1),))
    down = Action("down", And(Atom("=", "flag", True), Atom(">", "x", 0)),
                  (Effect("x", "add", -1),))
    raise_flag = Action("raise", Not(Atom("=", "flag", True)), (Effect("flag", "set", True),))
    wait = Action("wait", None, (Effect("flag", "copy", "flag"),))
    actions = (up, down, raise_flag, wait)
    # x never exceeds 3, so the goal is unreachable and every node is expanded
    goals = ((Atom(">", "x", 3), Ternary.TRUE),)
    initial = sig.global_state({"x": 0, "flag": False})
    reference_calls = _reference_plan(BLIND, actions, initial, goals, 3)[4]

    applied, keys, evaluated, atoms, effected = [], [], [], [], []
    expected_atoms, expected_effects = {}, set()
    apply_action_ = planner.apply_action
    apply_effects = planner._apply_effects
    evaluate = semantics.Evaluator.evaluate
    interpret = semantics.interpret_atom

    def reference(state, phi):
        # (verdict, atoms read) of a short-circuiting belief-free evaluation
        if isinstance(phi, Atom):
            return core.interpret_atom(state, phi), 1
        if isinstance(phi, Not):
            verdict, read = reference(state, phi.child)
            return verdict.negate(), read
        left, read = reference(state, phi.left)
        if left is Ternary.FALSE:
            return left, read
        right, more = reference(state, phi.right)
        return min(left, right), read + more

    def expansion_calls(state):
        # the tests one expansion of a node whose last state is `state`
        # asks for: each precondition, and the goal on each child kept
        calls, kept = 0, set()
        for action in actions:
            if action.precondition is not None:
                calls += 1
                if reference(state, action.precondition)[0] is not Ternary.TRUE:
                    continue
            after = apply_effects(sig, state, action.effects)
            if after is not None and after not in kept:
                kept.add(after)
                calls += len(goals)
        return calls

    def counting_apply(evaluator, action, node):
        applied.append(action.name)
        keys.append((node.last, node.folds))
        last = node.last
        if action.precondition is None or \
                reference(last, action.precondition)[0] is Ternary.TRUE:
            expected_effects.add((action.effects, last))
        return apply_action_(evaluator, action, node)

    def counting_effects(sig, state, effects):
        effected.append((effects, state))
        return apply_effects(sig, state, effects)

    def counting_evaluate(self, node, phi):
        evaluated.append(phi)
        expected_atoms[(id(phi), node.last)] = reference(node.last, phi)[1]
        return evaluate(self, node, phi)

    def counting_interpret(state, atom):
        atoms.append(atom)
        return interpret(state, atom)

    monkeypatch.setattr(planner, "apply_action", counting_apply)
    monkeypatch.setattr(planner, "_apply_effects", counting_effects)
    monkeypatch.setattr(semantics.Evaluator, "evaluate", counting_evaluate)
    monkeypatch.setattr(semantics, "interpret_atom", counting_interpret)
    result = breadth_first_plan(BLIND, actions, initial, goals, max_depth=3)
    assert result.status == UNSOLVABLE and result.expanded > 0
    # one apply_action per action per distinct key, fewer than one per node
    expanded_keys = Counter(keys)
    assert set(expanded_keys.values()) == {len(actions)}
    assert len(applied) == len(expanded_keys) * len(actions)
    assert len(expanded_keys) < result.expanded
    # every evaluate call is a miss: the root's goal test, or a test in the
    # one expansion of a key; the replayed tests are counted all the same
    assert all(folds == () for _, folds in expanded_keys)
    assert len(evaluated) == len(goals) + sum(expansion_calls(last) for last, _ in expanded_keys)
    assert len(evaluated) < result.external_calls
    assert result.external_calls == reference_calls
    assert len(atoms) == sum(expected_atoms.values())
    assert len(effected) == len(expected_effects)
    assert set(effected) == expected_effects
    # the evaluator's table saves work: goal tests repeat a last state
    assert len(atoms) < len(evaluated)


def _counted_search(monkeypatch, precondition, goal):
    """The search of an unreachable goal on a small rule-table instance
    whose action `up` has `precondition`, its reference, and the calls it
    made: apply_action by (last, folds), evaluate by formula, _apply_effects
    by (effects, last), and the (effects, last) of each apply_action whose
    precondition holds (it has none, or its one evaluate gave true)."""
    from epiplan import planner, semantics

    sig = Signature(["a", "b"], {"x": range(4), "flag": (False, True)})
    model = RuleVisibility({("a", "x"): ("flag", True), ("b", "x"): True}, frozenset({"flag"}))
    actions = (Action("up", parse_formula(precondition, sig), (Effect("x", "add", 1),)),
               Action("down", None, (Effect("x", "add", -1),)),
               Action("toggle", None, (Effect("flag", "set", True),)))
    # unreachable, so every node is expanded
    goals = ((parse_formula(goal, sig), Ternary.TRUE),)
    initial = sig.global_state({"x": 0, "flag": False})
    reference = _reference_plan(model, actions, initial, goals, 4)

    applied, evaluated, verdicts, effected, passed = [], [], [], [], []
    apply_action_ = planner.apply_action
    apply_effects = planner._apply_effects
    evaluate = semantics.Evaluator.evaluate

    def counting_apply(evaluator, action, node):
        applied.append((node.last, node.folds))
        judged = len(verdicts)
        child = apply_action_(evaluator, action, node)
        if verdicts[judged:] in ([], [Ternary.TRUE]):
            passed.append((action.effects, node.last))
        return child

    def counting_effects(sig, state, effects):
        effected.append((effects, state))
        return apply_effects(sig, state, effects)

    def counting_evaluate(self, node, phi):
        evaluated.append(phi)
        verdicts.append(evaluate(self, node, phi))
        return verdicts[-1]

    monkeypatch.setattr(planner, "apply_action", counting_apply)
    monkeypatch.setattr(planner, "_apply_effects", counting_effects)
    monkeypatch.setattr(semantics.Evaluator, "evaluate", counting_evaluate)
    result = breadth_first_plan(model, actions, initial, goals, max_depth=4)
    assert result.status == UNSOLVABLE
    assert result.external_calls == reference[4]
    # an action's effects are applied exactly once per apply_action call
    # whose precondition holds, in call order
    assert effected == passed
    return result, reference, actions, applied, evaluated, effected, passed


@pytest.mark.parametrize("goal", ["(CB (a b) (> x 3))", "(B a (> x 3))"])
def test_only_searches_judged_on_fold_states_replay_expansions(monkeypatch, goal):
    """A search whose preconditions are judged on fold states expands each
    distinct (last, folds) once, with one apply_action per action, and
    replays the expansion at every other node with that key. Where the
    goals are judged on fold states too, a replay makes no evaluate call;
    a common belief is judged on whole view sequences, so a replay
    goal-tests each kept child afresh with one evaluate call each."""
    result, reference, actions, applied, evaluated, _, _ = \
        _counted_search(monkeypatch, "(B b (< x 3))", goal)
    # one apply_action per action per distinct key, fewer than one per node
    keys = set(applied)
    assert len(applied) == len(keys) * len(actions) < result.expanded * len(actions)
    assert len(evaluated) < result.external_calls
    if goal.startswith("(CB"):
        # the root's goal test, the first expansions' precondition tests and
        # one goal test per kept child (not a duplicate) of every node
        # expanded, replayed or not: every node is expanded, so those are
        # all the nodes generated but the root and the duplicates
        tested = sum(action.precondition is not None for action in actions)
        kept = result.generated - 1 - reference[-1]
        assert len(evaluated) == 1 + len(keys) * tested + kept


def test_a_replayed_expansion_meets_a_common_belief_goal_at_a_later_child(monkeypatch):
    """a and b see v only while `peek` holds. The goal, that both commonly
    believe v = 1 while v = 0 and w = 1, reads the whole history, so it is
    judged on views, and the search replays expansions with each kept child
    goal-tested afresh. The root's (v, w, peek) = (0, 0, false) is met again
    after show, set_v1, hide, set_v0, where both last saw v = 1; that node
    replays the root's expansion, whose kept children are stay, show and
    set_w, after stay_too (a duplicate of stay) and hide (inapplicable), and
    set_w's child meets the goal there, though it missed it at the root.
    Status, plan and every count are those of a fresh expansion."""
    from epiplan import planner

    sig = Signature(["a", "b"], {"v": (0, 1), "w": (0, 1), "peek": (False, True)})
    model = RuleVisibility({("a", "v"): ("peek", True), ("b", "v"): ("peek", True)},
                           frozenset({"peek"}))
    actions = (Action("stay", None, (Effect("peek", "copy", "peek"),)),
               Action("stay_too", None, (Effect("peek", "copy", "peek"),)),
               Action("hide", parse_formula("(= peek true)", sig), (Effect("peek", "set", False),)),
               Action("show", None, (Effect("peek", "set", True),)),
               Action("set_w", parse_formula("(and (= peek false) (= v 0))", sig),
                      (Effect("w", "set", 1),)),
               Action("set_v1", parse_formula("(= peek true)", sig), (Effect("v", "set", 1),)),
               Action("set_v0", None, (Effect("v", "set", 0),)))
    goals = tuple((parse_formula(text, sig), Ternary.TRUE)
                  for text in ("(CB (a b) (= v 1))", "(= v 0)", "(= w 1)"))
    initial = sig.global_state({"v": 0, "w": 0, "peek": False})

    expanded_afresh = []
    apply_action_ = planner.apply_action

    def counting_apply(evaluator, action, node):
        expanded_afresh.append(node.plan)
        return apply_action_(evaluator, action, node)

    monkeypatch.setattr(planner, "apply_action", counting_apply)
    result, _ = _same_search(model, actions, initial, goals, 6)
    assert result.status == SOLVED
    assert result.plan == ("show", "set_v1", "hide", "set_v0", "set_w")
    assert result.common_max > 0
    # the goal's parent was replayed, not expanded afresh
    assert () in expanded_afresh and result.plan[:-1] not in expanded_afresh
    # at the parent's last state, the root's: stay_too repeats stay's child,
    # hide does not apply, and set_w's child is the third one kept
    evaluator = Evaluator(model)
    root = SearchNode(StateSequence([initial]), ())
    children = [apply_action_(evaluator, action, root) for action in actions]
    assert children[1].last == children[0].last and children[2] is None
    kept = {}
    for action, child in zip(actions, children):
        if child is not None:
            kept.setdefault(child.last, action.name)
    assert list(kept.values()) == ["stay", "show", "set_w"]
    assert evaluator.evaluate(children[4].sequence, goals[0][0]) is not Ternary.TRUE


def test_searches_with_preconditions_judged_on_views_expand_every_node(monkeypatch):
    """A common belief in a precondition is judged on whole view sequences,
    so the search expands every node afresh: one apply_action per node and
    action, one evaluate per test, and one _apply_effects per apply_action
    whose precondition holds, though last states repeat across nodes."""
    result, _, actions, applied, evaluated, effected, passed = \
        _counted_search(monkeypatch, "(CB (a b) (< x 3))", "(B a (> x 3))")
    assert len(applied) == result.expanded * len(actions)
    assert len(evaluated) == result.external_calls
    assert effected == passed and len(set(passed)) < len(passed)


@pytest.mark.parametrize("node_budget", [None, 1])
@pytest.mark.parametrize("goal", ["(B a (> x 3))", "(CB (a b) (> x 3))"])
def test_a_domain_with_no_actions_expands_its_root_alone(goal, node_budget):
    """With no actions, the root's expansion tests no precondition and
    generates no child, whether the goal is judged on fold states or, as a
    common belief, on views, where a replay would test it afresh; a search
    ends unsolvable after it, as the reference does. A budget of one node
    aborts nothing, for no action is left to try."""
    sig = Signature(["a", "b"], {"x": range(4), "flag": (False, True)})
    model = RuleVisibility({("a", "x"): ("flag", True), ("b", "x"): True}, frozenset({"flag"}))
    goals = ((parse_formula(goal, sig), Ternary.TRUE),)
    initial = sig.global_state({"x": 0, "flag": False})
    result, _ = _same_search(model, (), initial, goals, 4, node_budget)
    assert (result.status, result.expanded, result.generated, result.external_calls) == \
        (UNSOLVABLE, 1, 1, 1)


def test_search_nodes_step_each_viewer_path_once_per_child(monkeypatch):
    """With beliefs, the unit of work is one fold step per viewer path per
    kept child (not a duplicate), from its parent's fold states; no view is
    built, and every precondition and goal test is still one `evaluate`
    call, handed the node and its fold states."""
    from epiplan import perspectives, semantics

    sig = Signature(["a", "b"], {"x": range(4), "flag": (False, True)})
    model = RuleVisibility({("a", "x"): ("flag", True), ("b", "x"): True}, frozenset({"flag"}))
    up = Action("up", parse_formula("(B b (< x 3))", sig), (Effect("x", "add", 1),))
    down = Action("down", parse_formula("(DB (a b) (> x 0))", sig), (Effect("x", "add", -1),))
    toggle = Action("toggle", None, (Effect("flag", "set", True),))
    stay = Action("stay", None, (Effect("x", "add", 0),))
    # unreachable, so every node is expanded; the paths are (b), (a b), (a), (a)(b)
    goal = parse_formula("(B a (B b (> x 3)))", sig)

    advanced, built, tested = [], [], []
    advance = perspectives.FoldPaths.advance
    believed = perspectives._believed_sequence
    evaluate = semantics.Evaluator.evaluate

    def counting_advance(self, folds, state):
        advanced.append(len(folds))
        return advance(self, folds, state)

    def counting_build(*args, **kwargs):
        built.append(args)
        return believed(*args, **kwargs)

    def counting_evaluate(self, node, phi):
        if phi is goal:
            tested.append(node)
        assert isinstance(node, SearchNode) and len(node.folds) == 4
        return evaluate(self, node, phi)

    monkeypatch.setattr(perspectives.FoldPaths, "advance", counting_advance)
    monkeypatch.setattr(perspectives, "_believed_sequence", counting_build)
    monkeypatch.setattr(semantics.Evaluator, "evaluate", counting_evaluate)
    result = breadth_first_plan(model, (up, down, toggle, stay),
                                sig.global_state({"x": 0, "flag": False}),
                                ((goal, Ternary.TRUE),), max_depth=3)
    assert result.status == UNSOLVABLE and result.expanded > 0
    # `stay` repeats its parent's state and `toggle` often does, so some
    # children are duplicates, never goal-tested nor stepped
    assert len(tested) < result.generated
    assert advanced == [4] * (len(tested) - 1)
    assert built == []


def test_effects_apply_in_order():
    """A later effect of an action reads what an earlier one wrote."""
    sig = Signature(["a"], {"x": range(4), "y": range(4)})
    action = Action("shift", None, (Effect("x", "set", 2), Effect("x", "add", 1),
                                    Effect("y", "copy", "x")))
    root = SearchNode(StateSequence([sig.global_state({"x": 0, "y": 0})]), ())
    child = apply_action(Evaluator(BLIND), action, root)
    assert (child.sequence.last.get("x"), child.sequence.last.get("y")) == (3, 3)


def test_search_node_is_immutable(n1):
    domain, problem = n1
    node = _root(problem)
    # a root built from (sequence, plan): no parent, no action, depth 0
    assert tuple(node) == (None, None, 0, (), problem.initial)
    assert (node.sequence, node.plan, node.folds) == (StateSequence([problem.initial]), (), ())
    evaluator = Evaluator(domain.model)
    folds = evaluator.fold_states(node.sequence, [parse_formula("(B a (= n 2))",
                                                                domain.signature)])
    folded = SearchNode(node.sequence, node.plan, folds)
    assert len(folded) == 5 and len(folded.folds) == len(folds) == 1
    assert (folded.parent, folded.action, folded.depth, folded.folds, folded.last) == \
        tuple(folded)
    # a longer history becomes a chain of nodes; only the last carries folds
    child = apply_action(evaluator, _action(domain, "subtract"), node)
    history = child.sequence.extend(child.last)
    chain = SearchNode(history, ("subtract", "wait"), folds)
    assert (chain.sequence, chain.plan, chain.depth, chain.folds) == \
        (history, ("subtract", "wait"), 2, folds)
    assert chain.parent.folds == chain.parent.parent.folds == ()
    with pytest.raises(ValueError):
        SearchNode(history, ("subtract",))
    for each in (node, folded, child):
        with pytest.raises(AttributeError):
            each.plan = ("peek_a",)
        with pytest.raises(AttributeError):
            each.folds = ()
        with pytest.raises(AttributeError):
            each.parent = None
        with pytest.raises(AttributeError):
            each.extra = 1


def test_deep_node_repr_and_equality_do_not_recurse(n1):
    """A node 5,000 links deep, as a long replay builds, prints and compares
    without following its links: a tuple's `repr`, `==` and `hash` would
    recurse along them and raise RecursionError."""
    _, problem = n1
    history = StateSequence([problem.initial] * 5001)
    deep = SearchNode(history, ("wait",) * 5000)
    again = SearchNode(history, ("wait",) * 5000)
    assert deep.depth == 5000
    assert repr(deep) == f"SearchNode(action='wait', depth=5000, last={problem.initial!r})"
    assert deep == deep and not deep != deep
    assert deep != again and not deep == again
    assert len({deep, again, deep}) == 2
    assert again.sequence == deep.sequence and again.plan == deep.plan


# --------------------------------------------------------------------------
# A node holds no history: a child is one link to its parent, and the
# history and plan are rebuilt along the links. On a node the evaluator
# reads the last state and the carried fold states, and rebuilds the history
# only for a judge that reads whole sequences (common beliefs and chains
# past the path bound).
# --------------------------------------------------------------------------

WALKED = {name: load_benchmark(name, problem)
          for name, problem in (("number", "n0"), ("grapevine", "g0"), ("bbl", "bbl0"))}


def _chain_past_bound(rng, sig):
    """E beliefs of every agent over an atom, nested one level deeper than
    `_MAX_BELIEF_PATHS` allows on paths."""
    phi, reached = random_belief_free_formula(rng, sig, 0), 0
    while reached <= _MAX_BELIEF_PATHS:
        phi = GroupBelieves(GroupMode.UNIFORM, sig.agents, phi)
        reached = len(sig.agents) * (1 + reached)
    return phi


def _walk_formulas(rng, sig):
    """A belief of each mode over a random group, a random nest of them
    and a chain past the path bound."""
    def group():
        return tuple(a for a in sig.agents if rng.random() < 0.6) or sig.agents[:1]

    formulas = [GroupBelieves(mode, group(), random_belief_free_formula(rng, sig, 1))
                for mode in GroupMode]
    phi = random_belief_free_formula(rng, sig, 1)
    for _ in range(rng.randint(1, 3)):
        phi = GroupBelieves(rng.choice(list(GroupMode)), group(), phi)
        if rng.random() < 0.3:
            phi = Not(phi)
    return formulas + [phi, _chain_past_bound(rng, sig)]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("random",) + tuple(WALKED)), seed=st.integers(0, 2 ** 32 - 1))
def test_linked_nodes_rebuild_and_judge_as_their_history(kind, seed):
    """On a random action walk, a node carrying fold states (stepped as the
    search steps them) and one carrying none rebuild the history and plan
    that extension builds, and `evaluate` on either gives the verdict that
    a fresh evaluator gives on the rebuilt history."""
    rng = random.Random(seed)
    if kind == "random":
        sig, model, seq = random_instance(rng, max_vars=4, max_len=1)
        actions = tuple(_random_action(rng, sig, f"act{k}") for k in range(4))
        initial = seq[0]
    else:
        domain, problem = WALKED[kind]
        sig, model, actions, initial = (domain.signature, domain.model, domain.actions,
                                        problem.initial)
    formulas = _walk_formulas(rng, sig)
    evaluator = Evaluator(model)
    history, plan = StateSequence([initial]), ()
    pres = [action.precondition for action in actions if action.precondition is not None]
    folded = SearchNode(history, plan, evaluator.fold_states(history, pres + formulas))
    plain = SearchNode(history)
    for _ in range(rng.randint(0, 5)):
        steps = [(action, apply_action(evaluator, action, folded),
                  apply_action(evaluator, action, plain)) for action in actions]
        assert all((child is None) == (other is None) for _, child, other in steps)
        steps = [step for step in steps if step[1] is not None]
        if not steps:
            break
        action, child, plain = rng.choice(steps)
        folded = child._replace(folds=evaluator.step_folds(folded.folds, child.last))
        history, plan = history.extend(child.last), plan + (action.name,)
        for node in (folded, plain):
            assert (node.sequence, node.plan, node.depth) == (history, plan, len(plan))
    fresh = Evaluator(model)
    for phi in formulas:
        verdict = fresh.evaluate(folded.sequence, phi)
        assert evaluator.evaluate(folded, phi) is verdict, phi
        assert evaluator.evaluate(plain, phi) is verdict, phi


def test_a_search_copies_no_history(monkeypatch):
    """A search extends no sequence. With atom-only preconditions and goals
    it rebuilds no history either; with common-belief goals it rebuilds one
    exactly for each `evaluate` of a goal, whose record reads whole
    sequences, and for nothing else: the B preconditions read fold rows."""
    from epiplan import semantics

    extended, rebuilt, goal_tested = [], [], []
    extend = StateSequence.extend
    sequence = SearchNode.sequence.fget
    evaluate = semantics.Evaluator.evaluate

    def counting_extend(self, state):
        extended.append(state)
        return extend(self, state)

    def counting_sequence(node):
        rebuilt.append(node)
        return sequence(node)

    def counting_evaluate(self, node, phi):
        if any(phi is goal for goal, _ in goals):
            goal_tested.append(node)
        return evaluate(self, node, phi)

    monkeypatch.setattr(StateSequence, "extend", counting_extend)
    monkeypatch.setattr(SearchNode, "sequence", property(counting_sequence))
    monkeypatch.setattr(semantics.Evaluator, "evaluate", counting_evaluate)
    sig = Signature(["a"], {"x": range(4), "flag": (False, True)})
    up = Action("up", Atom("<", "x", 3), (Effect("x", "add", 1),))
    flip = Action("flip", Not(Atom("=", "flag", True)), (Effect("flag", "set", True),))
    goals = ((Atom(">", "x", 3), Ternary.TRUE),)
    result = breadth_first_plan(BLIND, (up, flip), sig.global_state({"x": 0, "flag": False}),
                                goals, max_depth=4)
    assert result.status == UNSOLVABLE and len(goal_tested) > 1
    assert extended == [] and rebuilt == []

    # (B b (CB (a b c d) (= sct_a f))) and (CB (a c d) (= sct_a t))
    domain, problem = load_benchmark("grapevine", "g3")
    goal_tested.clear()
    goals = problem.goals
    result = breadth_first_plan(domain.model, domain.actions, problem.initial, goals,
                                max_depth=problem.max_depth)
    assert result.status == SOLVED and result.common_max > 0
    assert extended == []
    assert len(goal_tested) > 1 and [id(node) for node in rebuilt] == \
        [id(node) for node in goal_tested]
