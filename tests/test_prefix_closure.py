"""Property tests for prefix-closure of perspectives.

The retrieval rule reads only [s_0..s_t] when it fills in timestamp t, so the
view of a prefix is the prefix of the view. Every view is one fold over the
whole sequence, and the fold's step memo relies on this: a step taken for one
sequence is read back for every sequence that shares the prefix up to it.
These tests pin the invariant down on random rule-table models and on the
three bundled observation models. The last tests cover the fold's memo, the
one cache an evaluator keeps for its lifetime, with the views of its target
keyed by viewer group: views and observations match memo-free definitions,
one agent's view is one path for B, EB and DB alike, the fold states the
memo steps through and those search nodes carry match their definition
(also on a one-variable signature, past 64 variables, on inputs that drop
a seen variable and on a seen variable resolved while unseen),
equal view states are one object, `sees` is asked once per state and viewer
group (by beliefs, seeing and knowledge alike) and once per gate projection
of a state, masks keyed by gate projection equal those of a model that
declares no gates, a model used under two
signatures never mixes them, and a dropped memo is freed without the cyclic
collector.
"""

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RuleVisibility,
    random_belief_free_formula,
    random_instance,
    random_states,
    retrieve_value,
)
from epiplan.cli import load_benchmark
from epiplan.core import (
    And,
    Atom,
    Believes,
    GroupBelieves,
    GroupKnows,
    GroupMode,
    GroupSees,
    GroupSeesVar,
    Knows,
    Not,
    Signature,
    State,
    StateSequence,
    Ternary,
    make_group,
)
from epiplan import perspectives
from epiplan.parser import parse_formula, parse_trace
from epiplan.planner import Action, Effect, breadth_first_plan
from epiplan.perspectives import (
    FoldMemo,
    ObservationModel,
    _believed_sequence,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    justified_perspective,
)
from epiplan.semantics import Evaluator

BUNDLED = {name: load_benchmark(name, problem)[0]
           for name, problem in (("number", "n0"), ("grapevine", "g0"), ("bbl", "bbl0"))}
MODELS = ("random",) + tuple(BUNDLED)

SETTINGS = settings(max_examples=60, deadline=None)


def _instance(kind: str, rng: random.Random, max_len: int = 6, partial: bool = False):
    """(signature, model, sequence); the sequence is built with `extend`, as
    search nodes are. With `partial` its states are partial, as `_partial`
    makes them."""
    if kind == "random":
        sig, model, seq = random_instance(rng, max_vars=4, max_domain=3, max_len=max_len)
        states = list(seq)
    else:
        domain = BUNDLED[kind]
        sig, model = domain.signature, domain.model
        states = random_states(rng, sig, rng.randint(1, max_len))
    if partial:
        states = _partial(rng, sig, states)
    seq = StateSequence(states[:1])
    for state in states[1:]:
        seq = seq.extend(state)
    return sig, model, seq


def _partial(rng: random.Random, sig, states):
    """The states with each declared variable dropped at random, as the
    `state` lines of a trace may leave them (the agent markers stay, as the
    trace parser fills them in). A variable can then be assigned at t and
    absent at t + 1: the input is not assignment-monotone."""
    return [state.restrict([var for var in state.assigned()
                            if sig.is_agent(var) or rng.random() < 0.5])
            for state in states]


def _cut(view: StateSequence, t: int) -> StateSequence:
    return StateSequence(view[: t + 1])


def _nested(model, path, seq):
    for agent in path:
        seq = justified_perspective(model, agent, seq)
    return seq


def _by_definition(model, viewers, seq):
    """The retrieval rule applied literally: at each t, each variable takes
    its value at the last time <= t some viewer saw it, looked up in the
    prefix [s_0..s_t]; a variable not yet seen is absent."""
    sig = seq.sig
    states = []
    for t in range(len(seq)):
        vals = []
        for var in sig.variables:
            seen = [u for u in range(t + 1)
                    if any(model.sees(i, seq[u], var) for i in viewers)]
            vals.append(retrieve_value(seq.prefix(t), seen[-1], var) if seen else None)
        states.append(State(sig, tuple(vals)))
    return StateSequence(states)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_fold_follows_the_retrieval_rule(kind, seed):
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng)
    group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
    nested = justified_perspective(model, rng.choice(sig.agents), seq)
    for source in (seq, nested):
        for agent in sig.agents:
            assert justified_perspective(model, agent, source) == \
                _by_definition(model, (agent,), source)
        assert distributed_perspective(model, group, source) == \
            _by_definition(model, group, source)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_individual_and_pooled_views_are_prefix_closed(kind, seed):
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng)
    group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
    for t in range(len(seq)):
        prefix = seq.prefix(t)
        for agent in sig.agents:
            assert justified_perspective(model, agent, prefix) == \
                _cut(justified_perspective(model, agent, seq), t)
        assert distributed_perspective(model, group, prefix) == \
            _cut(distributed_perspective(model, group, seq), t)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_nested_views_are_prefix_closed(kind, seed):
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng)
    for _ in range(3):
        path = [rng.choice(sig.agents) for _ in range(rng.randint(2, 3))]
        full = _nested(model, path, seq)
        for t in range(len(seq)):
            assert _nested(model, path, seq.prefix(t)) == _cut(full, t), path


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_common_views_are_prefix_closed(kind, seed):
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng, max_len=5)
    group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
    full, _ = common_perspectives(model, group, seq)
    for t in range(len(seq)):
        views, _ = common_perspectives(model, group, seq.prefix(t))
        assert views == frozenset(_cut(w, t) for w in full)


def _random_formula(rng: random.Random, sig):
    agents = sig.agents
    var = rng.choice([v for v in sig.variables if not sig.is_agent(v)])
    pool = sig.domain(var)
    phi = Atom("=", var, pool[rng.randrange(len(pool))])
    if rng.random() < 0.3:
        phi = Knows(rng.choice(agents), phi)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4:
            phi = Believes(rng.choice(agents), phi)
        else:
            group = make_group(rng.sample(agents, rng.randint(1, len(agents))))
            phi = GroupBelieves(rng.choice(list(GroupMode)), group, phi)
        if rng.random() < 0.2:
            phi = Not(phi)
    if rng.random() < 0.3:
        phi = And(phi, Believes(rng.choice(agents), Atom("=", var, pool[0])))
    return phi


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_long_lived_evaluator_matches_fresh_ones(kind, seed):
    rng = random.Random(seed)
    sig, model, child = _instance(kind, rng, max_len=5)
    while len(child) < 2:
        sig, model, child = _instance(kind, rng, max_len=5)
    parent = child.prefix(len(child) - 2)
    sibling = parent.extend(random_states(rng, sig, 1)[0])
    unrelated = StateSequence(random_states(rng, sig, rng.randint(1, 5)))
    formulas = [_random_formula(rng, sig) for _ in range(4)]
    calls = [(seq, phi) for seq in (child, unrelated, parent, child, sibling, parent)
             for phi in formulas]
    long_lived = Evaluator(model)
    fresh_counts = []
    over = {}
    for seq, phi in calls:
        fresh = Evaluator(model)
        assert long_lived.evaluate(seq, phi) is fresh.evaluate(seq, phi), phi
        fresh_counts.extend(fresh.stats.cf_iteration_counts)
        if seq not in over:
            over[seq] = _views_over(model, seq)
        _assert_held_for_one_call(long_lived, over[seq])
    assert long_lived.stats.cf_iteration_counts == fresh_counts


def _cached(evaluator):
    """The views the evaluator holds, keyed by (agent, input)."""
    return dict(evaluator._memo.views)


def _views_over(model, seq):
    """`seq` and every view over it, pooled or individual, of any depth."""
    agents = seq.sig.agents
    groups = [group for size in range(1, len(agents) + 1)
              for group in itertools.combinations(agents, size)]
    memo = FoldMemo()
    over, todo = {seq}, [seq]
    while todo:
        source = todo.pop()
        for group in groups:
            view = distributed_perspective(model, group, source, memo)
            if view not in over:
                over.add(view)
                todo.append(view)
    return over


def _assert_held_for_one_call(evaluator, over):
    """After a call on a sequence that judged a belief, every view held was
    built in that call: it and its input are in `over`, the sequence and
    the views over it (`_views_over`)."""
    cached = _cached(evaluator)
    assert {source for _, source in cached} | set(cached.values()) <= over


def test_views_are_held_for_one_call(number_dom, plan1):
    """An evaluator reused on interleaved sequences (A, B, A) gives the
    verdicts and fixed-point iteration counts of fresh evaluators, and
    after each call holds only the views that call built."""
    texts = ("(CB (a b) (< n 3))",
             "(and (CB (a b) (< n 3)) (B a (B b (= n 1))))",
             "(EB (a b) (CB (a b) (= n 1)))",
             "(CB (a b) (B a (= n 1)))")
    formulas = [parse_formula(text, number_dom.signature) for text in texts]
    other = StateSequence(reversed(plan1))
    evaluator = Evaluator(number_dom.model)
    fresh_counts = []
    for seq in (plan1, other, plan1):
        over = _views_over(number_dom.model, seq)
        for phi in formulas:
            fresh = Evaluator(number_dom.model)
            assert evaluator.evaluate(seq, phi) is fresh.evaluate(seq, phi), phi
            fresh_counts.extend(fresh.stats.cf_iteration_counts)
            assert _cached(evaluator)
            _assert_held_for_one_call(evaluator, over)
    assert evaluator.stats.cf_iteration_counts == fresh_counts


def test_cache_holds_views_over_the_latest_target_only(number_dom, plan1):
    """Walking a trace forwards, the cache keeps only the views the common
    fixed point built in the latest call, as long as its sequence, over it
    or over views of it; a belief without a common belief in it adds none,
    and an unrelated sequence drops them all."""
    evaluator = Evaluator(number_dom.model)
    phi = parse_formula("(and (CB (a b) (< n 3)) (B a (B b (= n 1))))",
                        number_dom.signature)
    for t in range(len(plan1)):
        seq = plan1.prefix(t)
        fresh = Evaluator(number_dom.model).evaluate(seq, phi)
        assert evaluator.evaluate(seq, phi) is fresh
        cached = _cached(evaluator)
        assert {len(view) for view in cached.values()} == {len(seq)}
        assert {source for _, source in cached} <= {seq} | set(cached.values())
        assert ("a", seq) in cached
        views, _ = common_perspectives(number_dom.model, ("a", "b"), seq)
        assert set(cached.values()) <= views
        assert {agent for agent, _ in cached} <= {"a", "b"}
    unrelated = StateSequence(reversed(plan1))
    evaluator.evaluate(unrelated, phi)
    cached = _cached(evaluator)
    assert {source for _, source in cached} <= {unrelated} | set(cached.values())
    assert ("a", unrelated) in cached and ("a", plan1) not in cached


def _chain(paths, number):
    """The viewer groups along path `number`, first group first."""
    chain = []
    while number >= 0:
        chain.append(paths.tables[number]._viewers)
        number = paths.parents[number]
    return chain[::-1]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_one_agent_view_is_shared_by_b_eb_and_db(number_dom, plan1, order):
    """`(B a φ)`, `(EB (a) φ)` and `(DB (a) φ)` read a's view of the target
    along one path, whichever asks first; φ = `(B b ...)` adds one path, b's
    view of a's view. No view is built, and each step the walks take is
    worked out once."""
    texts = [f"({op} {who} (B b (= n 1)))" for op, who in (("B", "a"), ("EB", "(a)"),
                                                         ("DB", "(a)"))]
    formulas = [parse_formula(texts[i], number_dom.signature) for i in order]
    built, taken = Counter(), Counter()
    believed, step = perspectives._believed_sequence, perspectives._fold_step

    def counting_build(model, viewers, seq, memo=None):
        built[(viewers, seq)] += 1
        return believed(model, viewers, seq, memo)

    def counting_step(table, fold, state):
        taken[(table, fold, state)] += 1
        return step(table, fold, state)

    perspectives._believed_sequence = counting_build
    perspectives._fold_step = counting_step
    try:
        evaluator = Evaluator(number_dom.model)
        verdicts = {evaluator.evaluate(plan1, phi) for phi in formulas}
    finally:
        perspectives._believed_sequence = believed
        perspectives._fold_step = step
    assert verdicts == {Evaluator(number_dom.model).evaluate(plan1, formulas[0])}
    paths = evaluator._paths
    assert [_chain(paths, n) for n in range(len(paths.tables))] == [[("a",)], [("a",), ("b",)]]
    assert not built
    assert {table for table, _, _ in taken} == set(paths.tables)
    assert max(taken.values()) == 1


def test_memo_is_freed_by_reference_counting_alone(number_dom, plan1):
    """A search's evaluator and a long-lived one hold no reference cycle:
    once dropped, the cyclic collector finds nothing of theirs to free."""
    domain, problem = load_benchmark("grapevine", "g2")
    formulas = [parse_formula(text, number_dom.signature) for text in (
        "(B a (= n 1))", "(EB (a b) (B b (= n 1)))", "(DB (a b) (< n 3))",
        "(CB (a b) (< n 3))", "(S a n)", "(K b (= n 1))", "(ES (a b) (= n 1))")]
    gc.collect()
    gc.disable()
    try:
        result = breadth_first_plan(domain.model, domain.actions, problem.initial,
                                    problem.goals, max_depth=4)
        evaluator = Evaluator(number_dom.model)
        for t in range(len(plan1)):
            for phi in formulas:
                evaluator.evaluate(plan1.prefix(t), phi)
        assert result.generated > 1000 and evaluator.stats.cf_iteration_counts
        del result, evaluator
        assert gc.collect() == 0
    finally:
        gc.enable()


def _belief_formula(rng: random.Random, sig):
    """Nested individual and group beliefs over an atom: every `sees` call
    they cause comes from building perspectives."""
    var = rng.choice([v for v in sig.variables if not sig.is_agent(v)])
    pool = sig.domain(var)
    phi = Atom("=", var, pool[rng.randrange(len(pool))])
    for _ in range(rng.randint(1, 3)):
        group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
        phi = GroupBelieves(rng.choice(list(GroupMode)), group, phi)
    return phi


def _seeing_formulas(rng: random.Random, sig):
    """S, K and SeesVar in every mode, each on its own and under a belief."""
    variables = [v for v in sig.variables if not sig.is_agent(v)]
    formulas = []
    for mode in GroupMode:
        group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
        for node in (GroupSeesVar(mode, group, rng.choice(variables)),
                     GroupSees(mode, group, random_belief_free_formula(rng, sig, 1)),
                     GroupKnows(mode, group, random_belief_free_formula(rng, sig, 1))):
            outer = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
            formulas += [node, GroupBelieves(rng.choice(list(GroupMode)), outer, node)]
    return formulas


def _viewer_groups(phi):
    """The viewer groups whose visibility evaluating `phi` may ask about: a
    D operator's group, and each member of an E or C operator's group."""
    if isinstance(phi, Atom):
        return set()
    if isinstance(phi, And):
        return _viewer_groups(phi.left) | _viewer_groups(phi.right)
    if isinstance(phi, Not):
        return _viewer_groups(phi.child)
    if phi.mode is GroupMode.DISTRIBUTED:
        groups = {phi.group}
    else:
        groups = {(agent,) for agent in phi.group}
    if isinstance(phi, GroupSeesVar):
        return groups
    return groups | _viewer_groups(phi.child)


def _related_sequences(rng, sig, child, partial: bool = False):
    """A sequence, its one-step prefix, a sibling and an unrelated sequence
    (with `partial`, the new states are partial, as `_partial` makes them)."""
    def fresh(count):
        states = random_states(rng, sig, count)
        return _partial(rng, sig, states) if partial else states

    parent = child.prefix(max(len(child) - 2, 0))
    sibling = parent.extend(fresh(1)[0])
    unrelated = StateSequence(fresh(rng.randint(1, 5)))
    return (child, parent, sibling, unrelated, child)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_memoised_views_match_memo_free_builds(kind, seed):
    rng = random.Random(seed)
    sig, model, child = _instance(kind, rng, max_len=5)
    formulas = [_random_formula(rng, sig) for _ in range(4)]
    evaluator = Evaluator(model)
    canonical = {}
    for seq in _related_sequences(rng, sig, child):
        for phi in formulas:
            evaluator.evaluate(seq, phi)
            # the cache holds the common fixed point's one-agent views,
            # over the sequence and over views
            for (agent, source), view in _cached(evaluator).items():
                assert view == justified_perspective(model, agent, source)
                for state in view:
                    assert state.sig is sig
                    assert canonical.setdefault(state.vals, state) is state


def _fold_by_definition(model, viewers, seq):
    """The parts of the fold state after the last state of `seq`, read off
    the whole sequence: the bitmask of the variables some viewer has seen
    that `seq` never assigns (bit i for the variable at index i), and each
    variable's most recent value."""
    sig = seq.sig
    unresolved = sum(
        1 << idx for idx, var in enumerate(sig.variables)
        if any(model.sees(i, state, var) for state in seq for i in viewers)
        and all(state.vals[idx] is None for state in seq))
    last = tuple(next((state.vals[idx] for state in reversed(seq)
                       if state.vals[idx] is not None), None)
                 for idx in range(len(sig.variables)))
    return unresolved, last


def _fold_after(model, viewers, seq, memo):
    """The fold state the viewers' view of `seq` ends in, read by walking
    the memo's steps from the empty fold state (they must all be there)."""
    table = perspectives._visibility(model, seq.sig, viewers, memo)
    fold = table.start
    for state in seq:
        fold = table.steps[fold, state]
    return fold


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1),
       partial=st.booleans())
def test_step_memo_matches_memo_free_builds_in_any_order(kind, seed, partial):
    """Views built through one long-lived memo, of sequences and their
    one-step prefixes in random order, over global or partial inputs and
    over views, equal the retrieval rule applied literally. The fold state
    each view ends in holds its last row, what it has seen but never had
    assigned and the input's last values, and fold states of one viewer
    group with equal parts are one object."""
    rng = random.Random(seed)
    sig, model, child = _instance(kind, rng, max_len=5, partial=partial)
    group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
    viewers = [(agent,) for agent in sig.agents] + [group]
    jobs = [(members, seq, outer)
            for seq in _related_sequences(rng, sig, child, partial)
            for members in viewers
            for outer in (None, (rng.choice(sig.agents),))]
    rng.shuffle(jobs)
    memo = FoldMemo()
    folds = {}
    for members, seq, outer in jobs:
        source = seq if outer is None else _believed_sequence(model, outer, seq, memo=memo)
        view = _believed_sequence(model, members, source, memo=memo)
        assert view == _by_definition(model, members, source)
        built = [(view, source)]
        if len(source) > 1:
            prefix = source.prefix(len(source) - 2)
            before = _believed_sequence(model, members, prefix, memo=memo)
            assert before == _cut(view, len(source) - 2)
            built.append((before, prefix))
        for result, watched in built:
            fold = _fold_after(model, members, watched, memo)
            assert fold.row is result.last
            assert (fold.unresolved, fold.last.vals) == \
                _fold_by_definition(model, members, watched)
            key = (members, fold.row.vals, fold.unresolved, fold.last.vals)
            assert folds.setdefault(key, fold) is fold


class _CountingModel(ObservationModel):
    """Delegates to another model and counts each (agent, state, variable)
    it is asked about."""

    def __init__(self, inner: ObservationModel):
        self.inner = inner
        self.asked = Counter()

    def sees(self, agent, state, var):
        self.asked[(agent, state.vals, var)] += 1
        return self.inner.sees(agent, state, var)

    def gate_variables(self, agent):
        return self.inner.gate_variables(agent)


class _Ungated(ObservationModel):
    """Another model with its gate declarations taken away: its masks are
    keyed by whole states."""

    def __init__(self, inner: ObservationModel):
        self.inner = inner

    def sees(self, agent, state, var):
        return self.inner.sees(agent, state, var)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1),
       partial=st.booleans())
def test_gate_keyed_masks_match_ungated_ones(kind, seed, partial):
    """Individual, pooled, nested and common views, and observations, are
    the same whether masks are keyed by gate projection or by state."""
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng, max_len=5, partial=partial)
    assert model.gate_variables(sig.agents[0]) is not None
    ungated = _Ungated(model)
    group = make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
    for sequence in (seq, justified_perspective(model, rng.choice(sig.agents), seq)):
        for agent in sig.agents:
            assert justified_perspective(model, agent, sequence) == \
                justified_perspective(ungated, agent, sequence)
        assert distributed_perspective(model, group, sequence) == \
            distributed_perspective(ungated, group, sequence)
        assert common_perspectives(model, group, sequence) == \
            common_perspectives(ungated, group, sequence)
        for state in sequence:
            assert group_observation(model, group, state) == \
                group_observation(ungated, group, state)
            assert common_observation(model, group, state) == \
                common_observation(ungated, group, state)


@pytest.mark.parametrize("kind", tuple(BUNDLED))
def test_sees_is_asked_once_per_gate_projection(kind):
    """Over many states, one viewer's visibility table asks `sees` about
    each variable once per distinct projection of a state onto the
    viewer's gate variables, not once per state."""
    rng = random.Random(17)
    domain = BUNDLED[kind]
    sig = domain.signature
    agent = sig.agents[0]
    gates = domain.model.gate_variables(agent)
    states = random_states(rng, sig, 200)
    counting = _CountingModel(domain.model)
    memo = FoldMemo()
    for state in states:
        group_observation(counting, (agent,), state, memo)
    projections = {tuple(state.get(var) for var in sorted(gates)) for state in states}
    assert len(projections) < len(set(states))
    assert sum(counting.asked.values()) == len(projections) * len(sig.variables)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_sees_is_asked_once_per_state_and_viewer_group(kind, seed):
    rng = random.Random(seed)
    sig, model, child = _instance(kind, rng, max_len=5)
    formulas = [_belief_formula(rng, sig) for _ in range(4)] + _seeing_formulas(rng, sig)
    counting = _CountingModel(model)
    evaluator = Evaluator(counting)
    for seq in _related_sequences(rng, sig, child):
        for phi in formulas:
            evaluator.evaluate(seq, phi)
    groups = set().union(*map(_viewer_groups, formulas))
    for (agent, _, _), times in counting.asked.items():
        assert times <= sum(agent in group for group in groups)


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1),
       partial=st.booleans())
def test_memo_takes_each_fold_step_once(kind, seed, partial):
    """A long-lived evaluator, and full builds sharing its memo, work out
    each distinct (viewers, fold state, input state) step at most once."""
    rng = random.Random(seed)
    sig, model, child = _instance(kind, rng, max_len=5, partial=partial)
    formulas = [_belief_formula(rng, sig) for _ in range(4)]
    taken = Counter()
    original = perspectives._fold_step

    def counting(table, fold, state):
        taken[(table, fold, state.vals)] += 1
        return original(table, fold, state)

    perspectives._fold_step = counting
    try:
        evaluator = Evaluator(model)
        sequences = _related_sequences(rng, sig, child, partial)
        for seq in sequences:
            for phi in formulas:
                evaluator.evaluate(seq, phi)
        for seq in sequences:
            for agent in sig.agents:
                justified_perspective(model, agent, seq, evaluator._memo)
    finally:
        perspectives._fold_step = original
    assert taken and max(taken.values()) == 1


def _stepping_action(rng, sig, name):
    """An action that sets every declared variable to its value in a random
    global state, with no precondition or a random belief one."""
    state = random_states(rng, sig, 1)[0]
    pre = _belief_formula(rng, sig) if rng.random() < 0.5 else None
    return Action(name, pre, tuple(Effect(var, "set", state.get(var))
                                   for var in sig.variables if not sig.is_agent(var)))


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_search_node_folds_equal_whole_sequence_folds(kind, seed):
    """Every node of a search that the evaluator is handed with a
    precondition or goal test carries its fold state on every viewer path
    those formulas read from the node; each was stepped once from its
    parent's. Each equals
    the fold of the node's whole history along that path: the last row of
    the view by the retrieval rule, what its viewers have seen but its
    input never assigned, and the input's last values. Paths numbered
    later are read over views only, and no node carries them."""
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng, max_len=1)
    actions = [_stepping_action(rng, sig, f"go{k}") for k in range(3)]
    goals = [(_belief_formula(rng, sig), Ternary.TRUE),
             (_random_formula(rng, sig), Ternary.FALSE)]
    handed = {}
    evaluate = Evaluator.evaluate

    def recording(self, node, phi):
        folds = node.folds
        if folds:
            history = node.sequence
            assert handed.setdefault(history, (self, folds)) == (self, folds)
        return evaluate(self, node, phi)

    Evaluator.evaluate = recording
    try:
        breadth_first_plan(model, actions, seq[0], goals, max_depth=3)
    finally:
        Evaluator.evaluate = evaluate
    formulas = [action.precondition for action in actions if action.precondition is not None]
    formulas += [phi for phi, _ in goals]
    for history, (evaluator, folds) in handed.items():
        paths = evaluator._paths
        for phi in formulas:
            record = evaluator._formulas[id(phi)]
            assert record[1] is sig and all(number < len(folds) for number in record[3])
        for number, fold in enumerate(folds):
            chain = _chain(paths, number)
            source = history
            for viewers in chain[:-1]:
                source = _by_definition(model, viewers, source)
            assert fold.row is _by_definition(model, chain[-1], source).last
            assert (fold.unresolved, fold.last.vals) == \
                _fold_by_definition(model, chain[-1], source)


def test_fold_over_trace_state_lines_that_drop_a_variable(number_dom):
    """`state` lines may leave out a variable they assigned before. Here a
    starts peeking at t = 1, where n is absent, so a's view takes n's last
    value, and the fold state's last-assigned row keeps it."""
    seq = parse_trace("state n=2 peeking_a=false peeking_b=false\n"
                      "state peeking_a=true\n"
                      "state n=1 peeking_b=true\n", number_dom)
    model = number_dom.model
    memo = FoldMemo()
    for t in range(len(seq)):
        for agent in number_dom.signature.agents:
            view = justified_perspective(model, agent, seq.prefix(t), memo)
            assert view == _by_definition(model, (agent,), seq.prefix(t))
    view = justified_perspective(model, "a", seq.prefix(1), memo)
    assert view.last.get("n") == 2 and seq[1].get("n") is None
    fold = _fold_after(model, ("a",), seq.prefix(1), memo)
    assert fold.last.get("n") == 2 and fold.last.get("peeking_a") is True


class _Fixed(ObservationModel):
    """Each agent sees the variables listed for it, in every state, and no
    other."""

    def __init__(self, seen):
        self.seen = seen

    def sees(self, agent, state, var):
        return var in self.seen.get(agent, ())


def _check_folds(model, viewers, seq):
    """Each prefix of `seq` folds, through one memo, to the view and the
    fold state the definitions give; returns the fold states in order."""
    memo = FoldMemo()
    folds = []
    for t in range(len(seq)):
        prefix = seq.prefix(t)
        view = _believed_sequence(model, viewers, prefix, memo=memo)
        assert view == _by_definition(model, viewers, prefix)
        fold = _fold_after(model, viewers, prefix, memo)
        assert fold.row is view.last
        assert (fold.unresolved, fold.last.vals) == _fold_by_definition(model, viewers, prefix)
        folds.append(fold)
    return folds


def test_fold_of_a_one_variable_signature():
    """One agent and no declared variables: the signature's one variable is
    the agent's marker, and a picker of one position still gives a tuple.
    Every partial sequence of up to three states folds by definition, for a
    viewer that sees the marker and one that sees nothing, and the
    observations keep or drop the marker."""
    sig = Signature(["a"], {})
    states = [State(sig, (None,)), State(sig, (True,))]
    sighted, blind = _Fixed({"a": ("a",)}), _Fixed({})
    for length in (1, 2, 3):
        for picked in itertools.product(states, repeat=length):
            seq = StateSequence(picked)
            for model in (sighted, blind):
                _check_folds(model, ("a",), seq)
    for state in states:
        assert group_observation(sighted, ("a",), state) is state
        assert common_observation(sighted, ("a",), state) is state
        assert group_observation(blind, ("a",), state) is states[0]
    folds = _check_folds(sighted, ("a",), StateSequence([states[0], states[1], states[0]]))
    assert [fold.unresolved for fold in folds] == [1, 0, 0]
    assert [fold.row.vals for fold in folds] == [(None,), (True,), (True,)]


def test_fold_past_one_machine_word_of_variables():
    """A signature of 72 variables keeps unresolved bits past bit 63. The
    last declared variable, at index 70, is seen by a and absent at first,
    so it stays unresolved until the input assigns it; random visibility
    rules and partial states fold by definition for each agent, the pair
    and b's view of a's view, and pooled and common observations of the
    partial states, through one memo, match their definitions."""
    names = [f"v{i}" for i in range(70)]
    sig = Signature(["a", "b"], {"flag": (True, False), **{name: (0, 1, 2) for name in names}})
    assert len(sig.variables) == 73 and sig.index["v69"] == 70
    for seed in range(6):
        rng = random.Random(seed)
        rules = {(agent, name): rng.choice((True, False, ("flag", True), ("flag", False)))
                 for agent in sig.agents for name in names}
        rules["a", "v69"] = True
        model = RuleVisibility(rules, frozenset({"flag"}))
        states = _partial(rng, sig, random_states(rng, sig, 5))
        states[0] = states[0].restrict([var for var in states[0].assigned() if var != "v69"])
        seq = StateSequence(states)
        folds = _check_folds(model, ("a",), seq)
        assert folds[0].unresolved >> 70 & 1
        _check_folds(model, ("b",), seq)
        _check_folds(model, ("a", "b"), seq)
        _check_folds(model, ("b",), justified_perspective(model, "a", seq))
        memo = FoldMemo()
        for state in states:
            for group in (("a",), ("b",), ("a", "b")):
                assert group_observation(model, group, state, memo) == \
                    _pooled_by_definition(model, group, state)
                assert common_observation(model, group, state, memo) == \
                    _common_by_definition(model, group, state)


def test_fold_carries_a_dropped_variable_the_viewer_sees():
    """The input assigns x, then drops it while a sees x: a's view takes x's
    last value, and the fold state's last-assigned row keeps it; when x
    comes back, the view follows it."""
    sig = Signature(["a"], {"x": (1, 2, 3), "y": (1, 2, 3)})
    model = _Fixed({"a": ("x",)})
    seq = StateSequence([sig.make_state({"a": True, "x": 1, "y": 1}),
                         sig.make_state({"a": True, "y": 2}),
                         sig.make_state({"y": 3}),
                         sig.make_state({"x": 3})])
    folds = _check_folds(model, ("a",), seq)
    assert [fold.row.get("x") for fold in folds] == [1, 1, 1, 3]
    assert [fold.row.get("y") for fold in folds] == [None] * 4
    assert folds[1].last.vals == (1, 2, True) and folds[2].last.vals == (1, 3, True)
    assert all(fold.unresolved == 0 for fold in folds)


def test_fold_resolves_a_seen_variable_while_unseen():
    """a sees x while the flag is up, before the input ever assigns x, so x
    is unresolved; the input's first value for x fills it in although a no
    longer sees x then, and later values a does not see leave it be."""
    sig = Signature(["a"], {"flag": (True, False), "x": (1, 2, 3)})
    model = RuleVisibility({("a", "x"): ("flag", True)}, frozenset({"flag"}))
    seq = StateSequence([sig.global_state({"flag": True, "x": 1}).restrict(["flag", "a"]),
                         sig.global_state({"flag": False, "x": 2}),
                         sig.global_state({"flag": False, "x": 3})])
    folds = _check_folds(model, ("a",), seq)
    x = 1 << sig.index["x"]
    assert [fold.unresolved for fold in folds] == [x, 0, 0]
    assert [fold.row.get("x") for fold in folds] == [None, 2, 2]


def _pooled_by_definition(model, group, state):
    return state.restrict([var for var, _ in state.items()
                           if any(model.sees(i, state, var) for i in group)])


def _common_by_definition(model, group, state):
    while True:
        shared = state.restrict([var for var, _ in state.items()
                                 if all(model.sees(i, state, var) for i in group)])
        if shared == state:
            return state
        state = shared


@SETTINGS
@given(kind=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 32 - 1))
def test_memoised_observations_match_definitions(kind, seed):
    """Observations read from one shared memo, of global states, partial
    states and view states, equal those asked of `sees` directly."""
    rng = random.Random(seed)
    sig, model, seq = _instance(kind, rng, max_len=4)
    states = list(seq)
    states += [state.restrict([v for v in state.assigned() if rng.random() < 0.6])
               for state in list(states)]
    states += list(justified_perspective(model, rng.choice(sig.agents), seq))
    groups = [make_group(rng.sample(sig.agents, rng.randint(1, len(sig.agents))))
              for _ in range(3)]
    memo = FoldMemo()
    for state in states + states[::-1]:
        for agent in sig.agents:
            assert group_observation(model, (agent,), state, memo) == \
                model.observe(agent, state)
        for group in groups:
            assert group_observation(model, group, state, memo) == \
                _pooled_by_definition(model, group, state)
            assert common_observation(model, group, state, memo) == \
                _common_by_definition(model, group, state)


def test_one_model_under_two_signatures_keeps_them_apart():
    """States of two signatures can hold equal value tuples; a memo shared by
    both must hand each view states, and visibility, of its own signature.
    Here a sees x once the flag is up and never sees y, so the two views
    start with equal rows and then part."""
    first = Signature(["a"], {"flag": (True, False), "x": (0, 1)})
    second = Signature(["a"], {"flag": (True, False), "y": (0, 1)})
    model = RuleVisibility({("a", "x"): ("flag", True), ("a", "y"): False},
                           frozenset({"flag"}))
    sequences = {sig: StateSequence([sig.global_state({"flag": flag, sig.variables[1]: 0})
                                     for flag in (False, True)])
                 for sig in (first, second)}
    assert [s.vals for s in sequences[first]] == [s.vals for s in sequences[second]]
    memo = FoldMemo()
    for sig in (first, second, first):
        seq = sequences[sig]
        for build, viewer in ((justified_perspective, "a"),
                              (distributed_perspective, ("a",))):
            view = build(model, viewer, seq, memo)
            assert view == build(model, viewer, seq)
            assert all(state.sig is sig for state in view)
    evaluator = Evaluator(model)
    for sig in (first, second):
        seq = sequences[sig]
        atom = Atom("=", sig.variables[1], 0)
        for phi in (Believes("a", atom), GroupBelieves(GroupMode.COMMON, ("a",), atom)):
            assert evaluator.evaluate(seq, phi) is Evaluator(model).evaluate(seq, phi)
            assert all(state.sig is sig
                       for view in _cached(evaluator).values() for state in view)
        assert _cached(evaluator)
