import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_belief_free_formula, random_instance
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
    Sees,
    SeesVar,
    Signature,
    StateSequence,
    Ternary,
    ValidationError,
    interpret_atom,
)
from epiplan import semantics
from epiplan.parser import parse_formula
from epiplan.perspectives import justified_perspective, uniform_perspectives
from epiplan.semantics import EvalStats, Evaluator


GROUP = ("a", "b")


def evaluate(domain, seq, text):
    return Evaluator(domain.model).evaluate(seq, parse_formula(text, domain.signature))


class TestPlan1Values:
    def test_everyone_believes_below_three(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(EB (a b) (< n 3))") is Ternary.TRUE

    def test_common_belief_below_three(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(CB (a b) (< n 3))") is Ternary.TRUE

    def test_everyone_believes_equals_one_fails(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(EB (a b) (= n 1))") is Ternary.FALSE

    def test_individual_beliefs(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(B a (= n 2))") is Ternary.TRUE
        assert evaluate(number_dom, plan1, "(B b (= n 1))") is Ternary.TRUE

    def test_knowledge_gone_after_return(self, number_dom, plan1):
        # a no longer sees the box at the end, so it does not know n=2
        assert evaluate(number_dom, plan1, "(K a (= n 2))") is Ternary.FALSE
        assert evaluate(number_dom, plan1, "(S a n)") is Ternary.FALSE
        assert evaluate(number_dom, plan1, "(S b n)") is Ternary.TRUE


class TestConnectives:
    def test_double_negation(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        for text in ["(< n 3)", "(B a (= n 2))", "(S a n)", "(= n 0)"]:
            phi = parse_formula(text, number_dom.signature)
            assert ev.evaluate(plan1, Not(Not(phi))) is ev.evaluate(plan1, phi)

    def test_de_morgan_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(60):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
            ev = Evaluator(model)
            var = next(v for v in sig.variables if not sig.is_agent(v))
            pool = sig.domain(var)
            left = Atom("=", var, pool[rng.randrange(len(pool))])
            right = Believes(rng.choice(sig.agents),
                             Atom("=", var, pool[rng.randrange(len(pool))]))
            both = ev.evaluate(seq, Not(And(left, right)))
            assert both == max(ev.evaluate(seq, Not(left)),
                               ev.evaluate(seq, Not(right)))


class TestSeeing:
    @pytest.fixture
    def instance(self):
        sig, model, seq = random_instance(random.Random(77), max_vars=3, max_len=4)
        return sig, model, seq

    def test_knowing_implies_truth(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(120):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
            ev = Evaluator(model)
            var = next(v for v in sig.variables if not sig.is_agent(v))
            atom = Atom("=", var, sig.domain(var)[0])
            phi = Knows(rng.choice(sig.agents), atom)
            if ev.evaluate(seq, phi) is Ternary.TRUE:
                checked += 1
                assert ev.evaluate(seq, atom) is Ternary.TRUE
        assert checked > 0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_belief_free_formulas_read_only_the_last_state(self, seed):
        # the grammar allows only belief-free formulas under seeing and
        # knowledge, so every seeing mode may judge them on the last state
        rng = random.Random(seed)
        sig, model, seq = random_instance(rng, max_vars=3, max_len=5)
        last_only = StateSequence([seq.last])
        ev = Evaluator(model)
        for _ in range(6):
            phi = random_belief_free_formula(rng, sig, rng.randint(0, 3))
            assert ev.evaluate(seq, phi) is ev.evaluate(last_only, phi)

    def test_absent_agent_marker_gives_unknown(self):
        from epiplan.perspectives import ObservationModel

        class Omniscient(ObservationModel):
            def sees(self, agent, state, var):
                return True

        sig = Signature(["a"], {"x": range(3)})
        # last state misses the agent marker entirely
        seq = StateSequence([sig.make_state({"x": 1})])
        ev = Evaluator(Omniscient())
        assert ev.evaluate(seq, SeesVar("a", "x")) is Ternary.UNKNOWN
        assert ev.evaluate(seq, Sees("a", Atom("=", "x", 1))) is Ternary.UNKNOWN
        assert ev.evaluate(
            seq, GroupSeesVar(GroupMode.COMMON, ("a",), "x")) is Ternary.UNKNOWN

    def test_group_seeing_on_plan1(self, number_dom, plan1):
        # b is peeking at the end; a is not
        assert evaluate(number_dom, plan1, "(ES (a b) n)") is Ternary.FALSE
        assert evaluate(number_dom, plan1, "(DS (a b) n)") is Ternary.TRUE
        assert evaluate(number_dom, plan1, "(CS (a b) n)") is Ternary.FALSE
        assert evaluate(number_dom, plan1, "(ES (a b) peeking_a)") is Ternary.TRUE
        assert evaluate(number_dom, plan1, "(CS (a b) peeking_a)") is Ternary.TRUE

    def test_group_knowledge_on_plan1(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(DK (a b) (= n 1))") is Ternary.TRUE
        assert evaluate(number_dom, plan1, "(EK (a b) (= n 1))") is Ternary.FALSE
        assert evaluate(number_dom, plan1, "(CK (a b) (= peeking_b true))") is Ternary.TRUE


class TestGroupBelief:
    def test_common_at_most_uniform(self):
        rng = random.Random(101)
        for _ in range(80):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=5)
            ev = Evaluator(model)
            var = next(v for v in sig.variables if not sig.is_agent(v))
            atom = Atom("=", var, sig.domain(var)[0])
            group = tuple(sig.agents)
            cb = ev.evaluate(seq, GroupBelieves(GroupMode.COMMON, group, atom))
            eb = ev.evaluate(seq, GroupBelieves(GroupMode.UNIFORM, group, atom))
            assert cb <= eb

    def test_singleton_group_collapses_to_individual(self):
        rng = random.Random(55)
        for _ in range(40):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
            ev = Evaluator(model)
            var = next(v for v in sig.variables if not sig.is_agent(v))
            atom = Atom("=", var, sig.domain(var)[0])
            agent = rng.choice(sig.agents)
            individual = ev.evaluate(seq, Believes(agent, atom))
            assert ev.evaluate(
                seq, GroupBelieves(GroupMode.UNIFORM, (agent,), atom)) is individual
            assert ev.evaluate(
                seq, GroupBelieves(GroupMode.COMMON, (agent,), atom)) is individual
            assert ev.evaluate(
                seq, GroupBelieves(GroupMode.DISTRIBUTED, (agent,), atom)) is individual
            pairs = [(SeesVar(agent, var), lambda mode: GroupSeesVar(mode, (agent,), var)),
                     (Sees(agent, atom), lambda mode: GroupSees(mode, (agent,), atom)),
                     (Knows(agent, atom), lambda mode: GroupKnows(mode, (agent,), atom))]
            for single, grouped in pairs:
                individual = ev.evaluate(seq, single)
                for mode in GroupMode:
                    assert ev.evaluate(seq, grouped(mode)) is individual

    def test_distributed_belief_on_plan1(self, number_dom, plan1):
        assert evaluate(number_dom, plan1, "(DB (a b) (= n 1))") is Ternary.TRUE
        assert evaluate(number_dom, plan1, "(DB (a b) (= n 2))") is Ternary.FALSE


class TestStats:
    def test_determinism_including_iteration_counts(self, number_dom, plan1):
        phi = parse_formula("(CB (a b) (< n 3))", number_dom.signature)
        first = Evaluator(number_dom.model)
        second = Evaluator(number_dom.model)
        values = {first.evaluate(plan1, phi), second.evaluate(plan1, phi),
                  first.evaluate(plan1, phi)}
        assert values == {Ternary.TRUE}
        assert first.stats.cf_iteration_counts == [3, 3]
        assert second.stats.cf_iteration_counts == [3]

    def test_stats_accumulate_and_merge(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        phi = parse_formula("(CB (a b) (< n 3))", number_dom.signature)
        ev.evaluate(plan1, phi)
        ev.evaluate(plan1, phi)
        assert ev.stats.external_calls == 2
        assert ev.stats.common_max >= ev.stats.common_avg > 0
        assert ev.stats.eval_time >= 0
        other = EvalStats()
        other.merge(ev.stats)
        assert other.external_calls == 2
        assert other.common_max == ev.stats.common_max

    def test_no_fixed_point_counts_without_common_belief(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        ev.evaluate(plan1, parse_formula("(EB (a b) (< n 3))", number_dom.signature))
        assert ev.stats.cf_iteration_counts == []
        assert ev.stats.common_max == 0 and ev.stats.common_avg == 0.0

    def test_a_verdict_read_back_still_counts_as_a_call(self, number_dom, plan1,
                                                       monkeypatch):
        from epiplan import semantics

        counted = []
        original = semantics.interpret_atom

        def counting(state, atom):
            counted.append(atom)
            return original(state, atom)

        monkeypatch.setattr(semantics, "interpret_atom", counting)
        ev = Evaluator(number_dom.model)
        phi = parse_formula("(= n 1)", number_dom.signature)
        assert ev.evaluate(plan1, phi) is ev.evaluate(plan1, phi)
        assert ev.stats.external_calls == 2
        assert len(counted) == 1

    @pytest.mark.parametrize("text, calls", [
        ("(= n 1)", 1),
        ("(S b (= n 1))", 1),
        ("(K b (= n 1))", 1),
        ("(K a (= n 1))", 2),
        ("(DK (a b) (= n 1))", 1),
        ("(CK (a b) (= n 1))", 2),
        ("(EK (a b) (= n 1))", 2),
    ])
    def test_knowledge_evaluates_its_child_once(self, number_dom, plan1, monkeypatch,
                                                text, calls):
        """Knowing is holding plus seeing; the child's verdict on the sequence
        serves both, and each distinct observation decides it once more. An
        observation already judged is read back from the child's table: on
        plan1's last state b, who peeks, observes that state itself, as the
        pooled a-and-b view does, so only a's observation and the common one
        cost a call."""
        from epiplan import semantics

        counted = []
        original = semantics.interpret_atom

        def counting(state, atom):
            counted.append(atom)
            return original(state, atom)

        monkeypatch.setattr(semantics, "interpret_atom", counting)
        evaluate(number_dom, plan1, text)
        assert len(counted) == calls


class TestVerdictMemo:
    """A long-lived evaluator reads a belief-free formula's verdict back by
    last state; no verdict and no statistic may show it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_long_lived_evaluator_agrees_with_fresh_ones(self, seed):
        rng = random.Random(seed)
        sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
        # the same names under a second signature, variables in another order
        twin = Signature(sig.agents, {var: sig.domain(var) for var in reversed(sig.variables)
                                      if not sig.is_agent(var)})
        pools = {}
        for target in (sig, twin):
            full = [target.make_state(dict(state.items())) for state in seq]
            partial = [target.make_state({var: val for var, val in state.items()
                                          if rng.random() < 0.6}) for state in full]
            pools[target] = full + partial
        formulas = []
        for _ in range(3):
            free = random_belief_free_formula(rng, sig, rng.randint(0, 2))
            group = tuple(a for a in sig.agents if rng.random() < 0.6) or sig.agents[:1]
            belief = GroupBelieves(rng.choice(list(GroupMode)), group, free)
            formulas += [free, belief, And(free, Not(belief))]
        ev = Evaluator(model)
        fresh_counts = []
        for _ in range(40):
            pool = pools[rng.choice((sig, twin))]
            # few last states under many histories
            history = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            probe = StateSequence(history + [rng.choice(pool[:2] + pool[-1:])])
            phi = rng.choice(formulas)
            fresh = Evaluator(model)
            assert ev.evaluate(probe, phi) is fresh.evaluate(probe, phi)
            fresh_counts += fresh.stats.cf_iteration_counts
        assert ev.stats.external_calls == 40
        assert ev.stats.cf_iteration_counts == fresh_counts

    def test_nested_beliefs_share_one_verdict_table(self, monkeypatch):
        """`(EB G (EB G φ))` reads φ on the last row of j's view of i's view
        for all i, j in G: 16 paths on grapevine's four agents. φ is judged
        once per distinct row, however many paths end there."""
        from epiplan import semantics

        domain, problem = load_benchmark("grapevine", "g2")
        seq = StateSequence([problem.initial])
        model = domain.model
        agents = ("a", "b", "c", "d")
        rows = {justified_perspective(model, j, justified_perspective(model, i, seq))[-1]
                for i in agents for j in agents}
        phi = parse_formula("(EB (a b c d) (EB (a b c d) (= sct_a t)))", domain.signature)
        read = []
        original = semantics.interpret_atom

        def counting(state, atom):
            read.append(state)
            return original(state, atom)

        monkeypatch.setattr(semantics, "interpret_atom", counting)
        assert Evaluator(model).evaluate(seq, phi) is Ternary.UNKNOWN
        assert sorted(map(id, read)) == sorted(map(id, rows))


def _nested(text, depth):
    """`text` under `depth` nested `(EB (a b) ...)`."""
    for _ in range(depth):
        text = f"(EB (a b) {text})"
    return text


def _on_views(model, seq, depth, atom, known):
    """The verdict of `_nested(atom, depth)` on `seq`, judged on whole views
    of every member, level by level; `known` holds the verdicts found."""
    key = (seq, depth)
    if key not in known:
        if depth == 0:
            known[key] = interpret_atom(seq[-1], atom)
        else:
            known[key] = min(_on_views(model, view, depth - 1, atom, known)
                             for view in uniform_perspectives(model, GROUP, seq))
    return known[key]


class TestPathBound:
    """A chain of k nested E beliefs over a group of g reaches g + ... + g^k
    viewer paths; past `_MAX_BELIEF_PATHS` its top is judged on views."""

    @pytest.mark.parametrize("atom, depth", [("(= peeking_a peeking_a)", 12),
                                             ("(= n 1)", 99)])
    def test_deep_chain_stays_in_bound(self, number_dom, plan1, atom, depth):
        phi = parse_formula(_nested(atom, depth), number_dom.signature)
        evaluator = Evaluator(number_dom.model)
        verdict = evaluator.evaluate(plan1, phi)
        # the five innermost beliefs are counted as reaching 2 + 4 + ... + 32
        # paths, and those above them are judged on views; all twelve on
        # paths would count 8,190. An agent's view of its own view is that
        # view, so a path never repeats a viewer twice in a row: each level
        # adds 2 distinct paths, 10 in all
        assert len(evaluator._paths.tables) == 10 <= semantics._MAX_BELIEF_PATHS
        bottom = parse_formula(atom, number_dom.signature)
        assert verdict is _on_views(number_dom.model, plan1, depth, bottom, {})

    @pytest.mark.parametrize("outer, inner", [("(B a", "(B a"), ("(B b", "(EB (b)"),
                                              ("(DB (a b)", "(DB (a b)")])
    def test_a_view_of_itself_is_one_path(self, number_dom, plan1, outer, inner):
        """A viewer group's belief about its own belief reads the one path
        of its view, with the verdict of the inner belief alone."""
        for text in ("(= n 1)", "(= n 2)", "(< n 3)"):
            nested = parse_formula(f"{outer} {inner} {text}))", number_dom.signature)
            alone = parse_formula(f"{inner} {text})", number_dom.signature)
            evaluator = Evaluator(number_dom.model)
            for t in range(len(plan1)):
                seq = plan1.prefix(t)
                assert evaluator.evaluate(seq, nested) is \
                    Evaluator(number_dom.model).evaluate(seq, alone), (text, t)
            assert len(evaluator._paths.tables) == 1

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_paths_and_views_agree(self, number_dom, plan1, depth):
        for text in ("(= n 1)", "(< n 3)", "(= peeking_a true)"):
            phi = parse_formula(_nested(text, depth), number_dom.signature)
            atom = parse_formula(text, number_dom.signature)
            evaluator = Evaluator(number_dom.model)
            for t in range(len(plan1)):
                seq = plan1.prefix(t)
                assert evaluator.evaluate(seq, phi) is \
                    _on_views(number_dom.model, seq, depth, atom, {}), (text, t)


    def test_common_belief_below_a_chain_runs_once_per_view(self, number_dom, plan1,
                                                             monkeypatch):
        """A chain past the path bound keeps its child's verdict per view
        for the call, a child that holds a common belief included: here the
        C belief meets one of its three distinct views twice and runs one
        fixed point per distinct view. A long-lived evaluator counts the
        fixed points that fresh ones count."""
        met = []
        common = semantics.common_perspectives
        monkeypatch.setattr(semantics, "common_perspectives",
                            lambda model, group, seq, memo: met.append(seq)
                            or common(model, group, seq, memo))
        phi = parse_formula(_nested("(CB (a b) (= n 1))", 3), number_dom.signature)
        assert Evaluator(number_dom.model).evaluate(plan1, phi) is Ternary.FALSE
        assert len(met) == len(set(met)) == 3
        ev, fresh_counts = Evaluator(number_dom.model), []
        for t in (*range(len(plan1)), *reversed(range(len(plan1)))):
            seq = plan1.prefix(t)
            fresh = Evaluator(number_dom.model)
            assert ev.evaluate(seq, phi) is fresh.evaluate(seq, phi)
            fresh_counts += fresh.stats.cf_iteration_counts
        assert ev.stats.cf_iteration_counts == fresh_counts

    def test_chain_beside_a_common_belief_counts_in_bound(self, number_dom, plan1):
        # the path count saturates: 99 EB levels beside a CB make no
        # overflowing count, and each conjunct is judged as alone
        deep = Atom("=", "n", 1)
        for _ in range(99):
            deep = GroupBelieves(GroupMode.UNIFORM, GROUP, deep)
        common = GroupBelieves(GroupMode.COMMON, GROUP, Atom("=", "n", 1))
        both = Evaluator(number_dom.model).evaluate(plan1, And(deep, common))
        assert both is min(Evaluator(number_dom.model).evaluate(plan1, phi)
                           for phi in (deep, common))


class TestErrors:
    def test_unknown_agent_rejected(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        with pytest.raises(ValidationError):
            ev.evaluate(plan1, Believes("nobody", Atom("=", "n", 1)))

    def test_ill_typed_atom_rejected(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        with pytest.raises(ValidationError):
            ev.evaluate(plan1, Atom("<", "peeking_a", True))

    def test_formula_is_validated_and_counted_once(self, number_dom, plan1, monkeypatch):
        """A fresh evaluator validates a formula once, and counts the paths
        of each of its nodes once, not once more per belief above it."""
        validated, counted = [], []
        validate, paths_reached = semantics.validate_formula, semantics._paths_reached
        monkeypatch.setattr(semantics, "validate_formula",
                            lambda sig, phi: validated.append(phi) or validate(sig, phi))
        monkeypatch.setattr(semantics, "_paths_reached",
                            lambda phi, table: counted.append(phi) or paths_reached(phi, table))
        phi = parse_formula("(B a (B b (B a (= n 1))))", number_dom.signature)
        Evaluator(number_dom.model).evaluate(plan1, phi)
        assert validated == [phi]
        assert counted == [phi, phi.child, phi.child.child, phi.child.child.child]

    def test_view_judged_child_record_is_fetched_once(self, number_dom, plan1, monkeypatch):
        """A belief judged on views looks its child's record up on its first
        call only."""
        ev = Evaluator(number_dom.model)
        phi = parse_formula("(CB (a b) (B a (= n 1)))", number_dom.signature)
        first = ev.evaluate(plan1, phi)
        fetched = []
        record = Evaluator._record
        monkeypatch.setattr(Evaluator, "_record",
                            lambda self, *args: fetched.append(args) or record(self, *args))
        assert ev.evaluate(plan1, phi) is first and fetched == []

    def test_one_record_per_formula_across_signatures(self):
        """Two signatures parsed from one domain text are distinct, as are
        their states. One evaluator handed sequences of either in turn (A,
        B, A) gives each the verdict a fresh evaluator gives, and holds one
        record per formula: the one on the signature it met last, whose
        verdict table holds that signature's states alone."""
        (first, start), (second, other) = [load_benchmark("number", "n1")
                                           for _ in range(2)]
        assert first.signature is not second.signature
        seqs = [StateSequence([start.initial]), StateSequence([other.initial])]
        formulas = [parse_formula(text, first.signature)
                    for text in ("(= n 2)", "(B a (= n 2))", "(CB (a b) (= n 2))")]
        # each belief's belief-free child has a record of its own
        recorded = formulas + [phi.child for phi in formulas[1:]]
        ev = Evaluator(first.model)
        for seq in (seqs[0], seqs[1], seqs[0]):
            for phi in formulas:
                assert ev.evaluate(seq, phi) is Evaluator(first.model).evaluate(seq, phi)
            assert sorted(ev._formulas) == sorted(id(phi) for phi in recorded)
            for phi in recorded:
                assert ev._formulas[id(phi)][:2] == (phi, seq[-1].sig)
        assert list(ev._formulas[id(formulas[0])][4]) == [seqs[0][-1]]

    def test_evaluator_keeps_the_formulas_it_met(self, number_dom, plan1):
        """`evaluate` finds a record by the formula's id alone, which is safe
        because the record holds the formula: no other formula can take its
        id while the evaluator lives."""
        ev = Evaluator(number_dom.model)
        phi = parse_formula("(B a (= n 1))", number_dom.signature)
        ev.evaluate(plan1, phi)
        held = weakref.ref(phi)
        del phi
        gc.collect()
        assert held() is not None
        del ev
        gc.collect()
        assert held() is None

    @pytest.mark.parametrize("text", ["(= n 1)", "(B a (= n 1))"])
    def test_formula_is_validated_under_each_signature(self, number_dom, plan1, text):
        """One evaluator may serve sequences of several signatures; a formula
        valid under the first is checked again under the next."""
        phi = parse_formula(text, number_dom.signature)
        renamed = Signature(("a", "b"), {"m": range(3), "peeking_a": (False, True),
                                         "peeking_b": (False, True)})
        seq = StateSequence([renamed.global_state(
            {"m": 1, "peeking_a": True, "peeking_b": False})])
        with pytest.raises(ValidationError, match="undeclared variable 'n'"):
            Evaluator(number_dom.model).evaluate(seq, phi)
        ev = Evaluator(number_dom.model)
        ev.evaluate(plan1, phi)
        with pytest.raises(ValidationError, match="undeclared variable 'n'"):
            ev.evaluate(seq, phi)
        # and a formula checked under one signature stays checked under it
        assert ev.evaluate(plan1, phi) is Evaluator(number_dom.model).evaluate(plan1, phi)
