import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_belief_free_formula, random_instance
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
)
from epiplan.parser import parse_formula
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


    @pytest.mark.parametrize("text, calls", [
        ("(= n 1)", 1),
        ("(S b (= n 1))", 2),
        ("(K b (= n 1))", 2),
        ("(K a (= n 1))", 2),
        ("(DK (a b) (= n 1))", 2),
        ("(CK (a b) (= n 1))", 2),
        ("(EK (a b) (= n 1))", 3),
    ])
    def test_knowledge_evaluates_its_child_once(self, number_dom, plan1, monkeypatch,
                                                text, calls):
        """Knowing is holding plus seeing; the child's verdict on the sequence
        serves both, and each member's observation decides it once more."""
        from epiplan import semantics

        counted = []
        original = semantics.interpret_atom

        def counting(state, atom):
            counted.append(atom)
            return original(state, atom)

        monkeypatch.setattr(semantics, "interpret_atom", counting)
        evaluate(number_dom, plan1, text)
        assert len(counted) == calls


class TestErrors:
    def test_unknown_agent_rejected(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        with pytest.raises(ValidationError):
            ev.evaluate(plan1, Believes("nobody", Atom("=", "n", 1)))

    def test_ill_typed_atom_rejected(self, number_dom, plan1):
        ev = Evaluator(number_dom.model)
        with pytest.raises(ValidationError):
            ev.evaluate(plan1, Atom("<", "peeking_a", True))

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
