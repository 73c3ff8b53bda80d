import random

import pytest

from helpers import (
    FalselyGatedModel,
    LeakingModel,
    MixedStateModel,
    NonDeterministicModel,
    NonIdempotentModel,
    NonMonotoneModel,
    mixed_samples,
    n_projection,
    plan1_sequence,
    random_instance,
    random_states,
    retrieve_value,
    step_gated_instance,
)
from epiplan.cli import load_benchmark
from epiplan.core import EngineError, Signature, StateSequence, ValidationError
from epiplan.parser import parse_problem
from epiplan.perspectives import (
    AxiomViolation,
    FoldMemo,
    ObservationModel,
    check_observation_axioms,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    justified_perspective,
    uniform_perspectives,
)


class TestRetrieve:
    def test_value_present_at_timestamp(self):
        sig = Signature(["a"], {"n": range(4)})
        seq = StateSequence([sig.make_state({"n": 2})])
        assert retrieve_value(seq, 0, "n") == 2

    def test_forward_lookup_from_before_sequence(self, number_dom, plan1):
        view_b = justified_perspective(number_dom.model, "b", plan1)
        assert retrieve_value(view_b, -1, "n") == 1

    def test_group_projection_example(self):
        from epiplan.perspectives import group_observation
        _, model, seq = step_gated_instance()
        projected = StateSequence(
            [group_observation(model, ("a", "b", "c"), s) for s in seq])
        assert retrieve_value(projected, 1, "y") == 4

    def test_most_recent_earlier_wins(self):
        sig = Signature(["a"], {"n": range(4)})
        seq = StateSequence([sig.make_state({"n": 1}), sig.make_state({"n": 2}),
                             sig.make_state({})])
        assert retrieve_value(seq, 2, "n") == 2

    def test_absent_everywhere(self):
        sig = Signature(["a"], {"n": range(4)})
        seq = StateSequence([sig.make_state({}), sig.make_state({})])
        assert retrieve_value(seq, 1, "n") is None

    def test_range_checked(self):
        sig = Signature(["a"], {"n": range(4)})
        seq = StateSequence([sig.make_state({"n": 1})])
        with pytest.raises(IndexError):
            retrieve_value(seq, 1, "n")
        with pytest.raises(IndexError):
            retrieve_value(seq, -2, "n")


class TestJustifiedPerspective:
    def test_plan1_agent_a(self, number_dom, plan1):
        assert n_projection(justified_perspective(number_dom.model, "a", plan1)) == \
            (None, 2, 2, 2, 2)

    def test_plan1_agent_b(self, number_dom, plan1):
        assert n_projection(justified_perspective(number_dom.model, "b", plan1)) == \
            (None, None, None, None, 1)

    def test_nested_views(self, number_dom, plan1):
        model = number_dom.model
        view_a = justified_perspective(model, "a", plan1)
        view_b = justified_perspective(model, "b", plan1)
        assert n_projection(justified_perspective(model, "b", view_a)) == \
            (None, None, None, None, 2)
        assert n_projection(justified_perspective(model, "a", view_b)) == \
            (None, None, None, None, 1)

    def test_full_observer_sees_everything(self):
        class Omniscient(ObservationModel):
            def sees(self, agent, state, var):
                return True

            def gate_variables(self, agent):
                return frozenset()   # reads nothing: one mask for every state

        sig = Signature(["a"], {"x": range(3)})
        seq = StateSequence([sig.global_state({"x": i % 3}) for i in range(4)])
        assert justified_perspective(Omniscient(), "a", seq) == seq

    def test_length_preserved_and_observation_contained(self):
        rng = random.Random(5)
        for _ in range(60):
            _, model, seq = random_instance(rng)
            for agent in seq.sig.agents:
                view = justified_perspective(model, agent, seq)
                assert len(view) == len(seq)
                for t in range(len(seq)):
                    assert model.observe(agent, seq[t]).subset_of(view[t])


class TestGroupPerspectives:
    def test_uniform_plan1(self, number_dom, plan1):
        views = uniform_perspectives(number_dom.model, ("a", "b"), plan1)
        assert {n_projection(w) for w in views} == \
            {(None, 2, 2, 2, 2), (None, None, None, None, 1)}
        # in the members' order, so that callers walk them in a fixed order
        assert list(views) == [justified_perspective(number_dom.model, agent, plan1)
                               for agent in ("a", "b")]

    def test_uniform_singleton(self, number_dom, plan1):
        views = uniform_perspectives(number_dom.model, ("a",), plan1)
        assert views == frozenset([justified_perspective(number_dom.model, "a", plan1)])

    def test_uniform_dedups_identical_views(self):
        class Blind(ObservationModel):
            def sees(self, agent, state, var):
                return state.sig.is_agent(var)

        sig = Signature(["a", "b"], {"x": range(3)})
        seq = StateSequence([sig.global_state({"x": 1})])
        assert len(uniform_perspectives(Blind(), ("a", "b"), seq)) == 1

    @pytest.mark.parametrize("entry", [uniform_perspectives, distributed_perspective,
                                       common_perspectives, group_observation,
                                       common_observation], ids=lambda f: f.__name__)
    def test_empty_group_rejected(self, number_dom, plan1, entry):
        on = plan1.last if entry in (group_observation, common_observation) else plan1
        for memo in (None, FoldMemo()):
            with pytest.raises(ValidationError):
                entry(number_dom.model, (), on, memo)

    def test_distributed_example(self):
        _, model, seq = step_gated_instance()
        pooled = distributed_perspective(model, ("a", "b", "c"), seq)
        assert [(s.get("x"), s.get("y")) for s in pooled] == \
            [(1, 2), (1, 4), (5, 4)]

    def test_distributed_singleton_equals_individual(self):
        rng = random.Random(11)
        for _ in range(40):
            _, model, seq = random_instance(rng)
            for agent in seq.sig.agents:
                assert distributed_perspective(model, (agent,), seq) == \
                    justified_perspective(model, agent, seq)

    def test_distributed_full_group_vision_is_identity(self):
        class Omniscient(ObservationModel):
            def sees(self, agent, state, var):
                return True

        sig = Signature(["a", "b"], {"x": range(3)})
        seq = StateSequence([sig.global_state({"x": i % 3}) for i in range(3)])
        assert distributed_perspective(Omniscient(), ("a", "b"), seq) == seq


class TestCommonPerspectives:
    def test_plan1_fixed_point(self, number_dom, plan1):
        views, stats = common_perspectives(number_dom.model, ("a", "b"), plan1)
        assert {n_projection(w) for w in views} == {
            (None, 2, 2, 2, 2),
            (None, None, None, None, 1),
            (None, None, None, None, 2),
        }
        assert stats.iterations == 3
        assert stats.final_size == 3

    def test_omniscient_converges_immediately(self):
        class Omniscient(ObservationModel):
            def sees(self, agent, state, var):
                return True

        sig = Signature(["a", "b"], {"x": range(3)})
        seq = StateSequence([sig.global_state({"x": 1})])
        views, stats = common_perspectives(Omniscient(), ("a", "b"), seq)
        assert views == frozenset([seq])
        assert stats.iterations == 1

    def test_random_fixed_points_are_stable_supersets(self):
        rng = random.Random(23)
        for _ in range(40):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
            group = sig.agents
            views, stats = common_perspectives(model, group, seq)
            # stable: re-applying everyone's perspectives adds nothing
            regrown = set()
            for w in views:
                regrown |= uniform_perspectives(model, group, w)
            assert frozenset(regrown) == views
            # contains every member's perspectives of every member
            for w in views:
                assert uniform_perspectives(model, group, w) <= views
            assert stats.iterations >= 1

    def test_monotone_growth_per_iteration(self):
        rng = random.Random(31)
        for _ in range(25):
            sig, model, seq = random_instance(rng, max_vars=3, max_len=4)
            group = sig.agents
            current = frozenset([seq])
            for _ in range(50):
                grown = set()
                for w in current:
                    grown |= uniform_perspectives(model, group, w)
                grown = frozenset(grown)
                if current != frozenset([seq]):
                    assert current <= grown
                if grown == current:
                    break
                current = grown

    def test_wrong_own_view_raises(self, number_dom, plan1):
        # a's view of its own view held as the sequence it was built from:
        # the iterates cycle {view}, {plan1}, {view}, ..., and the
        # 2 ** (variables * length) bound is 2 ** 25 iterations away
        model = number_dom.model
        memo = FoldMemo()
        view = justified_perspective(model, "a", plan1)
        memo.views[("a", plan1)] = view
        memo.views[("a", view)] = plan1
        with pytest.raises(EngineError, match="lost a view"):
            common_perspectives(model, ("a",), plan1, memo)


class TestCommonObservation:
    def test_everything_visible_is_fixed_point(self):
        class Omniscient(ObservationModel):
            def sees(self, agent, state, var):
                return True

        sig = Signature(["a", "b"], {"x": range(3)})
        state = sig.global_state({"x": 2})
        assert common_observation(Omniscient(), ("a", "b"), state) == state

    def test_privately_seen_variable_removed(self):
        class OnlyA(ObservationModel):
            def sees(self, agent, state, var):
                return state.sig.is_agent(var) or agent == "a"

        sig = Signature(["a", "b"], {"x": range(3)})
        state = sig.global_state({"x": 2})
        shared = common_observation(OnlyA(), ("a", "b"), state)
        assert "x" not in shared

    def test_chained_removal_takes_two_rounds(self):
        # u is invisible to b; w's visibility (for everyone) needs u present,
        # so dropping u drags w out on the following round.
        class Chained(ObservationModel):
            def sees(self, agent, state, var):
                if state.sig.is_agent(var):
                    return True
                if var == "u":
                    return agent == "a"
                return "u" in state

        sig = Signature(["a", "b"], {"u": range(2), "w": range(2)})
        state = sig.global_state({"u": 1, "w": 1})
        assert common_observation(Chained(), ("a",), state) == state
        shared = common_observation(Chained(), ("a", "b"), state)
        assert "u" not in shared and "w" not in shared


class TestAxioms:
    def test_random_rule_models_pass(self):
        rng = random.Random(97)
        for _ in range(30):
            sig, model, seq = random_instance(rng)
            check_observation_axioms(model, sig.agents, list(seq), rng=rng)

    @pytest.mark.parametrize("broken", [LeakingModel(), NonMonotoneModel(),
                                        NonIdempotentModel(), FalselyGatedModel(),
                                        NonDeterministicModel()])
    def test_broken_models_rejected(self, broken):
        rng = random.Random(13)
        sig = Signature(["a", "b"], {"flag": (True, False), "v1": range(3)})
        states = random_states(rng, sig, 40)
        with pytest.raises(AxiomViolation):
            check_observation_axioms(broken, sig.agents, states, rng=rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_view_that_is_not_its_own_view_rejected(self, seed):
        # every per-state check passes on these samples; only the view of
        # the samples as a sequence shows the fault
        sig, states = mixed_samples()
        with pytest.raises(AxiomViolation, match="not its own view of itself"):
            check_observation_axioms(MixedStateModel(), sig.agents, states,
                                     rng=random.Random(seed))


class TestIdempotence:
    def test_on_plan1(self, number_dom, plan1):
        model = number_dom.model
        for agent in ("a", "b"):
            view = justified_perspective(model, agent, plan1)
            assert justified_perspective(model, agent, view) == view

    def test_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(150):
            sig, model, seq = random_instance(rng)
            if rng.random() < 0.3:
                seq = justified_perspective(model, rng.choice(sig.agents), seq)
            agent = rng.choice(sig.agents)
            view = justified_perspective(model, agent, seq)
            assert justified_perspective(model, agent, view) == view

    def test_pooled_view_is_its_own_pooled_view(self, number_dom, plan1):
        rng = random.Random(43)
        cases = [(number_dom.model, ("a", "b"), plan1)]
        for _ in range(150):
            sig, model, seq = random_instance(rng)
            group = tuple(agent for agent in sig.agents if rng.random() < 0.7) or sig.agents
            cases.append((model, group, seq))
        for model, group, seq in cases:
            pooled = distributed_perspective(model, group, seq)
            assert distributed_perspective(model, group, pooled) == pooled

    def test_on_another_agents_view(self):
        rng = random.Random(47)
        for _ in range(150):
            sig, model, seq = random_instance(rng)
            other = justified_perspective(model, rng.choice(sig.agents), seq)
            for agent in sig.agents:
                view = justified_perspective(model, agent, other)
                assert justified_perspective(model, agent, view) == view
            pooled = distributed_perspective(model, sig.agents, other)
            assert distributed_perspective(model, sig.agents, pooled) == pooled

    @pytest.mark.parametrize("name, first", [("number", "n0"), ("grapevine", "g0"),
                                             ("bbl", "bbl0")])
    def test_bundled_models_on_bundled_states(self, name, first):
        """Each agent's view and the pooled view of the bundled problems'
        initial states, one by one and in a row, and of plan1.trace, are
        their own views of themselves."""
        from importlib import resources

        folder = resources.files("epiplan").joinpath("benchmarks").joinpath(name)
        domain = load_benchmark(name, first)[0]
        initials = [parse_problem(entry.read_text(encoding="utf-8"), domain).initial
                    for entry in sorted(folder.iterdir(), key=lambda e: e.name)
                    if entry.name.endswith(".prob")]
        assert len(initials) == 7
        sequences = [StateSequence([state]) for state in initials]
        sequences.append(StateSequence(initials))
        if name == "number":
            sequences.append(plan1_sequence(domain))
        model, agents = domain.model, domain.signature.agents
        for seq in sequences:
            for agent in agents:
                view = justified_perspective(model, agent, seq)
                assert justified_perspective(model, agent, view) == view
            pooled = distributed_perspective(model, agents, seq)
            assert distributed_perspective(model, agents, pooled) == pooled

    def test_common_fixed_point_holds_each_view_as_its_own(self, number_dom, plan1):
        memo = FoldMemo()
        views, _ = common_perspectives(number_dom.model, ("a", "b"), plan1, memo)
        built = {(agent, source): view for (agent, source), view in memo.views.items()
                 if source is not view}
        assert built
        for (agent, _), view in built.items():
            assert memo.views[(agent, view)] is view
            assert justified_perspective(number_dom.model, agent, view) == view

