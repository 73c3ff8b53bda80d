import importlib.util
import random
from pathlib import Path

import pytest

from helpers import n_projection, random_states
from epiplan.cli import load_benchmark
from epiplan.core import Signature, StateSequence, Ternary, ValidationError
from epiplan.domains import BBLModel, NumberModel, _angle, _angle_between
from epiplan.parser import parse_domain
from epiplan.perspectives import check_observation_axioms, justified_perspective
from epiplan.planner import SearchNode, apply_action
from epiplan.semantics import Evaluator


@pytest.fixture(scope="module")
def grapevine():
    return load_benchmark("grapevine", "g0")[0]


@pytest.fixture(scope="module")
def bbl():
    return load_benchmark("bbl", "bbl0")[0]


@pytest.fixture(scope="module")
def grapevine6():
    """The benchmark's generated 6-agent grapevine domain, read from
    epibench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "epibench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("epibench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_domain(workloads.grapevine_domain_text(6))


class TestNumberModel:
    def test_non_peeker_sees_flags_only(self, number_dom):
        sig = number_dom.signature
        state = sig.global_state({"peeking_a": False, "peeking_b": True, "n": 1})
        seen = number_dom.model.observe("a", state)
        assert seen.get("peeking_a") is False and seen.get("peeking_b") is True
        assert "n" not in seen

    def test_peeker_sees_everything(self, number_dom):
        sig = number_dom.signature
        state = sig.global_state({"peeking_a": False, "peeking_b": True, "n": 1})
        assert number_dom.model.observe("b", state) == state

    def test_observation_idempotent_on_samples(self, number_dom):
        rng = random.Random(1)
        model = number_dom.model
        for state in random_states(rng, number_dom.signature, 100):
            seen = model.observe("a", state)
            assert model.observe("a", seen) == seen

    def test_axioms_on_samples(self, number_dom):
        rng = random.Random(4)
        assert number_dom.model.gate_variables("a") == {"peeking_a"}
        states = random_states(rng, number_dom.signature, 120)
        check_observation_axioms(number_dom.model, number_dom.signature.agents,
                                 states, rng=rng)

    def test_missing_flag_variable_rejected(self):
        with pytest.raises(ValidationError):
            NumberModel(Signature(["a"], {"n": range(3)}))

    def test_plan1_projections_via_actions(self, number_dom, plan1):
        # the bundled trace and a hand-replayed action sequence agree
        byname = {a.name: a for a in number_dom.actions}
        ev = Evaluator(number_dom.model)
        node = SearchNode(StateSequence([plan1[0]]), ())
        for step in ("peek_a", "return_a", "subtract", "peek_b"):
            node = apply_action(ev, byname[step], node)
        assert node.sequence == plan1
        model = number_dom.model
        assert n_projection(justified_perspective(model, "a", node.sequence)) == \
            (None, 2, 2, 2, 2)
        assert n_projection(justified_perspective(model, "b", node.sequence)) == \
            (None, None, None, None, 1)


class TestGrapevineModel:
    def test_broadcast_heard_when_colocated(self, grapevine):
        sig = grapevine.signature
        state = sig.global_state({
            "loc_a": "room1", "loc_b": "room1", "loc_c": "room2", "loc_d": "room2",
            "sct_a": "t", "sct_b": "t", "sct_c": "t", "sct_d": "t",
            "told_a": "room1",
        })
        model = grapevine.model
        assert model.sees("b", state, "sct_a")
        assert model.sees("b", state, "told_a")
        assert not model.sees("c", state, "sct_a")
        assert not model.sees("c", state, "told_a")

    def test_own_secret_always_visible_others_not(self, grapevine):
        sig = grapevine.signature
        state = sig.global_state({
            "loc_a": "room1", "loc_b": "room1", "loc_c": "room1", "loc_d": "room1",
            "sct_a": "t", "sct_b": "t", "sct_c": "t", "sct_d": "t",
            "told_a": "none",
        })
        model = grapevine.model
        assert model.sees("a", state, "sct_a")
        assert not model.sees("b", state, "sct_a")
        assert model.sees("b", state, "loc_a")

    def test_axioms_on_samples(self, grapevine):
        rng = random.Random(2)
        assert grapevine.model.gate_variables("b") == {"loc_b", "told_a"}
        states = random_states(rng, grapevine.signature, 120)
        check_observation_axioms(grapevine.model, grapevine.signature.agents,
                                 states, rng=rng)

    def test_axioms_on_generated_six_agents(self, grapevine6):
        rng = random.Random(6)
        sig = grapevine6.signature
        assert len(sig.agents) == 6
        assert grapevine6.model.gate_variables("e") == {"loc_e", "told_a", "told_b"}
        states = random_states(rng, sig, 120)
        check_observation_axioms(grapevine6.model, sig.agents, states, rng=rng)

    def test_lie_then_private_correction(self):
        # a lies to everyone, b leaves, a re-shares the truth: b keeps the
        # false belief (and believes it is commonly held), the others recover
        from epiplan.parser import parse_formula

        domain, problem = load_benchmark("grapevine", "g3")
        byname = {a.name: a for a in domain.actions}
        ev = Evaluator(domain.model)
        node = SearchNode(StateSequence([problem.initial]), ())
        for step in ("lie_a_f", "move_b_room2", "share_a_t"):
            node = apply_action(ev, byname[step], node)
            assert node is not None
        seq = node.sequence
        # the lie only ever flipped the state transiently
        assert seq.last.get("sct_a") == "t"
        assert [s.get("sct_a") for s in seq] == ["t", "f", "t", "t"]
        checks = {
            "(B b (= sct_a f))": Ternary.TRUE,
            "(B b (CB (a b c d) (= sct_a f)))": Ternary.TRUE,
            "(B c (= sct_a t))": Ternary.TRUE,
            "(B a (= sct_a t))": Ternary.TRUE,
            "(CB (a c d) (= sct_a t))": Ternary.TRUE,
            "(CB (a b c d) (= sct_a t))": Ternary.FALSE,
        }
        for text, wanted in checks.items():
            got = ev.evaluate(seq, parse_formula(text, domain.signature))
            assert got is wanted, f"{text}: expected {wanted}, got {got}"


class TestBBLGeometry:
    def test_compass_angles_exact(self):
        assert _angle(-3, -3) == -135.0
        assert _angle(1, 1) == 45.0
        assert _angle(0, 2) == 90.0
        assert _angle_between(90.0, 45.0) == 45.0
        assert _angle_between(-135.0, 180.0) == 45.0

    def test_initial_visibility(self, bbl):
        sig = bbl.signature
        init = sig.global_state({"dir_a": -135, "dir_b": 90,
                                 "o_1": 1, "o_2": 2, "o_3": 3})
        model = bbl.model
        # a faces -135: o_2 at relative 0 degrees, o_1 on the same ray
        assert model.sees("a", init, "o_2")
        assert model.sees("a", init, "o_1")
        # o_3 sits on a's own cell: visible regardless of direction
        assert model.sees("a", init, "o_3")
        # b faces 90: o_2 is at exactly 45 degrees, outside the strict cone
        assert not model.sees("b", init, "o_2")
        assert not model.sees("b", init, "o_1")
        # directions are mutually visible
        assert model.sees("b", init, "dir_a")

    def test_one_turn_brings_object_into_view(self, bbl):
        sig = bbl.signature
        turned = sig.global_state({"dir_a": -135, "dir_b": 45,
                                   "o_1": 1, "o_2": 2, "o_3": 3})
        assert bbl.model.sees("b", turned, "o_2")
        assert bbl.model.sees("b", turned, "o_3")

    def test_axioms_on_samples(self, bbl):
        rng = random.Random(3)
        assert bbl.model.gate_variables("a") == {"dir_a"}
        states = random_states(rng, bbl.signature, 120)
        check_observation_axioms(bbl.model, bbl.signature.agents, states, rng=rng)

    def test_missing_position_rejected(self):
        sig = Signature(["a"], {"dir_a": (0, 45), "o_1": (1, 2)})
        with pytest.raises(ValidationError):
            BBLModel(sig, {"a": (0, 0)})

    def test_one_turn_establishes_common_belief(self, bbl):
        from epiplan.parser import parse_formula

        domain, problem = load_benchmark("bbl", "bbl0")
        ev = Evaluator(domain.model)
        goal = parse_formula("(CB (a b) (= o_2 2))", domain.signature)
        root = StateSequence([problem.initial])
        assert ev.evaluate(root, goal) is Ternary.UNKNOWN
        turn = next(a for a in domain.actions if a.name == "turn_b_right")
        node = apply_action(ev, turn, SearchNode(root, ()))
        assert node.sequence.last.get("dir_b") == 45
        assert ev.evaluate(node.sequence, goal) is Ternary.TRUE

    def test_turning_clamps_at_scale_ends(self, bbl):
        domain, problem = load_benchmark("bbl", "bbl0")
        sig = domain.signature
        ev = Evaluator(domain.model)
        at_end = sig.global_state({"dir_a": 180, "dir_b": -135,
                                   "o_1": 1, "o_2": 2, "o_3": 3})
        node = SearchNode(StateSequence([at_end]), ())
        left = next(a for a in domain.actions if a.name == "turn_a_left")
        right = next(a for a in domain.actions if a.name == "turn_b_right")
        assert apply_action(ev, left, node) is None
        assert apply_action(ev, right, node) is None
