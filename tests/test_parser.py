import random
from importlib import resources

import pytest

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
    Var,
    format_value,
    make_group,
)
from epiplan.cli import load_benchmark
from epiplan.parser import (
    MAX_INT_RANGE,
    ParseError,
    format_formula,
    parse_domain,
    parse_formula,
    parse_problem,
    parse_trace,
)
from epiplan.planner import SearchNode, apply_action
from epiplan.semantics import Evaluator


@pytest.fixture
def sig():
    return Signature(["a", "b"], {"n": range(0, 4), "ok": (False, True),
                                  "colour": ("red", "green")})


MINI_DOMAIN = """
# box with a flag
domain mini
agents a b
var n : int 0..2
var peeking_a : bool
var peeking_b : bool
observation number

action flip
  pre (= peeking_a false)
  eff peeking_a := true
end

action bump
  eff n += 1
end
"""


class TestFormulas:
    def test_common_belief_example(self, sig):
        phi = parse_formula("(CB (a b) (< n 3))", sig)
        assert phi == GroupBelieves(GroupMode.COMMON, ("a", "b"), Atom("<", "n", 3))

    def test_belief_under_knowledge_rejected(self, sig):
        with pytest.raises(ParseError):
            parse_formula("(K a (B b (= n 2)))", sig)

    def test_composite_goal_ast(self, sig):
        phi = parse_formula("(and (EB (a b) (< n 2)) (not (CB (a b) (< n 2))))", sig)
        below = Atom("<", "n", 2)
        assert phi == And(GroupBelieves(GroupMode.UNIFORM, ("a", "b"), below),
                          Not(GroupBelieves(GroupMode.COMMON, ("a", "b"), below)))

    def test_seeing_variable_and_formula_forms(self, sig):
        assert parse_formula("(S a n)", sig) == SeesVar("a", "n")
        assert parse_formula("(S a (= n 1))", sig) == Sees("a", Atom("=", "n", 1))
        assert parse_formula("(DS (b a) n)", sig) == \
            GroupSeesVar(GroupMode.DISTRIBUTED, ("a", "b"), "n")

    def test_variable_rhs_resolution(self, sig):
        two = Signature(["a"], {"x": range(3), "y": range(3)})
        assert parse_formula("(< x y)", two) == Atom("<", "x", Var("y"))

    def test_constants(self, sig):
        assert parse_formula("(= ok true)", sig) == Atom("=", "ok", True)
        assert parse_formula("(= colour red)", sig) == Atom("=", "colour", "red")

    def test_nary_and_folds(self, sig):
        phi = parse_formula("(and (= n 1) (= n 2) (= n 3))", sig)
        assert phi == And(And(Atom("=", "n", 1), Atom("=", "n", 2)), Atom("=", "n", 3))

    def test_group_normalised(self, sig):
        assert parse_formula("(EB (b a b) (= n 1))", sig).group == ("a", "b")

    def test_error_positions(self, sig):
        with pytest.raises(ParseError) as err:
            parse_formula("(and (= n 1)\n  (= m 2))", sig)
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line, col, message", [
        ("(S a)", 1, 5, "expected a variable name"),
        ("(S a ))", 1, 6, "expected a variable name"),
        ("(S a zz)", 1, 6, "undeclared variable 'zz'"),
        ("(DS (a b) zz)", 1, 11, "undeclared variable 'zz'"),
        ("(and (= n 1)\n  (CS (a b)  zz))", 2, 14, "undeclared variable 'zz'"),
    ])
    def test_variable_errors_name_their_token(self, sig, text, line, col, message):
        # a seen variable is checked where it stands, as an atom's is
        with pytest.raises(ParseError) as err:
            parse_formula(text, sig)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in str(err.value)

    @pytest.mark.parametrize("text, line, col", [
        ("(B zz (= n 1))", 1, 4),
        ("(EB (a zz) (= n 1))", 1, 8),
        ("(and (= n 1)\n  (CK (zz b) (= n 1)))", 2, 8),
    ])
    def test_agent_errors_name_their_token(self, sig, text, line, col):
        # an agent is checked where it stands, in a group or alone
        with pytest.raises(ParseError) as err:
            parse_formula(text, sig)
        assert (err.value.line, err.value.col) == (line, col)
        assert "unknown agent 'zz'" in str(err.value)

    def test_trailing_garbage_rejected(self, sig):
        with pytest.raises(ParseError):
            parse_formula("(= n 1) leftover", sig)

    def test_unknown_operator(self, sig):
        with pytest.raises(ParseError):
            parse_formula("(xor (= n 1) (= n 2))", sig)


def _random_legal_formula(rng, sig, depth, under_knowledge):
    atom_var = rng.choice(["n", "ok", "colour"])
    if atom_var == "n":
        atom = Atom(rng.choice(["=", "!=", "<", "<=", ">", ">="]), "n", rng.randrange(4))
    elif atom_var == "ok":
        atom = Atom("=", "ok", rng.random() < 0.5)
    else:
        atom = Atom("=", "colour", rng.choice(["red", "green"]))
    if depth == 0:
        return atom
    roll = rng.randrange(9)
    agent = rng.choice(["a", "b"])
    group = make_group(["a", "b"]) if rng.random() < 0.7 else (agent,)
    mode = rng.choice(list(GroupMode))
    if roll == 0:
        return Not(_random_legal_formula(rng, sig, depth - 1, under_knowledge))
    if roll == 1:
        return And(_random_legal_formula(rng, sig, depth - 1, under_knowledge),
                   _random_legal_formula(rng, sig, depth - 1, under_knowledge))
    if roll == 2:
        return SeesVar(agent, rng.choice(["n", "ok"]))
    if roll == 3:
        return GroupSees(mode, group, _random_legal_formula(rng, sig, depth - 1, True))
    if roll == 4:
        return Knows(agent, _random_legal_formula(rng, sig, depth - 1, True))
    if roll == 5 and not under_knowledge:
        return Believes(agent, _random_legal_formula(rng, sig, depth - 1, False))
    if roll == 6:
        return GroupSeesVar(mode, group, rng.choice(["n", "ok"]))
    if roll == 7:
        return GroupKnows(mode, group, _random_legal_formula(rng, sig, depth - 1, True))
    if not under_knowledge:
        return GroupBelieves(mode, group, _random_legal_formula(rng, sig, depth - 1, False))
    return atom


@pytest.mark.parametrize("individual, grouped", [
    ("(S a n)", "(ES (a) n)"),
    ("(S a (= n 1))", "(ES (a) (= n 1))"),
    ("(K a (= ok true))", "(EK (a) (= ok true))"),
    ("(B a (not (S b colour)))", "(EB (a) (not (ES (b) colour)))"),
])
def test_individual_operator_is_singleton_uniform_group(sig, individual, grouped):
    phi = parse_formula(individual, sig)
    assert parse_formula(grouped, sig) == phi
    assert phi.mode is GroupMode.UNIFORM and phi.group == ("a",)
    assert format_formula(parse_formula(grouped, sig)) == individual
    assert format_formula(phi) == individual
    assert parse_formula(format_formula(phi), sig) == phi
    # the individual names stay types, so isinstance accepts them
    isinstance(phi, (Sees, Knows, Believes, SeesVar))


def test_round_trip_on_random_formulas(sig):
    rng = random.Random(424242)
    for _ in range(400):
        phi = _random_legal_formula(rng, sig, rng.randint(0, 4), False)
        assert parse_formula(format_formula(phi), sig) == phi


class TestDomainFiles:
    def test_mini_domain(self):
        domain = parse_domain(MINI_DOMAIN)
        assert domain.name == "mini"
        assert domain.signature.agents == ("a", "b")
        assert domain.signature.domain("n") == (0, 1, 2)
        assert [a.name for a in domain.actions] == ["flip", "bump"]
        assert domain.actions[0].precondition is not None
        assert domain.actions[1].effects[0].kind == "add"

    def test_int_set_and_enum_declarations(self):
        text = """
domain shapes
agents a
var d : int { -45 0 45 }
var c : enum red green
var peeking_a : bool
observation number
"""
        domain = parse_domain(text)
        assert domain.signature.domain("d") == (-45, 0, 45)
        assert domain.signature.domain("c") == ("red", "green")

    def test_integer_range_is_bounded(self):
        widest = MINI_DOMAIN.replace("0..2", f"-1..{MAX_INT_RANGE - 2}")
        assert len(parse_domain(widest).signature.domain("n")) == MAX_INT_RANGE
        with pytest.raises(ParseError) as err:
            parse_domain(MINI_DOMAIN.replace("0..2", f"-1..{MAX_INT_RANGE - 1}"))
        assert err.value.line == 5 and f"more than {MAX_INT_RANGE} values" in str(err.value)

    def test_undeclared_effect_variable(self):
        bad = MINI_DOMAIN.replace("eff n += 1", "eff m += 1")
        with pytest.raises(ParseError) as err:
            parse_domain(bad)
        assert "m" in str(err.value)

    def test_unterminated_action(self):
        bad = MINI_DOMAIN.rsplit("end", 1)[0]
        with pytest.raises(ParseError):
            parse_domain(bad)

    def test_unknown_directive_carries_line(self):
        bad = MINI_DOMAIN + "\nnonsense here\n"
        with pytest.raises(ParseError) as err:
            parse_domain(bad)
        assert err.value.line is not None

    def test_unknown_observation_model(self):
        with pytest.raises(ParseError):
            parse_domain(MINI_DOMAIN.replace("observation number", "observation ghost"))

    @pytest.mark.parametrize("model", ["number", "grapevine"])
    def test_model_without_config_refuses_obs_config(self, model):
        text = (resources.files("epiplan").joinpath("benchmarks").joinpath(model)
                .joinpath(f"{model}.dom").read_text(encoding="utf-8"))
        assert parse_domain(text).model is not None
        with pytest.raises(ParseError) as err:
            parse_domain(text + "\nobs-config pos a 1 2\n")
        assert f"the {model} model takes no obs-config lines, got: pos a 1 2" in str(err.value)

    @pytest.mark.parametrize("effect", ["eff n := 99", "eff n := -1", "eff n := 3"])
    def test_out_of_domain_constant_effect(self, effect):
        bad = MINI_DOMAIN.replace("eff n += 1", effect)
        with pytest.raises(ParseError) as err:
            parse_domain(bad)
        assert err.value.line == 16 and "not in the domain of 'n'" in str(err.value)
        # a constant inside the domain still parses
        assert parse_domain(MINI_DOMAIN.replace("eff n += 1", "eff n := 2"))

    def test_symbol_effect_checked(self):
        text = """
domain g
agents a
var loc_a : enum room1 room2
var peeking_a : bool
observation number

action warp
  eff loc_a := room3
end
"""
        with pytest.raises(ParseError):
            parse_domain(text)


class TestProblemFiles:
    def test_full_problem(self):
        domain = parse_domain(MINI_DOMAIN)
        problem = parse_problem("""
problem p1
domain mini
init n=2 peeking_a=false
init peeking_b=false
goal true (= n 2)
goal unknown (B b (= n 2))
max-depth 5
""", domain)
        assert problem.name == "p1"
        assert problem.initial.get("n") == 2
        assert problem.initial.get("a") is True
        assert problem.goals[0][1] is Ternary.TRUE
        assert problem.goals[1][1] is Ternary.UNKNOWN
        assert problem.max_depth == 5

    def test_partial_init_rejected(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError):
            parse_problem("problem p\ndomain mini\ninit n=2\ngoal true (= n 2)\n", domain)

    def test_wrong_domain_reference(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError):
            parse_problem("problem p\ndomain other\n"
                          "init n=2 peeking_a=false peeking_b=false\n"
                          "goal true (= n 2)\n", domain)

    def test_goal_needs_target(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError):
            parse_problem("problem p\ndomain mini\n"
                          "init n=2 peeking_a=false peeking_b=false\n"
                          "goal (= n 2)\n", domain)


class TestTraces:
    def test_replay(self):
        domain = parse_domain(MINI_DOMAIN)
        seq = parse_trace("init n=1 peeking_a=false peeking_b=false\ndo flip\ndo bump\n",
                          domain)
        assert len(seq) == 3
        assert seq.last.get("n") == 2 and seq.last.get("peeking_a") is True

    def test_replay_checks_preconditions(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError):
            parse_trace("init n=1 peeking_a=true peeking_b=false\ndo flip\n", domain)

    def test_replay_is_the_apply_action_chain(self):
        """A replay gives the sequence that `apply_action` gives from the
        start, one action per `do` line, on nodes carrying no fold states."""
        domain, problem = load_benchmark("grapevine", "g0")
        sig = domain.signature
        names = (["share_a_t", "move_b_room2", "share_b_t", "move_b_room1"]
                 + ["share_a_t", "move_b_room2", "move_b_room1"] * 6)
        text = "init " + " ".join(f"{var}={format_value(value)}"
                                  for var, value in problem.initial.items()
                                  if not sig.is_agent(var))
        text += "".join(f"\ndo {name}" for name in names)
        evaluator = Evaluator(domain.model)
        node = SearchNode(StateSequence([problem.initial]), ())
        for name in names:
            node = apply_action(evaluator, next(a for a in domain.actions if a.name == name),
                                node)
        assert len(node.sequence) == len(names) + 1
        assert parse_trace(text, domain) == node.sequence

    def test_explicit_states_allow_partial(self):
        domain = parse_domain(MINI_DOMAIN)
        seq = parse_trace("state n=1 peeking_a=false peeking_b=false\nstate n=2\n", domain)
        assert len(seq) == 2
        assert "peeking_a" not in seq[1]
        assert seq[1].get("a") is True

    def test_empty_trace_rejected(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError):
            parse_trace("# nothing\n", domain)


class TestLinePositions:
    """A `pre` or `goal` formula is read from its own line, so its errors
    carry the file's line and column."""

    @staticmethod
    def _domain_error(pre_line):
        text = MINI_DOMAIN.replace("  pre (= peeking_a false)", pre_line)
        with pytest.raises(ParseError) as err:
            parse_domain(text)
        return err.value

    def test_pre_formula_error_has_file_column(self):
        err = self._domain_error("  pre   (and (= peeking_a false) (= nn 1))")
        assert (err.line, err.col) == (11, 37)
        assert "undeclared variable 'nn'" in str(err)

    def test_empty_pre_names_its_line(self):
        err = self._domain_error("  pre   # nothing")
        assert err.line == 11
        assert "expected a formula" in str(err)

    def test_goal_formula_error_has_file_column(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_problem("problem p\ndomain mini\n"
                          "init n=2 peeking_a=false peeking_b=false\n"
                          "goal  true   (B a (= n 2)) (= n 1)  # two formulas\n", domain)
        assert (err.value.line, err.value.col) == (4, 28)

    def test_goal_type_error_names_its_line(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_problem("problem p\ndomain mini\n"
                          "init n=2 peeking_a=false peeking_b=false\n"
                          "goal true (K a (B b (= n 2)))\n", domain)
        assert (err.value.line, err.value.col) == (4, None)

    def test_formula_ends_at_end_of_line(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_problem("problem p\ndomain mini\n"
                          "init n=2 peeking_a=false peeking_b=false\n"
                          "goal true (and (= n 2)\n  (= n 1))\n", domain)
        assert err.value.line == 4


class TestDeclarationColumns:
    """Errors on `var`, `eff`, `init` and `state` lines name the column of
    the word at fault; names may still hold parentheses and braces."""

    @pytest.mark.parametrize("old, new, line, col, message", [
        ("var n : int 0..2", "var n : int  0..x", 5, 14, "bad integer range '0..x'"),
        ("var n : int 0..2", "var n : flt", 5, 9, "unknown variable type 'flt'"),
        ("var n : int 0..2", "var n : int { 0 one }", 5, 17, "must be integers"),
        ("var n : int 0..2", "var n : enum zero  1 2", 5, 20, "'1' reads as the int constant 1"),
        ("var n : int 0..2", "var n : enum yes true", 5, 18, "'true' reads as the bool"),
        ("var peeking_b : bool", "var peeking_a : bool", 7, 5, "declared twice"),
        ("  eff n += 1", "  eff n += one", 16, 12, "expected an integer"),
        ("  eff n += 1", "  eff  m += 1", 16, 8, "undeclared variable 'm'"),
        ("  eff n += 1", "  eff n *= 1", 16, 9, "unknown effect operator"),
        ("  eff peeking_a := true", "  eff peeking_a := 3", 12, 20, "does not fit"),
    ])
    def test_domain_error_columns(self, old, new, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_domain(MINI_DOMAIN.replace(old, new))
        assert (err.value.line, err.value.col) == (line, col)
        assert message in str(err.value)

    @pytest.mark.parametrize("init, col, message", [
        ("init n=2 m=1", 10, "undeclared variable 'm'"),
        ("init  n=2 n=1", 11, "'n' given twice"),
        ("init n=2 peeking_a", 10, "expected var=value"),
        ("init n=2 peeking_a=maybe", 10, "outside the domain of 'peeking_a'"),
    ])
    def test_init_error_columns(self, init, col, message):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_problem(f"problem p\ndomain mini\n{init}\ngoal true (= n 2)\n", domain)
        assert (err.value.line, err.value.col) == (3, col)
        assert message in str(err.value)

    def test_state_error_column(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_trace("state n=1 peeking_a=false\nstate n=1 peeking_b=3\n", domain)
        assert (err.value.line, err.value.col) == (2, 11)
        assert str(err.value).startswith("line 2, col 11: ")

    def test_names_with_parentheses_and_braces(self):
        text = MINI_DOMAIN.replace("var n : int 0..2", "var n : int 0..2\nvar c(1) : enum {x} y)")
        text = text.replace("  eff n += 1", "  eff c(1) := {x}")
        domain = parse_domain(text)
        assert domain.signature.domain("c(1)") == ("{x}", "y)")
        assert domain.actions[1].effects[0].operand == "{x}"


class TestAssignments:
    @pytest.mark.parametrize("trace, line", [
        ("init n=1 n=2 peeking_a=false peeking_b=false\n", 1),
        ("state n=1 peeking_a=false\nstate n=1 n=0\n", 2),
    ])
    def test_trace_variable_given_twice(self, trace, line):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_trace(trace, domain)
        assert err.value.line == line
        assert "'n' given twice" in str(err.value)

    def test_problem_variable_given_twice_across_lines(self):
        domain = parse_domain(MINI_DOMAIN)
        with pytest.raises(ParseError) as err:
            parse_problem("problem p\ndomain mini\n"
                          "init n=2 peeking_a=false peeking_b=false\ninit n=1\n"
                          "goal true (= n 2)\n", domain)
        assert err.value.line == 4
