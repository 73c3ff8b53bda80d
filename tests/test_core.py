import time

import pytest
from hypothesis import given, strategies as st

from helpers import LITERAL
from epiplan.core import (
    RELATIONS,
    And,
    Atom,
    Believes,
    GroupBelieves,
    GroupMode,
    GroupSees,
    Knows,
    Not,
    Sees,
    SeesVar,
    Signature,
    StateSequence,
    Ternary,
    ValidationError,
    Var,
    interpret_atom,
    make_group,
    validate_formula,
)


@pytest.fixture
def sig():
    return Signature(["a", "b"], {"n": range(0, 6), "ok": (False, True),
                                  "colour": ("red", "green")})


ternaries = st.sampled_from(list(Ternary))


@given(ternaries)
def test_negation_is_involution(t):
    assert t.negate().negate() is t


@given(ternaries, ternaries)
def test_de_morgan_on_values(x, y):
    assert min(x, y).negate() == max(x.negate(), y.negate())


def test_ternary_rendering():
    assert [str(t) for t in (Ternary.FALSE, Ternary.UNKNOWN, Ternary.TRUE)] == ["0", "1/2", "1"]


class TestSignature:
    def test_agents_become_marker_variables(self, sig):
        assert set(sig.agents) <= set(sig.variables)
        assert sig.domain("a") == (True,)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValidationError):
            Signature(["a"], {"x": ()})

    def test_mixed_kind_domain_rejected(self):
        with pytest.raises(ValidationError):
            Signature(["a"], {"x": (1, "one")})

    def test_out_of_domain_value_rejected(self, sig):
        with pytest.raises(ValidationError):
            sig.make_state({"n": 17})

    def test_bool_int_not_conflated(self, sig):
        # n's domain contains 1; True must not sneak in as 1
        assert not sig.in_domain("n", True)
        assert not sig.in_domain("ok", 1)

    def test_in_domain_keeps_kinds_apart(self):
        # a Python set holds True == 1, so membership alone would conflate them
        small = Signature(["a"], {"n": range(0, 3), "gaps": (0, 2, 5),
                                  "flag": (False, True), "colour": ("red", "green")})
        assert small.in_domain("n", 1) and not small.in_domain("n", True)
        assert not small.in_domain("n", 3) and not small.in_domain("n", -1)
        assert small.in_domain("gaps", 5) and not small.in_domain("gaps", 1)
        assert not small.in_domain("gaps", False)
        assert small.in_domain("flag", True) and not small.in_domain("flag", 1)
        assert not small.in_domain("flag", 0)
        assert small.in_domain("colour", "red") and not small.in_domain("colour", 1)
        with pytest.raises(ValidationError):
            small.in_domain("nope", 1)

    def test_in_domain_on_the_widest_range(self):
        wide = Signature(["a"], {"n": range(0, 65536)})
        assert wide.in_domain("n", 0) and wide.in_domain("n", 65535)
        assert not wide.in_domain("n", 65536) and not wide.in_domain("n", -1)
        assert not wide.in_domain("n", True) and not wide.in_domain("n", "7")
        # a scan of the domain took about 10 ms per miss here; a lookup
        # takes microseconds, so 2,000 misses fit well within a second
        start = time.perf_counter()
        for _ in range(2000):
            wide.in_domain("n", 65536)
        assert time.perf_counter() - start < 1.0


class TestState:
    def test_absent_reads_none(self, sig):
        s = sig.make_state({"n": 3})
        assert s.get("n") == 3
        assert s.get("ok") is None
        assert "ok" not in s

    def test_structural_equality(self, sig):
        assert sig.make_state({"n": 3}) == sig.make_state({"n": 3})
        assert sig.make_state({"n": 3}) != sig.make_state({"n": 4})

    def test_override_prefers_winner(self, sig):
        base = sig.make_state({"n": 1, "ok": True})
        winner = sig.make_state({"n": 5})
        merged = base.override(winner)
        assert merged.get("n") == 5 and merged.get("ok") is True


class TestSequence:
    def test_prefix(self, sig):
        states = [sig.make_state({"n": i}) for i in range(3)]
        seq = StateSequence(states)
        assert list(seq.prefix(0)) == states[:1]
        assert list(seq.prefix(2)) == states
        assert list(StateSequence(states[:1]).prefix(0)) == states[:1]

    def test_prefix_range_checked(self, sig):
        seq = StateSequence([sig.make_state({"n": 0})])
        with pytest.raises(IndexError):
            seq.prefix(1)
        with pytest.raises(IndexError):
            seq[1]

    def test_non_empty(self):
        with pytest.raises(ValidationError):
            StateSequence([])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.integers(0, 7))
def test_equal_sequences_hash_equal_however_built(values, cut):
    """Built whole, by `extend` from fresh but equal states, or by extending a
    prefix: equal sequences, equal hashes."""
    sig = Signature(["a"], {"n": range(0, 6)})
    whole = StateSequence([sig.make_state({"n": v}) for v in values])
    chained = StateSequence([sig.make_state({"n": values[0]})])
    for v in values[1:]:
        chained = chained.extend(sig.make_state({"n": v}))
    cut = min(cut, len(values) - 1)
    grown = whole.prefix(cut)
    for v in values[cut + 1:]:
        grown = grown.extend(sig.make_state({"n": v}))
    for seq in (chained, grown):
        assert seq == whole and hash(seq) == hash(whole)
    longer = whole.extend(sig.make_state({"n": values[-1]}))
    assert longer != whole


class TestInterpretAtom:
    def test_true_comparison(self, sig):
        assert interpret_atom(sig.make_state({"n": 1}), Atom("<", "n", 3)) is Ternary.TRUE

    def test_unassigned_is_unknown(self, sig):
        assert interpret_atom(sig.make_state({}), Atom("<", "n", 3)) is Ternary.UNKNOWN

    def test_false_comparison(self, sig):
        assert interpret_atom(sig.make_state({"n": 5}), Atom("<", "n", 3)) is Ternary.FALSE

    def test_variable_rhs(self, sig):
        two = Signature(["a"], {"x": range(4), "y": range(4)})
        state = two.make_state({"x": 1, "y": 2})
        assert interpret_atom(state, Atom("<", "x", Var("y"))) is Ternary.TRUE
        assert interpret_atom(two.make_state({"x": 1}), Atom("<", "x", Var("y"))) is Ternary.UNKNOWN

    def test_totality_and_complement(self, sig):
        import random
        rng = random.Random(7)
        complements = {"<": ">=", "<=": ">", "=": "!=", ">": "<=", ">=": "<", "!=": "="}
        for _ in range(300):
            state = sig.make_state({"n": rng.randrange(6)} if rng.random() < 0.8 else {})
            rel = rng.choice(list(complements))
            atom = Atom(rel, "n", rng.randrange(-1, 7))
            flipped = Atom(complements[rel], "n", atom.rhs)
            value = interpret_atom(state, atom)
            assert value in (Ternary.FALSE, Ternary.UNKNOWN, Ternary.TRUE)
            if "n" in state:
                assert (value is Ternary.FALSE) == (interpret_atom(state, flipped) is Ternary.TRUE)

    def test_validation_and_evaluation_share_the_relations(self):
        # every relation validation accepts is one the reference defines
        assert sorted(RELATIONS) == sorted(LITERAL)

    SMALL = Signature(["a"], {"x": range(-2, 3), "y": range(-2, 3), "ok": (False, True)})
    # declared variables, the agent marker, and a name outside the signature
    NAMES = ("x", "y", "ok", "a", "ghost")

    @given(values=st.fixed_dictionaries({
               "x": st.none() | st.integers(-2, 2), "y": st.none() | st.integers(-2, 2),
               "ok": st.none() | st.booleans()}),
           rel=st.sampled_from(RELATIONS),
           lhs=st.sampled_from(NAMES),
           rhs=st.sampled_from(NAMES).map(Var) | st.integers(-3, 3) | st.booleans())
    def test_matches_the_literal_definition(self, values, rel, lhs, rhs):
        """Both operands assigned: the Python comparison; else unknown."""
        state = self.SMALL.make_state({k: v for k, v in values.items() if v is not None})
        assigned = dict(state.items())
        left = assigned.get(lhs)
        right = assigned.get(rhs.name) if isinstance(rhs, Var) else rhs
        if left is None or right is None:
            want = Ternary.UNKNOWN
        else:
            want = Ternary.from_bool(LITERAL[rel](left, right))
        assert interpret_atom(state, Atom(rel, lhs, rhs)) is want


class TestValidation:
    def test_ordered_relation_needs_ints(self, sig):
        with pytest.raises(ValidationError):
            validate_formula(sig, Atom("<", "ok", True))

    def test_kind_mismatch(self, sig):
        with pytest.raises(ValidationError):
            validate_formula(sig, Atom("=", "n", "red"))

    def test_unknown_symbol_constant(self, sig):
        with pytest.raises(ValidationError):
            validate_formula(sig, Atom("=", "colour", "blue"))

    def test_unknown_agent(self, sig):
        with pytest.raises(ValidationError):
            validate_formula(sig, Believes("z", Atom("=", "n", 1)))

    def test_empty_group(self, sig):
        with pytest.raises(ValidationError):
            validate_formula(sig, GroupBelieves(GroupMode.COMMON, (), Atom("=", "n", 1)))

    def test_belief_under_knowledge_rejected(self, sig):
        bad = Knows("a", Believes("b", Atom("=", "n", 2)))
        with pytest.raises(ValidationError):
            validate_formula(sig, bad)

    def test_belief_over_knowledge_allowed(self, sig):
        fine = Believes("a", Knows("b", Atom("=", "n", 2)))
        validate_formula(sig, fine)


def _random_ast(rng, sig, depth, under_knowledge):
    """Grammar-aware generator; returns (formula, contains_illegal_nesting)."""
    atom = Atom("=", "n", rng.randrange(6))
    if depth == 0:
        return atom, False
    roll = rng.randrange(8)
    if roll == 0:
        child, bad = _random_ast(rng, sig, depth - 1, under_knowledge)
        return Not(child), bad
    if roll == 1:
        left, bad1 = _random_ast(rng, sig, depth - 1, under_knowledge)
        right, bad2 = _random_ast(rng, sig, depth - 1, under_knowledge)
        return And(left, right), bad1 or bad2
    if roll == 2:
        return SeesVar("a", "n"), False
    if roll == 3:
        child, bad = _random_ast(rng, sig, depth - 1, True)
        return Sees("a", child), bad
    if roll == 4:
        child, bad = _random_ast(rng, sig, depth - 1, True)
        return Knows("b", child), bad
    if roll == 5:
        child, bad = _random_ast(rng, sig, depth - 1, under_knowledge)
        return Believes("a", child), bad or under_knowledge
    if roll == 6:
        child, bad = _random_ast(rng, sig, depth - 1, True)
        mode = rng.choice(list(GroupMode))
        return GroupSees(mode, make_group(["a", "b"]), child), bad
    child, bad = _random_ast(rng, sig, depth - 1, under_knowledge)
    mode = rng.choice(list(GroupMode))
    return GroupBelieves(mode, make_group(["a", "b"]), child), bad or under_knowledge


def test_validator_matches_grammar_on_random_asts(sig):
    import random
    rng = random.Random(20240301)
    rejected = accepted = 0
    for _ in range(500):
        phi, has_illegal = _random_ast(rng, sig, rng.randint(1, 4), False)
        try:
            validate_formula(sig, phi)
        except ValidationError:
            rejected += 1
            assert has_illegal, f"validator rejected a legal formula: {phi}"
        else:
            accepted += 1
            assert not has_illegal, f"validator accepted an illegal formula: {phi}"
    assert rejected > 10 and accepted > 10
