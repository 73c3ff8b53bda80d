"""Shared fixtures: bundled instances, hand-built models, random generators."""

from __future__ import annotations

import random
from importlib import resources
from typing import Dict, Optional, Tuple

from epiplan.core import (
    And,
    Atom,
    GroupKnows,
    GroupMode,
    GroupSees,
    GroupSeesVar,
    Knows,
    Not,
    Sees,
    SeesVar,
    Signature,
    State,
    StateSequence,
    Value,
)
from epiplan.cli import load_benchmark
from epiplan.parser import DomainFile, parse_trace
from epiplan.perspectives import ObservationModel


# the six relations spelt out, as the model's definition of an atom reads
# them; tests compare core's relation table against this reference
LITERAL = {"=": lambda x, y: x == y, "!=": lambda x, y: x != y,
           "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
           ">": lambda x, y: x > y, ">=": lambda x, y: x >= y}


def retrieve_value(seq: StateSequence, ts: int, var: str) -> Optional[Value]:
    """Value of `var` with respect to timestamp `ts`: the retrieval rule
    applied literally, which tests compare the fold against.

    The value at `ts` if assigned there; otherwise the most recent earlier
    value; otherwise the closest later value; otherwise None. `ts` may be -1,
    meaning "before the sequence", in which case only forward lookup applies.
    """
    n = len(seq) - 1
    if not -1 <= ts <= n:
        raise IndexError(f"timestamp {ts} outside -1..{n}")
    for t in (*range(ts, -1, -1), *range(ts + 1, n + 1)):
        value = seq[t].get(var)
        if value is not None:
            return value
    return None


def number_domain() -> DomainFile:
    return load_benchmark("number", "n1")[0]


def plan1_sequence(domain: DomainFile) -> StateSequence:
    text = (resources.files("epiplan").joinpath("benchmarks")
            .joinpath("number").joinpath("plan1.trace").read_text(encoding="utf-8"))
    return parse_trace(text, domain)


def n_projection(seq: StateSequence) -> Tuple[Optional[int], ...]:
    return tuple(s.get("n") for s in seq)


# --------------------------------------------------------------------------
# The two-variable/three-observer example: a sees everything at step 0,
# b sees y at step 1, c sees x at step 2.
# --------------------------------------------------------------------------

class StepGated(ObservationModel):
    """Visibility keyed on an always-visible step counter."""

    name = "step-gated"
    rules = {"a": {0: ("x", "y")}, "b": {1: ("y",)}, "c": {2: ("x",)}}

    def sees(self, agent: str, state: State, var: str) -> bool:
        if var == "step" or state.sig.is_agent(var):
            return True
        step = state.get("step")
        if step is None:
            return False
        return var in self.rules[agent].get(step, ())


def step_gated_instance() -> Tuple[Signature, StepGated, StateSequence]:
    sig = Signature(["a", "b", "c"],
                    {"x": (1, 3, 5), "y": (2, 4, 6), "step": (0, 1, 2)})
    seq = StateSequence([
        sig.global_state({"x": 1, "y": 2, "step": 0}),
        sig.global_state({"x": 3, "y": 4, "step": 1}),
        sig.global_state({"x": 5, "y": 6, "step": 2}),
    ])
    return sig, StepGated(), seq


# --------------------------------------------------------------------------
# Random instances: rule-table visibility that satisfies the axioms by
# construction (guards only consult always-visible flag variables).
# --------------------------------------------------------------------------

class RuleVisibility(ObservationModel):
    """Per-(agent, var) visibility: always, never, or gated on a flag value."""

    name = "rule-table"

    def __init__(self, rules: Dict[Tuple[str, str], object], flags: frozenset):
        self.rules = rules
        self.flags = flags

    def sees(self, agent: str, state: State, var: str) -> bool:
        if var in self.flags or state.sig.is_agent(var):
            return True
        rule = self.rules.get((agent, var), False)
        if rule is True or rule is False:
            return bool(rule)
        flag, wanted = rule
        return state.get(flag) == wanted

    def gate_variables(self, agent: str):
        return self.flags


_DOMAIN_POOLS = ((0, 1, 2), (True, False), ("red", "green", "blue"), (1, 2))


def random_instance(rng: random.Random, max_vars: int = 4, max_domain: int = 3,
                    max_len: int = 6):
    """A random (signature, model, global sequence) triple.

    Declared variables <= max_vars, domain sizes <= max_domain, sequence
    length <= max_len. The first variable is a boolean flag that gates the
    visibility of the others for some agents.
    """
    agents = [f"ag{i}" for i in range(rng.randint(1, 3))]
    n_vars = rng.randint(1, max_vars)
    domains = {"flag": (True, False)}
    for i in range(1, n_vars):
        pool = _DOMAIN_POOLS[rng.randrange(len(_DOMAIN_POOLS))]
        size = rng.randint(1, min(max_domain, len(pool)))
        domains[f"v{i}"] = pool[:size]
    sig = Signature(agents, domains)
    rules: Dict[Tuple[str, str], object] = {}
    for agent in agents:
        for var in domains:
            if var == "flag":
                continue
            roll = rng.random()
            if roll < 0.3:
                rules[(agent, var)] = True
            elif roll < 0.55:
                rules[(agent, var)] = False
            else:
                rules[(agent, var)] = ("flag", rng.random() < 0.5)
    model = RuleVisibility(rules, frozenset({"flag"}))
    length = rng.randint(1, max_len)
    states = []
    for _ in range(length):
        assignment = {var: values[rng.randrange(len(values))]
                      for var, values in domains.items()}
        states.append(sig.global_state(assignment))
    return sig, model, StateSequence(states)


def random_states(rng: random.Random, sig: Signature, count: int):
    """Random global states over a signature."""
    out = []
    for _ in range(count):
        assignment = {}
        for var in sig.variables:
            if sig.is_agent(var):
                continue
            pool = sig.domain(var)
            assignment[var] = pool[rng.randrange(len(pool))]
        out.append(sig.global_state(assignment))
    return out


def random_belief_free_formula(rng: random.Random, sig: Signature, depth: int):
    """A random formula without belief operators over `sig`'s variables and
    agents: the formulas the grammar allows under seeing and knowledge.

    Seeing and knowing come individually and in all three group modes.
    """
    variables = [v for v in sig.variables if not sig.is_agent(v)]
    var = rng.choice(variables)
    pool = sig.domain(var)
    atom = Atom("=" if rng.random() < 0.7 else "!=", var, pool[rng.randrange(len(pool))])
    if depth == 0:
        return atom
    agent = rng.choice(sig.agents)
    group = tuple(a for a in sig.agents if rng.random() < 0.6) or (agent,)
    mode = rng.choice(list(GroupMode))
    roll = rng.randrange(9)
    if roll == 0:
        return atom
    if roll == 1:
        return Not(random_belief_free_formula(rng, sig, depth - 1))
    if roll == 2:
        return And(random_belief_free_formula(rng, sig, depth - 1),
                   random_belief_free_formula(rng, sig, depth - 1))
    if roll == 3:
        return SeesVar(agent, var)
    if roll == 4:
        return Sees(agent, random_belief_free_formula(rng, sig, depth - 1))
    if roll == 5:
        return Knows(agent, random_belief_free_formula(rng, sig, depth - 1))
    if roll == 6:
        return GroupSeesVar(mode, group, var)
    if roll == 7:
        return GroupSees(mode, group, random_belief_free_formula(rng, sig, depth - 1))
    return GroupKnows(mode, group, random_belief_free_formula(rng, sig, depth - 1))


# --------------------------------------------------------------------------
# Tiny instances + logically separable formulas for the Boolean oracle.
# --------------------------------------------------------------------------

def random_oracle_case(rng: random.Random):
    """A (model, global sequence, formula) triple small enough to enumerate.

    Formulas are conjunctions of possibly negated literals, optionally under
    one modal prefix: the separable shapes for which a definite three-valued
    verdict must agree with the exhaustive Boolean semantics.
    """
    from epiplan.core import (And, Atom, Believes, GroupBelieves, GroupKnows,
                              GroupMode, GroupSees, GroupSeesVar, Knows, Not,
                              Sees, SeesVar, make_group)

    agents = ["a", "b"][: rng.randint(1, 2)]
    domains = {"flag": (True, False)}
    if rng.random() < 0.8:
        domains["v1"] = (0, 1)
    sig = Signature(agents, domains)
    rules = {}
    for agent in agents:
        for var in domains:
            if var == "flag":
                continue
            roll = rng.random()
            if roll < 0.4:
                rules[(agent, var)] = True
            elif roll < 0.6:
                rules[(agent, var)] = False
            else:
                rules[(agent, var)] = ("flag", rng.random() < 0.5)
    model = RuleVisibility(rules, frozenset({"flag"}))
    length = rng.randint(1, 2)
    states = []
    for _ in range(length):
        assignment = {var: values[rng.randrange(len(values))]
                      for var, values in domains.items()}
        states.append(sig.global_state(assignment))
    seq = StateSequence(states)

    def literal(var):
        pool = domains[var]
        value = pool[rng.randrange(len(pool))]
        rel = "=" if rng.random() < 0.8 else "!="
        atom = Atom(rel, var, value)
        return Not(atom) if rng.random() < 0.3 else atom

    # logically separable bodies only: conjuncts over distinct variables, so
    # no hidden tautologies/contradictions (ternary is incomplete on those)
    var_pool = list(domains)
    rng.shuffle(var_pool)
    body = literal(var_pool[0])
    if len(var_pool) > 1 and rng.random() < 0.4:
        body = And(body, literal(var_pool[1]))

    group = make_group(agents)
    agent = rng.choice(agents)
    mode = rng.choice(list(GroupMode))
    wrappers = [
        lambda: body,
        lambda: SeesVar(agent, rng.choice(list(domains))),
        lambda: Sees(agent, body),
        lambda: Knows(agent, body),
        lambda: Believes(agent, body),
        lambda: GroupSeesVar(mode, group, rng.choice(list(domains))),
        lambda: GroupSees(mode, group, body),
        lambda: GroupKnows(mode, group, body),
        lambda: GroupBelieves(mode, group, body),
    ]
    phi = wrappers[rng.randrange(len(wrappers))]()
    if rng.random() < 0.25:
        phi = Not(phi)
    return model, seq, phi


# --------------------------------------------------------------------------
# Deliberately broken models, used to prove the axiom harness has teeth.
# --------------------------------------------------------------------------

class LeakingModel(ObservationModel):
    """Breaks containment: invents a value for an unassigned variable."""

    name = "broken-containment"

    def sees(self, agent, state, var):
        return True

    def observe(self, agent, state):
        vals = list(state.vals)
        for idx, val in enumerate(vals):
            if val is None:
                vals[idx] = state.sig.domain(state.sig.variables[idx])[0]
                break
        return State(state.sig, tuple(vals))


class NonMonotoneModel(ObservationModel):
    """Breaks monotonicity: hides v1 as soon as the flag becomes visible."""

    name = "broken-monotone"

    def sees(self, agent, state, var):
        if state.sig.is_agent(var) or var == "flag":
            return True
        return "flag" not in state


class NonIdempotentModel(ObservationModel):
    """Breaks idempotence: payload needs the flag, but the flag is hidden."""

    name = "broken-idempotent"

    def sees(self, agent, state, var):
        if state.sig.is_agent(var):
            return True
        if var == "flag":
            return False
        return state.get("flag") is True


class FalselyGatedModel(ObservationModel):
    """Declares the flag its only gate but reads v1 itself: v1 is seen
    exactly where it is 1."""

    name = "broken-gates"

    def sees(self, agent, state, var):
        if state.sig.is_agent(var) or var == "flag":
            return True
        return state.get(var) == 1

    def gate_variables(self, agent):
        return frozenset({"flag"})


class NonDeterministicModel(ObservationModel):
    """Breaks determinism: answers yes and no in turn about v1."""

    name = "broken-deterministic"

    def __init__(self):
        self._asked = 0

    def sees(self, agent, state, var):
        if var != "v1":
            return True
        self._asked += 1
        return self._asked % 2 == 1


class MixedStateModel(ObservationModel):
    """Sound on every state that pairs g with x as `mixed_samples` do, but
    not monotone on a view row that keeps an old g beside a new x.

    The agent sees g unless g is 1 and x is not 0, and sees x unless g is 0
    and x is 1. Over the samples (0, 0), (1, 1), (1, 0) its view keeps g at
    0 beside x at 1, a state no sample holds, where it no longer sees x: so
    its view of its view differs from its view.
    """

    name = "broken-self-view"

    def sees(self, agent, state, var):
        if state.sig.is_agent(var):
            return True
        g, x = state.get("g"), state.get("x")
        if var == "g":
            return not (g == 1 and x != 0)
        return not (g == 0 and x == 1)


def mixed_samples():
    """(signature, states) on which `MixedStateModel` passes every
    per-state check."""
    sig = Signature(["a"], {"g": (0, 1), "x": (0, 1)})
    return sig, [sig.global_state({"g": g, "x": x}) for g, x in ((0, 0), (1, 1), (1, 0))]

