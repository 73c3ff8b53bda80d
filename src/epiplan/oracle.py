"""Brute-force Boolean semantics, used as a testing oracle on tiny instances.

Where the three-valued evaluator answers "unknown" for unseen values, the
complete semantics quantifies over every global completion of the relevant
local sequences. The cost is exponential in variables and sequence length, so
construction is refused above a size ceiling. No attempt is made to be fast;
this code exists to be obviously correct.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .core import (
    And,
    Atom,
    EngineError,
    Formula,
    GroupBelieves,
    GroupKnows,
    GroupMode,
    GroupSees,
    GroupSeesVar,
    Not,
    Signature,
    State,
    StateSequence,
    interpret_atom,
    Ternary,
    validate_formula,
)
from .perspectives import (
    ObservationModel,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    uniform_perspectives,
)

DEFAULT_CEILING = 10 ** 6


class InstanceTooLarge(EngineError):
    """The completion space exceeds the configured ceiling."""


class CompletionSpace:
    """All global state sequences of a fixed length over a signature."""

    def __init__(self, sig: Signature, length: int, ceiling: int = DEFAULT_CEILING):
        if length < 1:
            raise ValueError("sequence length must be at least 1")
        self.sig = sig
        self.length = length
        states = 1
        for var in sig.variables:
            states *= len(sig.domain(var))
        self.size = states ** length
        if self.size > ceiling:
            raise InstanceTooLarge(
                f"completion space holds {self.size} sequences, ceiling is {ceiling}")

    def states(self) -> Iterator[State]:
        domains = [self.sig.domain(v) for v in self.sig.variables]
        for combo in product(*domains):
            yield State(self.sig, combo)

    def sequences(self) -> Iterator[StateSequence]:
        all_states = list(self.states())
        for combo in product(all_states, repeat=self.length):
            yield StateSequence(combo)


def _overlay(base: StateSequence, winner: StateSequence) -> StateSequence:
    """Element-wise override: winner's assignments beat the base completion."""
    return StateSequence([b.override(w) for b, w in zip(base, winner)])


def complete_eval(model: ObservationModel, seq: StateSequence, phi: Formula,
                  ceiling: int = DEFAULT_CEILING) -> bool:
    """Boolean truth of `phi` on `seq` under exhaustive completion."""
    validate_formula(seq.sig, phi)
    space = CompletionSpace(seq.sig, len(seq), ceiling)
    return _holds(model, space, seq, phi)


def _forall(model: ObservationModel, space: CompletionSpace,
            local: StateSequence, phi: Formula) -> bool:
    """phi holds on every completion of the local sequence."""
    return all(_holds(model, space, _overlay(g, local), phi)
               for g in space.sequences())


def _holds(model: ObservationModel, space: CompletionSpace,
           seq: StateSequence, phi: Formula) -> bool:
    if isinstance(phi, Atom):
        return interpret_atom(seq.last, phi) is Ternary.TRUE
    if isinstance(phi, And):
        return _holds(model, space, seq, phi.left) and _holds(model, space, seq, phi.right)
    if isinstance(phi, Not):
        return not _holds(model, space, seq, phi.child)
    if isinstance(phi, GroupSeesVar):
        last = seq.last
        if phi.mode is GroupMode.UNIFORM:
            return all(phi.var in model.observe(i, last) for i in phi.group)
        if phi.mode is GroupMode.DISTRIBUTED:
            return phi.var in group_observation(model, phi.group, last)
        return phi.var in common_observation(model, phi.group, last)
    if isinstance(phi, GroupSees):
        if phi.mode is GroupMode.UNIFORM:
            # each member on its own observation of every state
            observed = [StateSequence([model.observe(i, s) for s in seq]) for i in phi.group]
            return all(_forall(model, space, local, phi.child)
                       or _forall(model, space, local, Not(phi.child)) for local in observed)
        if phi.mode is GroupMode.DISTRIBUTED:
            pooled = StateSequence([group_observation(model, phi.group, s) for s in seq])
            return (_forall(model, space, pooled, phi.child)
                    or _forall(model, space, pooled, Not(phi.child)))
        shared = StateSequence([common_observation(model, phi.group, s) for s in seq])
        return (_forall(model, space, shared, phi.child)
                or _forall(model, space, shared, Not(phi.child)))
    if isinstance(phi, GroupKnows):
        return (_holds(model, space, seq, phi.child)
                and _holds(model, space, seq, GroupSees(phi.mode, phi.group, phi.child)))
    if isinstance(phi, GroupBelieves):
        if phi.mode is GroupMode.UNIFORM:
            return all(_forall(model, space, w, phi.child)
                       for w in uniform_perspectives(model, phi.group, seq))
        if phi.mode is GroupMode.DISTRIBUTED:
            return _forall(model, space,
                           distributed_perspective(model, phi.group, seq), phi.child)
        views, _ = common_perspectives(model, phi.group, seq)
        return all(_forall(model, space, w, phi.child) for w in views)
    raise TypeError(f"not a formula node: {phi!r}")
