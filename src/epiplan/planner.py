"""Breadth-first planning over full state histories.

Merging nodes on equal last states would be unsound, as a belief reads the
whole history. Yet generated histories can only be equal as siblings, by
induction: the root is unique, children of distinct parents differ in their
prefix, and children of one parent differ exactly when their last states do.
So one set of successor states per expansion finds exactly the duplicates.

One expansion pops the oldest node of the frontier and, for each action in
declaration order, calls `apply_action` once: it evaluates the precondition
on the node's history (one `Evaluator.evaluate` call) and, if that is
strictly true and every effect stays in its domain, returns the child. A
child is dropped as a duplicate or goal-tested (one `evaluate` per goal,
stopping at the first goal missed) and queued. Each atom a formula reads is
one `semantics.interpret_atom` call. These three are looked up by name on
every call, never bound in advance, so the benchmark's tracer can wrap them.

An action's effects read only the last state, so one search keeps, per
action, a table from last state to successor state (None where an effect
leaves its domain), and applies the effects once per distinct last state
on which the precondition holds. Its evaluator likewise judges a
belief-free formula once per distinct last state (`Evaluator`), though
every test is still one `evaluate` call. Both tables live as long as the
one search.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Formula,
    Signature,
    State,
    StateSequence,
    Ternary,
    ValidationError,
    Value,
    _TRUE,
)
from .perspectives import ObservationModel
from .semantics import Evaluator

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
ABORTED = "aborted"

# search depth limit when neither the caller nor the problem file sets one
DEFAULT_MAX_DEPTH = 12

# marks a last state a successor table has not met; None means inapplicable
_NOT_MET = object()


@dataclass(frozen=True)
class Effect:
    """One assignment of an action: set a constant, copy a variable, or add."""

    var: str
    kind: str  # "set" | "copy" | "add"
    operand: object

    def __post_init__(self):
        if self.kind not in ("set", "copy", "add"):
            raise ValidationError(f"unknown effect kind {self.kind!r}")


@dataclass(frozen=True)
class Action:
    name: str
    precondition: Optional[Formula]
    effects: Tuple[Effect, ...]


class SearchNode(NamedTuple):
    """A history and the plan that produced it; a tuple, so immutable."""

    sequence: StateSequence
    plan: Tuple[str, ...]


Goal = Tuple[Formula, Ternary]


@dataclass
class PlanResult:
    """Outcome of one search plus its bookkeeping.

    `expanded` counts nodes whose successors were generated; `generated`
    counts every node created, the root included, before duplicate pruning.
    A goal node is recognised when generated, so a goal that already holds
    in the initial state reports expanded = 0.
    """

    status: str
    plan: Optional[Tuple[str, ...]]
    expanded: int
    generated: int
    external_calls: int
    avg_call_ms: float
    common_max: int
    common_avg: float
    total_time: float

    @property
    def plan_length(self) -> Optional[int]:
        return None if self.plan is None else len(self.plan)


def _apply_effects(sig: Signature, state: State,
                   effects: Tuple[Effect, ...]) -> Optional[State]:
    """Successor values, or None when any effect leaves its declared domain."""
    index = sig.index
    vals = list(state.vals)
    for eff in effects:
        idx, kind = index[eff.var], eff.kind
        if kind == "set":
            new: Optional[Value] = eff.operand  # type: ignore[assignment]
        elif kind == "copy":
            new = vals[index[eff.operand]]  # type: ignore[index]
        else:
            current = vals[idx]
            if current is None:
                return None
            new = current + eff.operand  # type: ignore[operator]
        if new is None or not sig.in_domain(eff.var, new):
            return None
        vals[idx] = new
    return State(sig, tuple(vals))


def apply_action(evaluator: Evaluator, action: Action, node: SearchNode,
                 successors: Optional[Dict[State, Optional[State]]] = None
                 ) -> Optional[SearchNode]:
    """Extend the node by one action, or None if inapplicable.

    The precondition must evaluate to strictly true on the node's history;
    merely-unknown preconditions do not license acting. `successors` is this
    action's table of successor states by last state: read where it holds
    the node's last state, filled where it does not.
    """
    seq = node.sequence
    if action.precondition is not None:
        if evaluator.evaluate(seq, action.precondition) is not _TRUE:
            return None
    last = seq[-1]
    if successors is None:
        successors = {}
    successor = successors.get(last, _NOT_MET)
    if successor is _NOT_MET:
        successor = successors[last] = _apply_effects(last.sig, last, action.effects)
    if successor is None:
        return None
    return SearchNode(seq.extend(successor), node.plan + (action.name,))


def breadth_first_plan(model: ObservationModel,
                       actions: Sequence[Action],
                       initial: State,
                       goals: Iterable[Goal],
                       max_depth: int = DEFAULT_MAX_DEPTH,
                       node_budget: Optional[int] = None,
                       time_budget: Optional[float] = None) -> PlanResult:
    """Shortest plan reaching all goal targets, FIFO order, duplicates pruned.

    Only siblings can be duplicates (module docstring), so no history is held
    outside the frontier. Exhausting all plans of length <= max_depth yields
    "unsolvable"; running past the time budget, or reaching `node_budget`
    generated nodes (the root counts) with actions left to try, yields
    "aborted" (nothing is proven). Actions go in declaration order, so results are deterministic.
    """
    sig = initial.sig
    missing = [v for v in sig.variables if v not in initial]
    if missing:
        raise ValidationError(f"initial state must be global; missing: {', '.join(missing)}")
    goals = tuple(goals)
    evaluator = Evaluator(model)
    start = time.perf_counter()

    def finish(status: str, plan: Optional[Tuple[str, ...]],
               expanded: int, generated: int) -> PlanResult:
        stats = evaluator.stats
        return PlanResult(
            status=status,
            plan=plan,
            expanded=expanded,
            generated=generated,
            external_calls=stats.external_calls,
            avg_call_ms=stats.avg_call_ms,
            common_max=stats.common_max,
            common_avg=stats.common_avg,
            total_time=time.perf_counter() - start,
        )

    def satisfied(node: SearchNode) -> bool:
        for phi, target in goals:
            if evaluator.evaluate(node.sequence, phi) is not target:
                return False
        return True

    root = SearchNode(StateSequence([initial]), ())
    expanded = 0
    generated = 1
    if satisfied(root):
        return finish(SOLVED, (), expanded, generated)
    frontier = deque([root])
    tables = [(action, {}) for action in actions]
    while frontier:
        if time_budget is not None and time.perf_counter() - start > time_budget:
            return finish(ABORTED, None, expanded, generated)
        node = frontier.popleft()
        if len(node.plan) >= max_depth:
            continue
        expanded += 1
        queued = set()
        for action, successors in tables:
            # before every action, so no expansion generates past the budget
            if node_budget is not None and generated >= node_budget:
                return finish(ABORTED, None, expanded, generated)
            child = apply_action(evaluator, action, node, successors)
            if child is None:
                continue
            generated += 1
            if child.sequence[-1] in queued:
                continue
            queued.add(child.sequence[-1])
            if satisfied(child):
                return finish(SOLVED, child.plan, expanded, generated)
            frontier.append(child)
    return finish(UNSOLVABLE, None, expanded, generated)
