"""Breadth-first planning over state histories, held as parent-linked nodes.

Merging nodes on equal last states would be unsound, as a belief reads the
whole history. Yet generated histories can only be equal as siblings, by
induction: the root is unique, children of distinct parents differ in their
prefix, and children of one parent differ exactly when their last states do.
So one set of successor states per expansion finds exactly the duplicates.

A node holds no history. It is the textbook search node (Russell & Norvig,
*Artificial Intelligence: A Modern Approach*, 3rd ed., §3.3.1): a last
state, a link to its parent, the action taken there and its depth, plus its
history's fold states (below). The plan is read back along the links once
the goal is met, and the history only for a judge that reads whole
sequences (`semantics`), so a child costs the same at every depth.

One expansion pops the oldest node of the frontier and, for each action in
declaration order, calls `apply_action` once: it tests the precondition on
the node (one `Evaluator.evaluate` call) and, if that is strictly true and
every effect stays in its domain, returns the child. A child is dropped as
a duplicate or goal-tested (one test per goal, stopping at the first goal
missed) and queued, unless it is at the depth limit: its goal test was its
last work (Russell & Norvig §3.4.1), so it is never queued, and it keeps no
parent alive once tested. Each atom a formula reads is one
`semantics.interpret_atom` call. These three are looked up by name on every
call, never bound in advance, so the benchmark's tracer can wrap them.

An action's effects read only the last state, so one search keeps, per
action, a table from last state to successor state (None where an effect
leaves its domain), and applies the effects once per distinct last state
on which the precondition holds. Its evaluator likewise judges a
belief-free formula once per distinct last state (`Evaluator`), though
each such test is still one `evaluate` call. Both tables live as long as
the one search.

A belief reads views of the whole history, but only through their fold
states (`semantics`). The viewer paths the preconditions and goals reach
are collected once per search, and each node carries its history's fold
state on each of them: the root's walked from the empty fold state, a
child's one fold step per path from its parent's, taken once the child is
kept (not a duplicate). So no view is built for a belief without a common
belief in it; a search with no such belief carries no fold states at all.

When no precondition holds a belief judged on whole view sequences (a
common belief, or a chain past the path bound: `semantics`), a
precondition is judged on a node's last state and fold states alone, and
so is most of an expansion: which actions apply, the successors, the
sibling duplicates and the children's fold states. Such a search expands
each distinct (last state, fold states) once and keeps the expansion for
as long as the search: the kept children as (action, last state, fold
states, and the children generated and precondition tests made up to it),
and how many children it generated and how many tests it made that a
replay does not make again. A later node with that key replays it: it
links the same children to itself and adds the counts to `generated` and
to the evaluator's `external_calls`, calling no `apply_action`. Where the
goals too are judged on fold states, so is a child's goal test, and a
replay calls no `evaluate` either. Where a goal is judged on views, it
reads the child's whole history, so a replay goal-tests each kept child
afresh in action order and, at the first that meets the goal, ends the
search with the counts taken up to that child. Nodes are not merged
(Bolander & Andersen's state key, JANCL 21(1), 2011, used to skip work
only), so every count is the one a fresh expansion would give. An
expansion whose children could reach the node budget is done afresh, so an
abort falls at the action it would; an expansion that meets the goal ends
the search and is never kept.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

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
from .perspectives import FoldState, ObservationModel
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


class SearchNode(namedtuple("SearchNode", "parent action depth folds last")):
    """A node of the search tree: the node it was made from (`parent`, None
    at a root) by the action named `action`, its `depth` (links to the
    root) and its history's `last` state and fold states; a tuple, so
    immutable. `last` comes last, so `node[-1]`, like `history[-1]`, is the
    state a formula is judged on, and `Evaluator.evaluate` takes either.

    `sequence` and `plan` rebuild the history and the plan along the links,
    with a loop, so depth is bounded by the search alone.
    `SearchNode(history, plan, folds=())` builds the chain of nodes along a
    history and the plan that produced it, one action name per step, and
    returns the last; a search makes each child with one link instead.

    `folds` are the fold states along the search evaluator's viewer paths
    (`Evaluator.fold_states`); a node with none has its beliefs' folds
    walked over the history. They are numbered by that evaluator's paths,
    so only that evaluator may apply or test a node that carries some.

    Unlike a tuple, a node compares and hashes by identity, and its `repr`
    shows its action, depth and last state only: neither follows the
    parent links, so neither recurses however deep the node.
    """

    __slots__ = ()

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"SearchNode(action={self.action!r}, depth={self.depth}, last={self.last!r})"

    def __new__(cls, history: StateSequence, plan: Tuple[str, ...] = (),
                folds: Tuple[FoldState, ...] = ()) -> "SearchNode":
        if len(plan) != len(history) - 1:
            raise ValueError(f"a history of {len(history)} states takes a plan of "
                             f"{len(history) - 1} actions, not {len(plan)}")
        node = None
        for depth, state in enumerate(history):
            node = tuple.__new__(cls, (node, plan[depth - 1] if depth else None, depth,
                                       folds if depth == len(plan) else (), state))
        return node

    @property
    def sequence(self) -> StateSequence:
        """The history, from the root's state to this node's."""
        states = []
        node: Optional[SearchNode] = self
        while node is not None:
            states.append(node.last)
            node = node.parent
        states.reverse()
        return StateSequence(states)

    @property
    def plan(self) -> Tuple[str, ...]:
        """The action names from the root to this node."""
        names = []
        node = self
        while node.parent is not None:
            names.append(node.action)
            node = node.parent
        return tuple(reversed(names))


Goal = Tuple[Formula, Ternary]


@dataclass
class PlanResult:
    """Outcome of one search plus its bookkeeping.

    `expanded` counts nodes whose successors were generated; `generated`
    counts every node created, the root included, before duplicate pruning.
    A goal node is recognised when generated, so a goal that already holds
    in the initial state reports expanded = 0. `external_calls` counts every
    precondition and goal test the search asked for, replayed ones included
    (module docstring); `avg_call_ms` is the evaluation time over those
    tests, and a replayed test takes none. So wherever a search replays,
    the paper's "average call time" is not the time one `evaluate` call
    takes: with common-belief goals it averages the goal tests, all made
    afresh, with the replayed precondition tests.
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
    """The node's child by one action, or None if inapplicable.

    The precondition must evaluate to strictly true on the node's history;
    merely-unknown preconditions do not license acting. `successors` is this
    action's table of successor states by last state: read where it holds
    the node's last state, filled where it does not. The precondition reads
    the node's fold states; the child carries none (a search steps them).
    """
    if action.precondition is not None:
        if evaluator.evaluate(node, action.precondition) is not _TRUE:
            return None
    last = node.last
    if successors is None:
        successors = {}
    successor = successors.get(last, _NOT_MET)
    if successor is _NOT_MET:
        successor = successors[last] = _apply_effects(last.sig, last, action.effects)
    if successor is None:
        return None
    # one link to the node: no history or plan is copied
    return tuple.__new__(SearchNode, (node, action.name, node.depth + 1, (), successor))


def breadth_first_plan(model: ObservationModel,
                       actions: Sequence[Action],
                       initial: State,
                       goals: Iterable[Goal],
                       max_depth: int = DEFAULT_MAX_DEPTH,
                       node_budget: Optional[int] = None,
                       time_budget: Optional[float] = None) -> PlanResult:
    """Shortest plan reaching all goal targets, FIFO order, duplicates pruned.

    Only siblings can be duplicates (module docstring), so no set of
    histories is kept, and the frontier holds only nodes below `max_depth`.
    Exhausting all plans of length <= max_depth yields "unsolvable", even
    when the clock passed the time budget during the last expansion, as the
    frontier is then empty and the search complete. Finding the clock past
    the time budget before an expansion, or reaching `node_budget`
    generated nodes (the root counts) with actions left to try, yields
    "aborted" (nothing is proven). Actions go in declaration order, so
    results are deterministic.
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
            if evaluator.evaluate(node, phi) is not target:
                return False
        return True

    history = StateSequence([initial])
    preconditions = [action.precondition for action in actions
                     if action.precondition is not None]
    folds = evaluator.fold_states(history, preconditions + [phi for phi, _ in goals])
    root = SearchNode(history, (), folds)
    expanded = 0
    generated = 1
    if satisfied(root):
        return finish(SOLVED, (), expanded, generated)
    # a node at the depth limit is goal-tested when generated and never
    # queued: it has no work left, and queued it would keep its parents alive
    frontier = deque([root] if max_depth > 0 else ())
    tables = [(action, {}) for action in actions]
    stats = evaluator.stats
    # each finished expansion by its node's (last, folds), where those are
    # all its preconditions read (module docstring): (kept children as
    # (action name, last, folds, children generated and precondition tests
    # made up to it), children generated, tests a replay does not make)
    expansions: Optional[Dict[Tuple[State, Tuple[FoldState, ...]], tuple]] = \
        {} if evaluator._on_folds(preconditions) else None
    # goals judged on views are tested afresh on every child a replay links
    retest = not evaluator._on_folds([phi for phi, _ in goals])
    while frontier:
        if time_budget is not None and time.perf_counter() - start > time_budget:
            return finish(ABORTED, None, expanded, generated)
        node = frontier.popleft()
        expanded += 1
        folds = node.folds
        if expansions is not None:
            key = (node.last, folds)
            entry = expansions.get(key)
            # replayed unless its children could reach the node budget: then
            # it is done afresh, so it aborts at the action it would
            if entry is not None and (node_budget is None or generated + entry[1] < node_budget):
                kept, made, calls = entry
                depth = node.depth + 1
                if retest:
                    for name, last, stepped, made_by, calls_by in kept:
                        child = tuple.__new__(SearchNode, (node, name, depth, stepped, last))
                        if satisfied(child):
                            stats.external_calls += calls_by
                            return finish(SOLVED, child.plan, expanded, generated + made_by)
                        if depth < max_depth:
                            frontier.append(child)
                elif depth < max_depth:
                    for name, last, stepped, _, _ in kept:
                        frontier.append(tuple.__new__(SearchNode,
                                                      (node, name, depth, stepped, last)))
                generated += made
                stats.external_calls += calls
                continue
        generated_before, calls_before = generated, stats.external_calls
        # goal tests made so far in this expansion
        goal_calls = 0
        queued: Dict[State, tuple] = {}
        for action, successors in tables:
            # before every action, so no expansion generates past the budget
            if node_budget is not None and generated >= node_budget:
                return finish(ABORTED, None, expanded, generated)
            child = apply_action(evaluator, action, node, successors)
            if child is None:
                continue
            generated += 1
            last = child.last
            if last in queued:
                continue
            if folds:
                # kept, so its fold states are needed: one step per path
                child = tuple.__new__(SearchNode, (node, child.action, child.depth,
                                                   evaluator.step_folds(folds, last), last))
            tested = stats.external_calls
            queued[last] = (child.action, last, child.folds, generated - generated_before,
                            tested - calls_before - goal_calls)
            if satisfied(child):
                return finish(SOLVED, child.plan, expanded, generated)
            goal_calls += stats.external_calls - tested
            if child.depth < max_depth:
                frontier.append(child)
        if expansions is not None:
            calls = stats.external_calls - calls_before
            expansions[key] = (tuple(queued.values()), generated - generated_before,
                               calls - goal_calls if retest else calls)
    return finish(UNSOLVABLE, None, expanded, generated)
