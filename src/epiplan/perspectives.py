"""Observation models and perspective functions over state sequences.

An observation model says which variables an agent can make out in a state.
From it we derive, for any state sequence, the local sequence an agent is
justified in believing: what it currently sees plus remembered values, with
never-seen variables left absent. Group variants pool observations (the
distributed view) or iterate everyone's views to a fixed point (the common
view).

Every view of s_0..s_t is built by one left-to-right fold over the whole
sequence, from the empty fold state. One step of it needs only a small fold
state (the view's last row, the bitmask of the variables seen but never
assigned, and the input's last values) and the next input state, and is one
merge of two rows: a row picker for a bitmask of variables takes those from
the input and the rest from the view's last row, with no loop over
variables. A `FoldMemo` carries what has been worked out across builds and
observations: which variables a group of viewers sees, as a bitmask, by the
values of the variables their visibility reads (the model's gate
variables), and each step taken, keyed by (fold state, input state), so a
step met again is read back rather than redone; equal fold states are one
object.
The memo also holds the views the common fixed point builds, so fixed
points over the same sequences share them until the memo's owner empties
its `views`.

Views are prefix-closed: the view of s_0..s_t is the first t + 1 rows of the
view of any longer sequence. So a view need not be built to be read. A
`FoldPaths` numbers viewer paths (chains of viewer groups: a's view, b's view
of a's view, ...) and steps a tuple of fold states, one per path, by one
input state: the fold states of a sequence's views after one more state.
A group's view of its own view is that view, so no path repeats a group
twice in a row, and the common fixed point never builds such a view.

Every perspective function takes (model, agent or group, seq, memo=None) and
returns one view of `seq` (`justified_perspective`, `distributed_perspective`)
or a set of views (`uniform_perspectives`; `common_perspectives`, the fixed
point from {seq}, with its statistics). A group holds at least one agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .core import (
    EngineError,
    Signature,
    State,
    StateSequence,
    ValidationError,
)

# A duplicate-free set of views in the order they were first met: the keys of
# a dict, which compare equal to any set holding the same views
PerspectiveSet = AbstractSet[StateSequence]


class AxiomViolation(EngineError):
    """An observation model breaks one of the required axioms."""


class ObservationModel:
    """Visibility relation: which variables an agent can observe in a state.

    Subclasses implement ``sees``, the one primitive of visibility, and may
    declare ``gate_variables``. The engine asks ``sees`` about every
    variable, even one that every agent always sees. The relation may
    consult only values present in the state it is given, and must be
    monotone in the state (extra assignments can only reveal more), so the
    derived projection ``observe`` satisfies containment, idempotence and
    monotonicity.

    ``sees`` is deliberately a relation on (possibly partial) states rather
    than a projection: a viewer can recognise *that* someone sees a variable
    (e.g. a peeking flag is visible) even when the variable's value is absent
    from the viewer's own local state. Perspective building relies on this.

    ``sees`` must be a deterministic function of (agent, state, variable):
    perspective building caches its answers per gate projection of a state
    (``gate_variables``).
    """

    def sees(self, agent: str, state: State, var: str) -> bool:
        raise NotImplementedError

    def observe(self, agent: str, state: State) -> State:
        """The part of `state` the agent can see (always a sub-state): the
        reference projection, which the engine reads from a `FoldMemo`."""
        sig = state.sig
        vals = list(state.vals)
        for idx, var in enumerate(sig.variables):
            if vals[idx] is not None and not self.sees(agent, state, var):
                vals[idx] = None
        return State(sig, tuple(vals))

    def gate_variables(self, agent: str) -> Optional[FrozenSet[str]]:
        """The variables ``sees(agent, state, var)`` may read, for any `var`;
        None (the default) for every variable.

        Must be sound: two states that agree on these give the same answers,
        since the engine asks once per distinct projection of a state onto
        its viewers' gates. `check_observation_axioms` checks on its samples
        that restricting a state to the agent's gates never changes ``sees``.
        """
        return None


_MODEL_FACTORIES: Dict[str, Callable[[Signature, list], ObservationModel]] = {}


def register_model(name: str):
    def wrap(factory: Callable[[Signature, list], ObservationModel]):
        _MODEL_FACTORIES[name] = factory
        return factory
    return wrap


def make_model(name: str, sig: Signature, config: Optional[list] = None) -> ObservationModel:
    try:
        factory = _MODEL_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_MODEL_FACTORIES)) or "none"
        raise ValidationError(f"unknown observation model {name!r} (registered: {known})") from None
    return factory(sig, config or [])


# --------------------------------------------------------------------------
# Individual and pooled perspectives
# --------------------------------------------------------------------------

def _members(group: Iterable[str]) -> Tuple[str, ...]:
    """`group` as a tuple of viewers, of which there must be at least one."""
    members = tuple(group)
    if not members:
        raise ValidationError("a group must contain at least one agent")
    return members


class FoldState(NamedTuple):
    """All one step of a view's fold needs besides the next input state.

    `row` is the view's last state. `unresolved` is a bitmask over the
    signature's variables, as `State.bits` is: bit i is set when the viewers
    have seen variable i but the input has never assigned it. `last` is the
    input's last-assigned row: each variable at its most recent value so
    far. When the input never drops a variable it has assigned, as global
    states and views never do, that is the input's last state itself.
    """

    row: State
    unresolved: int
    last: State


class _Visibility:
    """What a memo knows about one group of viewers under one signature:
    which variables they see, by the gate projection of a state, and the
    fold steps their views have taken.

    `masks` maps a state's projection onto the viewers' gate variables (the
    union of `ObservationModel.gate_variables`; every variable if one of
    them declares none) to the mask of the variables they see, a bitmask as
    `State.bits` is. So `sees` is asked once per distinct projection rather
    than once per state. A miss asks the model about every variable, viewer
    by viewer, until one of them sees it. `steps` maps (fold state, input
    state) to the next fold state. Under tracemalloc (Python 3.11), one
    pass of the benchmark's bundled workload peaks at 1.58 MB with this
    table against 1.44 MB with one table per fold state, and one
    eval-traces pass at 1.09 against 1.19 MB. `folds` holds each distinct fold state met, so equal
    ones are one object; without it the bundled pass peaks at 1.77 MB.
    `start` is the fold state before any step. The tables hang off this
    object, not off fold states, so a step back to its own fold state forms
    no reference cycle.
    """

    __slots__ = ("masks", "steps", "folds", "start", "_viewers", "_variables", "_sees", "_key")

    def __init__(self, model: ObservationModel, sig: Signature, viewers: Tuple[str, ...]):
        self._viewers = _members(viewers)
        self._variables = sig.variables
        # the projection of a state's values that keys its mask: the values
        # of the viewers' gate variables, or all of them
        gates = [model.gate_variables(agent) for agent in self._viewers]
        index = sig.index
        read = range(len(index)) if None in gates else \
            [index[var] for var in frozenset().union(*gates) if var in index]
        self._key = itemgetter(*read) if read else lambda vals: ()
        self.masks: Dict[object, int] = {}
        self.steps: Dict[Tuple[FoldState, State], FoldState] = {}
        nothing = State(sig, sig.pickers.absent)
        self.start = FoldState(nothing, 0, nothing)
        self.folds: Dict[FoldState, FoldState] = {self.start: self.start}
        self._sees = model.sees

    def mask(self, state: State) -> int:
        """The mask of `state`: read back, or worked out and stored."""
        key = self._key(state.vals)
        found = self.masks.get(key)
        if found is None:
            sees, viewers = self._sees, self._viewers
            mask = 0
            for idx, var in enumerate(self._variables):
                for agent in viewers:
                    if sees(agent, state, var):
                        mask |= 1 << idx
                        break
            found = self.masks[key] = mask
        return found


def _masked(state: State, mask: int) -> State:
    """`state` with only the values of the variables in `mask`, a bitmask
    as `State.bits` is, of any width."""
    sig = state.sig
    return State(sig, sig.pickers[mask](state.vals + sig.pickers.absent))


class FoldMemo:
    """What the fold has worked out, kept across the builds that share it;
    one memo serves one observation model.

    `visibility` maps (signature, viewers) to their `_Visibility`, so `sees`
    is asked once per (viewers, gate projection of a state) and a fold step
    is taken once per (viewers, fold state, input state). The memo grows
    with the distinct states and fold states it meets.

    `views` holds the one-agent views the common fixed point builds, keyed
    by (agent, input), where an input is the sequence a fixed point starts
    from or a view over it. They stay until the memo's owner empties the
    table, as an `Evaluator` does at the start of each `evaluate` call.
    """

    __slots__ = ("visibility", "views")

    def __init__(self):
        self.visibility: Dict[Tuple[Signature, Tuple[str, ...]], _Visibility] = {}
        self.views: Dict[Tuple[str, StateSequence], StateSequence] = {}


def _visibility(model: ObservationModel, sig: Signature, viewers: Tuple[str, ...],
                memo: Optional[FoldMemo]) -> _Visibility:
    """The viewers' table in `memo`, made on a miss; a fresh one without a memo."""
    if memo is None:
        memo = FoldMemo()
    found = memo.visibility.get((sig, viewers))
    if found is None:
        found = memo.visibility[(sig, viewers)] = _Visibility(model, sig, viewers)
    return found


def _believed_sequence(model: ObservationModel, viewers: Tuple[str, ...],
                       seq: StateSequence,
                       memo: Optional[FoldMemo] = None) -> StateSequence:
    """The sequence `viewers`, pooling their observations, believe after
    watching `seq` (one viewer: an individual perspective).

    A left-to-right fold over timestamps from the empty fold state (`_fold`),
    through `memo` (a fresh one if not given).
    """
    return StateSequence(_fold(_visibility(model, seq[0].sig, viewers, memo), seq)[0])


def _fold(table: _Visibility, inputs: Iterable[State]) -> Tuple[List[State], FoldState]:
    """The rows of the fold over `inputs` from the empty fold state, one
    `_fold_step` per input state, and the fold state it ends in. A step
    stored in `table` before is read back."""
    steps = table.steps
    fold = table.start
    rows = []
    for state in inputs:
        fold = steps.get((fold, state)) or _fold_step(table, fold, state)
        rows.append(fold.row)
    return rows, fold


def _fold_step(table: _Visibility, fold: FoldState, state: State) -> FoldState:
    """The fold state after `fold` takes in `state`, stored in `table.steps`
    under (`fold`, `state`); an equal fold state met before is the one
    stored.

    This applies the retrieval rule to the prefix [s_0..s_t] ending in
    `state`. A variable some viewer sees at t takes its value at t, else the
    input's most recent earlier value. One not seen at t keeps its value
    from t - 1. A variable seen before the input ever assigned it takes the
    input's first later value. A variable never seen stays absent: with no
    sighting there is nothing to justify a value, and filling one in from
    later states would fabricate evidence.

    So the step is one merge of two rows, with no loop over variables: the
    new row takes the input's value (as the step reads it, below) for each
    variable seen at t or unresolved and now assigned, and the previous
    row's for every other; a variable seen at t that the input never
    assigned becomes unresolved, and one it assigns stops being so.
    """
    mask = table.mask(state)
    # the input as the step reads it: `state`, or, where `state` drops a
    # variable it assigned before, `state` over the input's last values
    sig, given, last = state.sig, state, fold.last
    if last.bits & ~state.bits:
        given = State(sig, sig.pickers[state.bits](state.vals + last.vals))
    assigned, unresolved = given.bits, fold.unresolved
    pick = sig.pickers[mask | (unresolved & assigned)]
    found = FoldState(State(sig, pick(given.vals + fold.row.vals)),
                      (unresolved | mask) & ~assigned, given)
    table.steps[fold, state] = found = table.folds.setdefault(found, found)
    return found


class FoldPaths:
    """Numbered viewer paths, and the stepping of their fold states.

    A path is a chain of viewer groups: the view its first group has of a
    sequence, the view its second group has of that view, and so on. A path
    is added by its parent's number (the path one group shorter; -1 for
    none) and the table of its last group, and numbered in the order added,
    so a parent's number is below its children's. Folds over a sequence
    along paths 0..n-1 are n fold states, a path's at its index; stepping
    them in number order steps each parent before the paths that read its
    new row.
    """

    __slots__ = ("tables", "parents", "_numbers")

    def __init__(self):
        self.tables: List[_Visibility] = []
        self.parents: List[int] = []
        self._numbers: Dict[Tuple[int, _Visibility], int] = {}

    def number(self, parent: int, table: _Visibility) -> int:
        """The number of the path that extends `parent` by `table`'s
        viewers, added on first use. A viewer group's view of its own view
        is that view, so a parent whose last group is `table`'s is its own
        extension: `parent` itself."""
        if parent >= 0 and self.tables[parent] is table:
            return parent
        key = (parent, table)
        found = self._numbers.get(key)
        if found is None:
            found = self._numbers[key] = len(self.tables)
            self.tables.append(table)
            self.parents.append(parent)
        return found

    def advance(self, folds: Tuple[FoldState, ...], state: State) -> Tuple[FoldState, ...]:
        """The folds along paths 0..len(folds)-1 of a sequence, after the
        sequence is extended by `state`: one step per path, in number order.
        A path with no parent steps on `state`, any other on its parent's
        new row."""
        stepped: List[FoldState] = []
        for fold, table, parent in zip(folds, self.tables, self.parents):
            seen = state if parent < 0 else stepped[parent].row
            stepped.append(table.steps.get((fold, seen)) or _fold_step(table, fold, seen))
        return tuple(stepped)

    def walk(self, seq: StateSequence, numbers: Sequence[int]) -> List[Optional[FoldState]]:
        """The folds over `seq` along `numbers` (ascending, each path's
        parent among them), from the empty fold state: a list indexed by
        path number, None at the paths not walked. Each path folds over its
        parent's rows, or over `seq`."""
        folds: List[Optional[FoldState]] = [None] * (numbers[-1] + 1 if numbers else 0)
        rows: Dict[int, List[State]] = {}
        for number in numbers:
            parent = self.parents[number]
            rows[number], folds[number] = _fold(self.tables[number],
                                                seq if parent < 0 else rows[parent])
        return folds


def justified_perspective(model: ObservationModel, agent: str,
                          seq: StateSequence,
                          memo: Optional[FoldMemo] = None) -> StateSequence:
    """The local sequence `agent` believes after watching `seq`."""
    return _believed_sequence(model, (agent,), seq, memo=memo)


def distributed_perspective(model: ObservationModel, group: Iterable[str],
                            seq: StateSequence,
                            memo: Optional[FoldMemo] = None) -> StateSequence:
    """The pooled sequence of a group: the union of members' observations
    drives visibility, so the most recent sighting by anyone wins."""
    return _believed_sequence(model, tuple(group), seq, memo=memo)


def uniform_perspectives(model: ObservationModel, group: Iterable[str],
                         seq: StateSequence,
                         memo: Optional[FoldMemo] = None) -> PerspectiveSet:
    """Everyone's individual perspectives, as a duplicate-free set in the
    members' order, built through `memo` (a fresh one if not given)."""
    members = _members(group)
    if memo is None:
        memo = FoldMemo()
    return dict.fromkeys([justified_perspective(model, i, seq, memo) for i in members]).keys()


@dataclass(frozen=True)
class FixedPointStats:
    """How a common-perspective computation converged."""

    iterations: int
    final_size: int


def common_perspectives(model: ObservationModel, group: Iterable[str],
                        seq: StateSequence,
                        memo: Optional[FoldMemo] = None
                        ) -> Tuple[PerspectiveSet, FixedPointStats]:
    """Least fixed point of repeatedly taking everyone's perspectives,
    starting from {seq}.

    Each iteration replaces the current set S with the union of all members'
    perspectives of every sequence in S; convergence is reached when the set
    stops changing. One iteration is counted per application, including the
    one that confirms stability. Views are held in `memo.views` (a fresh
    memo if not given), so each (member, sequence) view is built once, by
    `justified_perspective` looked up at call time (a wrapper installed on
    that name, as the benchmark's tracer does, sees every build). A
    member's view of its own view is that view, so it is held as soon as
    the view is built, and not built: the wrapper does not see it.

    Each set of views is walked, and the fixed point returned, in the order
    its views were first met, so the count of builds is the same from run
    to run. Every view after the first iterate is some member's view, held
    as that member's own, so each iterate from the second on contains the
    one before it. One that does not (a wrong view held as a member's own
    makes it happen) raises `EngineError`, as does passing the far bound
    ``2 ** (variables * length)`` on the number of iterations.
    """
    members = _members(group)
    views = {seq: None}.keys()
    bound = 2 ** (len(seq.sig.variables) * len(seq))
    if memo is None:
        memo = FoldMemo()
    held = memo.views
    iterations = 0
    while True:
        iterations += 1
        grown = {}
        for w in views:
            for i in members:
                found = held.get((i, w))
                if found is None:
                    found = held[(i, w)] = justified_perspective(model, i, w, memo)
                    held[(i, found)] = found
                grown[found] = None
        if grown.keys() == views:
            return grown.keys(), FixedPointStats(iterations, len(grown))
        if iterations > 1 and not views <= grown.keys():
            raise EngineError("common perspectives lost a view from one iteration to the "
                              "next; a view held as a member's own view is not its own view")
        if iterations > bound:
            raise EngineError("common perspectives exceeded the convergence bound; "
                              "the observation model likely violates its axioms")
        views = grown.keys()


def common_observation(model: ObservationModel, group: Iterable[str],
                       state: State, memo: Optional[FoldMemo] = None) -> State:
    """Fixed point of intersecting the group's observations of one state.

    Variables not visible to every member are dropped, repeatedly, until the
    remaining sub-state is commonly observed. Each member's visibility comes
    from `memo` when one is given.
    """
    tables = [_visibility(model, state.sig, (i,), memo) for i in _members(group)]
    current = state
    while True:
        nxt = _masked(current, reduce(and_, [table.mask(current) for table in tables]))
        if nxt is current:
            return current
        current = nxt


def group_observation(model: ObservationModel, group: Iterable[str],
                      state: State, memo: Optional[FoldMemo] = None) -> State:
    """Union of the members' observations of one state (`memo` as for `common_observation`)."""
    return _masked(state, _visibility(model, state.sig, tuple(group), memo).mask(state))


# --------------------------------------------------------------------------
# Axiom checking
# --------------------------------------------------------------------------

_SUBSTATES_PER_STATE = 2   # random sub-states `check_observation_axioms` probes


def check_observation_axioms(model: ObservationModel, agents: Iterable[str],
                             states: Iterable[State], rng=None) -> None:
    """Verify containment, idempotence and monotonicity on sampled states;
    that restricting a sample to an agent's declared gate variables never
    changes what it sees; and that each agent's view, and the agents'
    pooled view, of the sampled states (one sequence, in order) is its own
    view of itself.

    Raises AxiomViolation with the offending agent/state on the first failure.
    Monotonicity is probed against random sub-states of each sample (pass an
    ``rng`` for reproducibility).
    """
    import random as _random

    rng = rng or _random.Random(0)
    agents = tuple(agents)
    states = list(states)
    gates = {agent: model.gate_variables(agent) for agent in agents}
    for state in states:
        samples = [state]
        assigned = state.assigned()
        for _ in range(_SUBSTATES_PER_STATE):
            keep = [v for v in assigned if rng.random() < 0.6]
            samples.append(state.restrict(keep))
        for sample in samples:
            for agent in agents:
                gated = None if gates[agent] is None else sample.restrict(gates[agent])
                if gated is not None:
                    for var in sample.sig.variables:
                        if model.sees(agent, gated, var) != model.sees(agent, sample, var):
                            raise AxiomViolation(
                                f"agent {agent!r} sees {var!r} differently in {sample!r} and "
                                f"in {gated!r}, its restriction to the declared gate variables")
                seen = model.observe(agent, sample)
                if model.observe(agent, sample) != seen:
                    raise AxiomViolation(
                        f"observation of {sample!r} by {agent!r} is not deterministic")
                if not seen.subset_of(sample):
                    raise AxiomViolation(
                        f"containment fails for agent {agent!r} on {sample!r}: got {seen!r}")
                again = model.observe(agent, seen)
                if again != seen:
                    raise AxiomViolation(
                        f"idempotence fails for agent {agent!r} on {sample!r}: "
                        f"{seen!r} -> {again!r}")
        for sample in samples[1:]:
            for agent in agents:
                small = model.observe(agent, sample)
                large = model.observe(agent, state)
                if not small.subset_of(large):
                    raise AxiomViolation(
                        f"monotonicity fails for agent {agent!r}: "
                        f"O({sample!r}) = {small!r} is not within O({state!r}) = {large!r}")
    if not states:
        return
    seq = StateSequence(states)
    groups = [(agent,) for agent in agents] + ([agents] if len(agents) > 1 else [])
    for viewers in groups:
        view = _believed_sequence(model, viewers, seq)
        again = _believed_sequence(model, viewers, view)
        for t, (row, seen) in enumerate(zip(view, again)):
            if row is not seen:
                raise AxiomViolation(
                    f"the view of {', '.join(viewers)} of the sampled states is not its "
                    f"own view of itself: at step {t}, {row!r} -> {seen!r}")
