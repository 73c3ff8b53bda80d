"""Observation models and perspective functions over state sequences.

An observation model says which variables an agent can make out in a state.
From it we derive, for any state sequence, the local sequence an agent is
justified in believing: what it currently sees plus remembered values, with
never-seen variables left absent. Group variants pool observations (the
distributed view) or iterate everyone's views to a fixed point (the common
view).

Every view of s_0..s_t is built by one left-to-right fold over the whole
sequence, from the empty fold state. One step of it needs only a small fold
state (the view's last row, the variables seen but never assigned, and the
input's last values) and the next input state. A `FoldMemo` carries what has
been worked out across builds and observations: which variables a group of
viewers sees in a state, one `State` per view row, one `FoldState` per fold
state, and each step taken, so a step met again is read back rather than
redone. The same memo keeps the views built while one sequence is evaluated,
keyed by viewer group, so the common fixed point, nested views, individual
and group beliefs and several formulas on that sequence share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from .core import (
    EngineError,
    Signature,
    State,
    StateSequence,
    ValidationError,
    Value,
)

PerspectiveSet = FrozenSet[StateSequence]


class AxiomViolation(EngineError):
    """An observation model breaks one of the required axioms."""


class ObservationModel:
    """Visibility relation: which variables an agent can observe in a state.

    Subclasses implement ``sees``. The relation may consult only values
    present in the state it is given, and must be monotone in the state
    (extra assignments can only reveal more), so the derived projection
    ``observe`` satisfies containment, idempotence and monotonicity.

    ``sees`` is deliberately a relation on (possibly partial) states rather
    than a projection: a viewer can recognise *that* someone sees a variable
    (e.g. a peeking flag is visible) even when the variable's value is absent
    from the viewer's own local state. Perspective building relies on this.

    ``sees`` must be a deterministic function of (agent, state, variable):
    perspective building caches its answers per state.
    """

    name = "unnamed"

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
        return sig.state_from_values(tuple(vals))

    def transparent_variables(self) -> FrozenSet[str]:
        """Variables visible to every agent in every state (fast-path hint).

        Must be sound: ``sees`` has to return True for these unconditionally,
        since the engine never asks about them. `check_observation_axioms`
        checks this on its samples.
        """
        return frozenset()


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
# Retrieval
# --------------------------------------------------------------------------

def retrieve_value(seq: StateSequence, ts: int, var: str) -> Optional[Value]:
    """Value of `var` with respect to timestamp `ts`.

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


# --------------------------------------------------------------------------
# Individual and pooled perspectives
# --------------------------------------------------------------------------

_NO_INDICES: FrozenSet[int] = frozenset()


class FoldState:
    """All one step of a view's fold needs besides the next input state.

    `row` is the view's last state. `unresolved` holds the indices of the
    variables the viewers have seen but the input has never assigned. `last`
    is the input's last-assigned row: each variable at its most recent value
    so far. When the input never drops a variable it has assigned, as global
    states and views never do, that is the input's last state itself. A
    `FoldMemo` interns fold states, so equal ones are one object and hash by
    identity.
    """

    __slots__ = ("row", "unresolved", "last")

    def __init__(self, row: State, unresolved: FrozenSet[int], last: State):
        self.row = row
        self.unresolved = unresolved
        self.last = last


class _SignatureMemo:
    """What a memo keeps for one signature, shared by all viewer groups: the
    split of the variables into transparent and gated ones, one `State` per
    view row, and the fold states, interned (`empty` is the one before any
    step, made on the first build). `masks` and `indices` hold one copy of
    each visibility mask and each `unresolved` set: the states met far
    outnumber them."""

    __slots__ = ("sig", "always", "gated", "masks", "rows", "indices", "folds", "empty")

    def __init__(self, model: ObservationModel, sig: Signature):
        transparent = model.transparent_variables()
        self.sig = sig
        self.always = [var in transparent for var in sig.variables]
        self.gated = tuple([(idx, var) for idx, var in enumerate(sig.variables)
                            if var not in transparent])
        self.masks: Dict[Tuple[bool, ...], Tuple[bool, ...]] = {}
        self.rows: Dict[tuple, State] = {}
        self.indices: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self.folds: Dict[tuple, FoldState] = {}
        self.empty: Optional[FoldState] = None

    def start(self) -> FoldState:
        """The fold state before any step."""
        if self.empty is None:
            nothing = self.sig.state_from_values((None,) * len(self.sig.variables))
            self.empty = self.fold(nothing.vals, _NO_INDICES, nothing)
        return self.empty

    def fold(self, row: tuple, unresolved: FrozenSet[int], last: State) -> FoldState:
        """The one fold state with these parts (`row` given as values)."""
        if unresolved:
            unresolved = self.indices.setdefault(unresolved, unresolved)
        view_state = self.rows.get(row)
        if view_state is None:   # a new row, so no fold state holds it yet
            view_state = self.rows[row] = State(self.sig, row)
            found = None
        else:
            found = self.folds.get((row, unresolved, last.vals))
        if found is None:
            # the key holds the canonical row, so a fresh copy is not kept alive
            found = self.folds[(view_state.vals, unresolved, last.vals)] = \
                FoldState(view_state, unresolved, last)
        return found


class _Visibility:
    """What a memo knows about one group of viewers under one signature:
    which variables they see, state by state, and the fold steps their views
    have taken.

    `masks` maps a state's values to one flag per variable. A miss asks the
    model only about the variables that are not transparent, and asks a
    viewer only about those no earlier viewer sees. `steps` maps a fold state
    to a table from an input state's values to the next fold state. The
    table, not the fold state, holds the successors, so no reference cycle
    forms when a fold state steps to itself; and one small table per fold
    state costs less memory than a key tuple per step.
    """

    __slots__ = ("masks", "steps", "shared", "_viewers", "_sees")

    def __init__(self, model: ObservationModel, viewers: Tuple[str, ...],
                 shared: _SignatureMemo):
        if not viewers:
            raise ValidationError("a group must contain at least one agent")
        self.masks: Dict[tuple, Tuple[bool, ...]] = {}
        self.steps: Dict[FoldState, Dict[tuple, FoldState]] = {}
        self.shared = shared
        self._viewers = viewers
        self._sees = model.sees

    def compute(self, state: State) -> Tuple[bool, ...]:
        """The mask of `state`, worked out and stored."""
        sees, viewers = self._sees, self._viewers
        mask = self.shared.always.copy()
        for idx, var in self.shared.gated:
            for agent in viewers:
                if sees(agent, state, var):
                    mask[idx] = True
                    break
        mask = tuple(mask)
        found = self.masks[state.vals] = self.shared.masks.setdefault(mask, mask)
        return found

    def mask(self, state: State) -> Tuple[bool, ...]:
        found = self.masks.get(state.vals)
        return self.compute(state) if found is None else found


def _masked(state: State, mask: Iterable[bool]) -> State:
    return State(state.sig, tuple([val if seen else None for val, seen in zip(state.vals, mask)]))


class FoldMemo:
    """What the fold has worked out, kept across the builds that share it;
    one memo serves one observation model.

    `visibility` maps (signature, viewers) to their `_Visibility`, so `sees`
    is asked once per (viewers, state) and a fold step is taken once per
    (viewers, fold state, input state). `signatures` maps a signature to
    what its viewer groups share: equal view states are one object, and so
    are equal fold states. Masks, rows and steps are keyed by value tuples,
    which say nothing of the signature, so each signature has tables of its
    own. The memo grows with the distinct states, view rows and fold states
    it meets.

    `view` also keeps the views over one sequence, keyed by (viewers,
    input), where an input is that sequence or a view over it. Set `target`
    to the sequence about to be evaluated; the first view asked for after it
    changes drops the views held. While `target` stays None, views are kept
    for as long as the memo.
    """

    __slots__ = ("visibility", "signatures", "target", "_focus", "_views")

    def __init__(self):
        self.visibility: Dict[Tuple[Signature, Tuple[str, ...]], _Visibility] = {}
        self.signatures: Dict[Signature, _SignatureMemo] = {}
        self.target: Optional[StateSequence] = None
        self._focus: Optional[StateSequence] = None
        self._views: Dict[Tuple[Tuple[str, ...], StateSequence], StateSequence] = {}

    def view(self, model: ObservationModel, viewers: Tuple[str, ...], seq: StateSequence,
             build: Callable[..., StateSequence]) -> StateSequence:
        """The pooled view of `viewers` (one agent: an individual view) of
        `seq`, held or made by `build(model, viewers, seq, self)`."""
        if self._focus is not self.target:
            self._focus = self.target
            self._views = {}
        key = (viewers, seq)
        found = self._views.get(key)
        if found is None:
            found = self._views[key] = build(model, viewers, seq, self)
        return found


def _visibility(model: ObservationModel, sig: Signature, viewers: Tuple[str, ...],
                memo: Optional[FoldMemo]) -> _Visibility:
    """The viewers' table in `memo`, made on a miss; a fresh one without a memo."""
    if memo is None:
        memo = FoldMemo()
    found = memo.visibility.get((sig, viewers))
    if found is None:
        shared = memo.signatures.get(sig)
        if shared is None:
            shared = memo.signatures[sig] = _SignatureMemo(model, sig)
        found = memo.visibility[(sig, viewers)] = _Visibility(model, viewers, shared)
    return found


def _believed_sequence(model: ObservationModel, viewers: Tuple[str, ...],
                       seq: StateSequence,
                       memo: Optional[FoldMemo] = None) -> StateSequence:
    """The sequence `viewers`, pooling their observations, believe after
    watching `seq` (one viewer: an individual perspective).

    A left-to-right fold over timestamps from the empty fold state, one
    `_fold_step` per input state. Steps are read from `memo` (a fresh one if
    not given) when it has taken them before.
    """
    sig = seq.sig
    table = None if memo is None else memo.visibility.get((sig, viewers))
    if table is None:
        table = _visibility(model, sig, viewers, memo)
    steps = table.steps
    fold = table.shared.start()
    rows = []
    for state in seq.states:
        after = steps.get(fold)
        found = None if after is None else after.get(state.vals)
        fold = _fold_step(table, fold, state) if found is None else found
        rows.append(fold.row)
    return StateSequence(rows)


def _fold_step(table: _Visibility, fold: FoldState, state: State) -> FoldState:
    """The fold state after `fold` takes in `state`, stored in `table.steps`.

    This applies the retrieval rule to the prefix [s_0..s_t] ending in
    `state`. A variable some viewer sees at t takes its value at t, else the
    input's most recent earlier value. One not seen at t keeps its value
    from t - 1. A variable seen before the input ever assigned it takes the
    input's first later value. A variable never seen stays absent: with no
    sighting there is nothing to justify a value, and filling one in from
    later states would fabricate evidence.
    """
    vals = state.vals
    mask = table.masks.get(vals)
    if mask is None:
        mask = table.compute(state)
    prior, last = fold.row.vals, fold.last.vals
    unresolved = set(fold.unresolved)
    dropped = False   # whether the input left out a variable it assigned before
    row = []
    for idx, seen in enumerate(mask):
        value = vals[idx]
        if value is None:
            old = last[idx]
            if old is not None:
                dropped = True
            if not seen:
                value = prior[idx]
            elif old is None:
                unresolved.add(idx)
            else:
                value = old
        elif seen:
            if unresolved:
                unresolved.discard(idx)
        elif prior[idx] is not None:
            value = prior[idx]
        elif idx in unresolved:
            unresolved.discard(idx)
        else:
            value = None
        row.append(value)
    if dropped:
        state = state.sig.state_from_values(
            tuple([old if given is None else given for given, old in zip(vals, last)]))
    found = table.shared.fold(tuple(row), frozenset(unresolved) if unresolved else _NO_INDICES,
                              state)
    after = table.steps.get(fold)
    if after is None:
        table.steps[fold] = {vals: found}
    else:
        after[vals] = found
    return found


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


def _individual(model: ObservationModel, viewers: Tuple[str, ...], seq: StateSequence,
                memo: FoldMemo) -> StateSequence:
    """The build of a one-agent view for `FoldMemo.view`. It looks up
    `justified_perspective` at call time, so a wrapper installed on that
    name (as the benchmark's tracer does) sees every build."""
    return justified_perspective(model, viewers[0], seq, memo)


def uniform_perspectives(model: ObservationModel, group: Iterable[str],
                         seq: StateSequence,
                         memo: Optional[FoldMemo] = None) -> PerspectiveSet:
    """Everyone's individual perspectives, as a duplicate-free set, read
    through `memo` (a fresh one if not given)."""
    members = tuple(group)
    if not members:
        raise ValidationError("a group must contain at least one agent")
    if memo is None:
        memo = FoldMemo()
    views = set()
    for i in members:
        views.add(memo.view(model, (i,), seq, _individual))
    return frozenset(views)


@dataclass(frozen=True)
class FixedPointStats:
    """How a common-perspective computation converged."""

    iterations: int
    final_size: int


def common_perspectives(model: ObservationModel, group: Iterable[str],
                        seed: PerspectiveSet,
                        memo: Optional[FoldMemo] = None
                        ) -> Tuple[PerspectiveSet, FixedPointStats]:
    """Least fixed point of repeatedly taking everyone's perspectives.

    Each iteration replaces the current set S with the union of all members'
    perspectives of every sequence in S; convergence is reached when the set
    stops changing. One iteration is counted per application, including the
    one that confirms stability. Views are read through `memo` (a fresh one
    if not given), so each (member, sequence) view is built once.
    """
    members = tuple(group)
    if not members:
        raise ValidationError("a group must contain at least one agent")
    views = frozenset(seed)
    if not views:
        raise ValidationError("the seed perspective set must be non-empty")
    lengths = {len(w) for w in views}
    if len(lengths) != 1:
        raise ValidationError("seed sequences must share one length")
    some = next(iter(views))
    bound = 2 ** (len(some.sig.variables) * len(some))
    view = (FoldMemo() if memo is None else memo).view
    iterations = 0
    while True:
        iterations += 1
        grown = set()
        for w in views:
            for i in members:
                grown.add(view(model, (i,), w, _individual))
        frozen = frozenset(grown)
        if frozen == views:
            return frozen, FixedPointStats(iterations, len(frozen))
        if iterations > bound:
            raise EngineError("common perspectives exceeded the convergence bound; "
                              "the observation model likely violates its axioms")
        views = frozen


def common_observation(model: ObservationModel, group: Iterable[str],
                       state: State, memo: Optional[FoldMemo] = None) -> State:
    """Fixed point of intersecting the group's observations of one state.

    Variables not visible to every member are dropped, repeatedly, until the
    remaining sub-state is commonly observed. Each member's visibility comes
    from `memo` when one is given.
    """
    members = tuple(group)
    if not members:
        raise ValidationError("a group must contain at least one agent")
    tables = [_visibility(model, state.sig, (i,), memo) for i in members]
    current = state
    while True:
        nxt = _masked(current, map(all, zip(*(t.mask(current) for t in tables))))
        if nxt == current:
            return current
        current = nxt


def group_observation(model: ObservationModel, group: Iterable[str],
                      state: State, memo: Optional[FoldMemo] = None) -> State:
    """Union of the members' observations of one state (`memo` as for `common_observation`)."""
    return _masked(state, _visibility(model, state.sig, tuple(group), memo).mask(state))


# --------------------------------------------------------------------------
# Axiom checking
# --------------------------------------------------------------------------

def check_observation_axioms(model: ObservationModel, agents: Iterable[str],
                             states: Iterable[State], rng=None,
                             substates_per_state: int = 2) -> None:
    """Verify containment, idempotence and monotonicity on sampled states,
    and that every declared-transparent variable is seen there.

    Raises AxiomViolation with the offending agent/state on the first failure.
    Monotonicity is probed against random sub-states of each sample (pass an
    ``rng`` for reproducibility).
    """
    import random as _random

    rng = rng or _random.Random(0)
    agents = tuple(agents)
    transparent = model.transparent_variables()
    for state in states:
        samples = [state]
        assigned = state.assigned()
        for _ in range(substates_per_state):
            keep = [v for v in assigned if rng.random() < 0.6]
            samples.append(state.restrict(keep))
        for sample in samples:
            for agent in agents:
                for var in sample.sig.variables:
                    if var in transparent and not model.sees(agent, sample, var):
                        raise AxiomViolation(
                            f"{var!r} is declared transparent but agent {agent!r} "
                            f"does not see it in {sample!r}")
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
