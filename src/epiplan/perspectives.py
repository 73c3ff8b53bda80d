"""Observation models and perspective functions over state sequences.

An observation model says which variables an agent can make out in a state.
From it we derive, for any state sequence, the local sequence an agent is
justified in believing: what it currently sees plus remembered values, with
never-seen variables left absent. Group variants pool observations (the
distributed view) or iterate everyone's views to a fixed point (the common
view).

A view of s_0..s_t depends only on that prefix, so views are built by one
left-to-right fold, and `PerspectiveCache` extends the views of a sequence's
one-step prefix by the last state instead of rebuilding them. A `FoldMemo`
carries what has been worked out across builds and observations: which
variables a group of viewers sees in a state, and one `State` per view row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple, Union

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
_UNREAD = object()   # marks an input value that is still to be read back


class Perspective(StateSequence):
    """A believed sequence, as built by `_believed_sequence`.

    `unresolved` holds the indices of the variables the viewer has seen but
    the input has never assigned. With the last state and the input, it is
    all the next fold step needs.
    """

    __slots__ = ("unresolved",)

    def __init__(self, states: Iterable[State], unresolved: FrozenSet[int],
                 parent: Optional[StateSequence] = None):
        super().__init__(states)
        self.unresolved = unresolved
        self.parent = parent


class _Visibility:
    """Which variables a group of viewers sees, state by state, under one
    signature and one observation model.

    `masks` maps a state's values to one flag per variable. A miss asks the
    model only about the variables that are not transparent, and asks a
    viewer only about those no earlier viewer sees.
    """

    __slots__ = ("masks", "_viewers", "_sees", "_always", "_gated")

    def __init__(self, model: ObservationModel, sig: Signature,
                 viewers: Tuple[str, ...]):
        if not viewers:
            raise ValidationError("a group must contain at least one agent")
        transparent = model.transparent_variables()
        self.masks: Dict[tuple, Tuple[bool, ...]] = {}
        self._viewers = viewers
        self._sees = model.sees
        self._always = [var in transparent for var in sig.variables]
        self._gated = tuple([(idx, var) for idx, var in enumerate(sig.variables)
                             if var not in transparent])

    def compute(self, state: State) -> Tuple[bool, ...]:
        """The mask of `state`, worked out and stored."""
        sees, viewers = self._sees, self._viewers
        mask = self._always.copy()
        for idx, var in self._gated:
            for agent in viewers:
                if sees(agent, state, var):
                    mask[idx] = True
                    break
        found = self.masks[state.vals] = tuple(mask)
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
    is asked once per (viewers, state). `rows` maps a signature to a table
    from a view row's values to the one `State` holding them, so equal view
    states are one object and compare by identity. Both tables are keyed by
    value tuples, which say nothing of the signature, so each signature has
    tables of its own.
    """

    __slots__ = ("visibility", "rows")

    def __init__(self):
        self.visibility: Dict[Tuple[Signature, Tuple[str, ...]], _Visibility] = {}
        self.rows: Dict[Signature, Dict[tuple, State]] = {}


def _visibility(model: ObservationModel, sig: Signature, viewers: Tuple[str, ...],
                memo: Optional[FoldMemo]) -> _Visibility:
    """The viewers' table in `memo`, made on a miss; a fresh one without a memo."""
    if memo is None:
        return _Visibility(model, sig, viewers)
    found = memo.visibility.get((sig, viewers))
    if found is None:
        found = memo.visibility[(sig, viewers)] = _Visibility(model, sig, viewers)
    return found


def _believed_sequence(model: ObservationModel, viewers: Tuple[str, ...],
                       seq: StateSequence,
                       before: Optional[Perspective] = None,
                       memo: Optional[FoldMemo] = None) -> Perspective:
    """The sequence `viewers`, pooling their observations, believe after
    watching `seq` (one viewer: an individual perspective).

    A left-to-right fold over timestamps that applies the retrieval rule to
    the prefix [s_0..s_t]. A variable some viewer sees at t takes its value
    at t, else the input's most recent earlier value; one not seen at t keeps
    its value from t - 1. A variable seen before the input ever assigned it
    takes the input's first later value. A variable never seen stays absent:
    with no sighting there is nothing to justify a value, and filling one in
    from later states would fabricate evidence.

    Without `before` this is the fold from t = 0. With `before`, the same
    viewers' view of `seq.parent`, it is the one step for the last state.
    `memo` (a fresh one if not given) supplies visibility and view states.
    """
    sig = seq.sig
    if memo is None:
        memo = FoldMemo()
    visibility = memo.visibility.get((sig, viewers))
    if visibility is None:
        visibility = _visibility(model, sig, viewers, memo)
    masks = visibility.masks
    rows = memo.rows.get(sig)
    if rows is None:
        rows = memo.rows[sig] = {}
    states = seq.states
    if before is None:
        start, prior, unresolved = 0, (None,) * len(sig.variables), set()
        # the input's last value of each variable before t
        last: list = [None] * len(sig.variables)
    else:
        start, prior = len(states) - 1, before.last.vals
        unresolved = set(before.unresolved)
        last = [_UNREAD] * len(sig.variables)
    built = []
    for t in range(start, len(states)):
        state = states[t]
        vals = state.vals
        mask = masks.get(vals)
        if mask is None:
            mask = visibility.compute(state)
        row = []
        for idx, seen in enumerate(mask):
            given = value = vals[idx]
            if seen:
                if value is None:
                    value = last[idx]
                    if value is _UNREAD:
                        value = _last_value(states, start, idx)
                    if value is None:
                        unresolved.add(idx)
                elif unresolved:
                    unresolved.discard(idx)
            elif prior[idx] is not None:
                value = prior[idx]
            elif idx in unresolved:
                if value is not None:
                    unresolved.discard(idx)
            else:
                value = None
            if given is not None:
                last[idx] = given
            row.append(value)
        row = tuple(row)
        view_state = rows.get(row)
        if view_state is None:
            view_state = rows[row] = sig.state_from_values(row)
        prior = view_state.vals
        built.append(view_state)
    flags = frozenset(unresolved) if unresolved else _NO_INDICES
    if before is None:
        return Perspective(built, flags)
    return Perspective(before.states + tuple(built), flags, before)


def _last_value(states: Tuple[State, ...], end: int, idx: int) -> Optional[Value]:
    """The value of variable `idx` in the last of states[:end] that assigns it."""
    for t in range(end - 1, -1, -1):
        value = states[t].vals[idx]
        if value is not None:
            return value
    return None


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


Viewer = Union[str, Tuple[str, ...]]


class PerspectiveCache:
    """Perspectives over the sequence being evaluated and its one-step prefix.

    Entries map (viewer, input) to the viewer's view of the input; a viewer
    is an agent name or a group of pooled agents. Set `target` to the
    sequence about to be evaluated. The first request after it changes
    re-focuses the cache, keeping only the entries over the new target and
    over its `parent`. A view is as long as its input, so an entry's length
    tells which of the two it is over.

    A miss on an input with a `parent` builds the view of the parent (kept,
    so that siblings share it) and extends it by one state. Every view built
    from scratch comes from the `build` function passed in. All builds share
    the cache's `memo`, which outlives re-focusing.
    """

    __slots__ = ("model", "target", "memo", "_focus", "_views")

    def __init__(self, model: ObservationModel):
        self.model = model
        self.target: Optional[StateSequence] = None
        self.memo = FoldMemo()
        self._focus: Optional[StateSequence] = None
        self._views: Dict[Tuple[Viewer, StateSequence], Perspective] = {}

    def get(self, viewer: Viewer, seq: StateSequence,
            build: Callable[[ObservationModel, Viewer, StateSequence, FoldMemo],
                            Perspective]
            ) -> Perspective:
        if self._focus is not self.target:
            self._refocus()
        views = self._views
        key = (viewer, seq)
        found = views.get(key)
        if found is None:
            parent = seq.parent
            if parent is None:
                found = build(self.model, viewer, seq, self.memo)
            else:
                before = views.get((viewer, parent))
                if before is None:
                    before = views[(viewer, parent)] = build(self.model, viewer, parent,
                                                             self.memo)
                viewers = (viewer,) if isinstance(viewer, str) else viewer
                found = _believed_sequence(self.model, viewers, seq, before, self.memo)
            views[key] = found
        return found

    def _refocus(self) -> None:
        old = self._focus
        new = self._focus = self.target
        if not self._views:
            return
        if old is None or new is None:
            self._views.clear()
            return
        # an old level (the old target or its prefix) survives if it is one
        # of the new levels
        levels = (new, new.parent)
        keep = {len(seq) for seq in (old, old.parent) if seq is not None and seq in levels}
        self._views = {key: view for key, view in self._views.items() if len(view) in keep}


def _cached_perspective(model: ObservationModel, agent: str, seq: StateSequence,
                        cache: Optional[PerspectiveCache]) -> StateSequence:
    if cache is None:
        return justified_perspective(model, agent, seq)
    return cache.get(agent, seq, justified_perspective)


def uniform_perspectives(model: ObservationModel, group: Iterable[str],
                         seq: StateSequence,
                         cache: Optional[PerspectiveCache] = None) -> PerspectiveSet:
    """Everyone's individual perspectives, as a duplicate-free set."""
    members = tuple(group)
    if not members:
        raise ValidationError("a group must contain at least one agent")
    return frozenset(_cached_perspective(model, i, seq, cache) for i in members)


@dataclass(frozen=True)
class FixedPointStats:
    """How a common-perspective computation converged."""

    iterations: int
    final_size: int


def common_perspectives(model: ObservationModel, group: Iterable[str],
                        seed: PerspectiveSet,
                        cache: Optional[PerspectiveCache] = None
                        ) -> Tuple[PerspectiveSet, FixedPointStats]:
    """Least fixed point of repeatedly taking everyone's perspectives.

    Each iteration replaces the current set S with the union of all members'
    perspectives of every sequence in S; convergence is reached when the set
    stops changing. One iteration is counted per application, including the
    one that confirms stability.
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
    iterations = 0
    while True:
        iterations += 1
        grown = set()
        for w in views:
            for i in members:
                grown.add(_cached_perspective(model, i, w, cache))
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
