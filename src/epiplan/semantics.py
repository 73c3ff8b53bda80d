"""Three-valued evaluation of epistemic formulas over state sequences.

A formula is judged on the last state of a sequence and on the fold states
of the sequence's views along the viewer paths its beliefs reach
(`perspectives.FoldPaths`): `(B a φ)` reads φ on the last row of a's view,
`(B a (B b φ))` on the last row of b's view of a's view, a D belief on the
pooled view's row and an E belief on each member's row. By prefix-closure a
view's last row is all a belief-free φ reads there, and the fold states
are all that one more state needs, so a search node carries them and a
child's are one fold step from its parent's (`planner`). A plain
`evaluate(seq, φ)` walks them from the empty fold state. A search node holds
no history, so `evaluate` takes the node itself and reads its last state and
fold states; a judge that reads whole sequences rebuilds the history along
the node's parent links (`_history`).

A belief is judged on whole view sequences instead when its chain reaches
too many paths, as a common belief always does (the common fixed point
iterates over sequences, and its statistics count them); the belief's own
count, kept by `_paths_reached`, decides which (`Evaluator._compile_belief`).
A formula with no belief judged on views is thus judged on a search node's
last state and fold states alone (`Evaluator._on_folds`), so a search may
expand each distinct (last state, fold states) once (`planner`).

Each fact the evaluator keeps lives in one table: a record per formula,
a count per belief, a verdict per state for a belief-free formula, and, for
one `evaluate` call, a verdict per view for a child with beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    And,
    Atom,
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
    Ternary,
    interpret_atom,
    validate_formula,
)
from .core import _FALSE, _TRUE, _UNKNOWN, _VERDICT
from .perspectives import (
    FoldMemo,
    FoldPaths,
    FoldState,
    ObservationModel,
    _visibility,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    uniform_perspectives,
)

if TYPE_CHECKING:
    from .planner import SearchNode

# GroupMode's members as module globals, as `core` keeps Ternary's: an enum
# member read off its class is a metaclass lookup, paid per group node visited
_COMMON, _UNIFORM, _DISTRIBUTED = GroupMode.COMMON, GroupMode.UNIFORM, GroupMode.DISTRIBUTED
_NEGATED = (_TRUE, _UNKNOWN, _FALSE)   # a verdict's negation, indexed by the verdict

# The most viewer paths a belief chain (a belief judged on the sequence and
# the beliefs below it) may reach and still be judged on them; each path is
# stepped at every search node, and k nested E beliefs over a group of g
# reach g + g² + ... + g^k. A chain past it is judged on views (`_on_views`),
# and its child decides afresh. `_paths_reached` saturates one above it, and
# counts a common belief as that much, so it is always judged on views.
_MAX_BELIEF_PATHS = 64
_OVER_BOUND = _MAX_BELIEF_PATHS + 1

# What a formula is judged on: a history, or a search node, whose history is
# rebuilt only where a judge reads it (`_history`). Either's [-1] is its
# last state.
History = Union[StateSequence, "SearchNode"]

# A judge gives a formula's verdict from (evaluator, history, last state,
# folds): the history only where a common belief needs it (None on a view
# row), and the folds along the evaluator's paths, indexed by path number.
Judge = Callable[["Evaluator", Optional[History], State, Sequence[FoldState]], Ternary]


# A formula's record on one signature: the formula (which pins the id that
# keys it), the signature, its judge on whole sequences, the paths its folds
# are walked along (ascending, parents included) and, when it holds no
# belief, its verdicts by state (else None). A plain tuple, which unpacks
# faster than a named one.
_Record = Tuple[Formula, Signature, Judge, Tuple[int, ...], Optional[Dict[State, Ternary]]]


@dataclass
class EvalStats:
    """Accumulated evaluation statistics.

    `external_calls` counts top-level evaluations: each `evaluate` call,
    and each test a search replays without one (`planner`). `eval_time` is
    the time spent in `evaluate`, so `avg_call_ms` is it over all those
    tests, and a replayed test adds none: in a search with common-belief
    goals, the replayed precondition tests lower it. The fixed-point counts
    record, for every common-belief evaluation, how many iterations the
    common-perspective computation took.
    """

    external_calls: int = 0
    eval_time: float = 0.0
    cf_iteration_counts: List[int] = field(default_factory=list)

    @property
    def common_max(self) -> int:
        return max(self.cf_iteration_counts, default=0)

    @property
    def common_avg(self) -> float:
        counts = self.cf_iteration_counts
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def avg_call_ms(self) -> float:
        if not self.external_calls:
            return 0.0
        return self.eval_time / self.external_calls * 1000.0

    def merge(self, other: "EvalStats") -> None:
        self.external_calls += other.external_calls
        self.eval_time += other.eval_time
        self.cf_iteration_counts.extend(other.cf_iteration_counts)


class Evaluator:
    """Evaluates formulas against state sequences under one observation model.

    Evaluation is a pure function of (sequence, formula): repeated calls
    give identical truth values and identical fixed-point iteration counts,
    in any order. Besides its `stats`, which can be merged across instances,
    the evaluator keeps for its whole lifetime one `FoldMemo`, one
    `FoldPaths` and one record of each formula it has met, on the signature
    it met the formula on last; `evaluate` finds the record with one lookup
    by the formula's id, which no other formula can take while the record
    holds the formula, and a formula met on another signature gets a fresh
    record in place of the old. The memo keeps what the folds have worked
    out: which variables each viewer group sees, per projection of a state
    onto the group's gate variables, and every fold step taken, so a step
    met again is read back. It also holds the views the common fixed point
    builds for one `evaluate` call, as the evaluator holds the verdicts each
    child with beliefs gets on views for that call (`_on_views`): a call
    that judges a belief empties both first. The paths are those the
    formulas' beliefs reach; `(B a φ)`, `(EB (a) φ)` and `(DB (a) φ)` reach
    one path, and a belief chain is judged on paths only while it reaches
    at most `_MAX_BELIEF_PATHS`. The memo grows with the
    distinct states and fold states met; the view states themselves are kept
    by their signature, one object per distinct state.

    A belief-free formula reads only the last state of a sequence, so its
    record keeps its verdict per state: one table, shared by every reader
    of the formula, be it `evaluate`, a belief over it (on view rows or
    views) or seeing and knowledge over it (on the state they are judged on
    and on its observations). Such a formula is judged once per distinct
    state and read back after. These tables grow with the distinct states
    times the belief-free formulas met. A verdict read back is still a
    call: `stats` counts and times it like any other. The memos make an
    evaluator unsafe to share between threads; use one per thread.
    """

    def __init__(self, model: ObservationModel):
        self.model = model
        self.stats = EvalStats()
        self._memo = FoldMemo()
        self._paths = FoldPaths()
        # the record of each formula met, on the signature it was met on
        # last, and `_paths_reached` of each belief in them and of its child,
        # both by the formula's id (the records keep the formulas, so the
        # ids stay theirs)
        self._formulas: Dict[int, _Record] = {}
        self._reached: Dict[int, Tuple[int, int]] = {}
        # the verdicts `_on_views` found for a record on a view during one
        # `evaluate` call, by (record id, view); emptied with `_memo.views`
        self._view_verdicts: Dict[Tuple[int, StateSequence], Ternary] = {}

    def evaluate(self, seq: History, phi: Formula) -> Ternary:
        """The verdict of `phi` on `seq`, a history or a search node. A
        node's folds are those over its history along this evaluator's
        paths 0..len(folds)-1 (`fold_states`, `step_folds`); where they do
        not cover `phi`'s paths, as on a history, the paths are walked over
        the history."""
        last = seq[-1]
        record = self._formulas.get(id(phi))
        if record is None or record[1] is not last.sig:
            record = self._record(phi, last.sig)
        verdicts = record[4]
        start = perf_counter()
        try:
            if verdicts is None:
                self._memo.views.clear()
                self._view_verdicts.clear()
                result = _on_sequence(self, record, seq)
            else:
                result = verdicts.get(last)
                if result is None:
                    result = verdicts[last] = record[2](self, seq, last, ())
        finally:
            stats = self.stats
            stats.external_calls += 1
            stats.eval_time += perf_counter() - start
        return result

    # -- search nodes -------------------------------------------------------

    def fold_states(self, seq: StateSequence, formulas: Sequence[Formula]
                    ) -> Tuple[FoldState, ...]:
        """The folds over `seq` along every path this evaluator knows, once
        `formulas` are recorded on `seq`'s signature (their paths known)."""
        for phi in formulas:
            self._record(phi, seq.sig)
        return tuple(self._paths.walk(seq, range(len(self._paths.tables))))

    def step_folds(self, folds: Tuple[FoldState, ...], state: State) -> Tuple[FoldState, ...]:
        """`folds`, over a sequence along paths 0..len(folds)-1, after the
        sequence is extended by `state`: one fold step per path."""
        return self._paths.advance(folds, state)

    # -- dispatch -----------------------------------------------------------
    #
    # The one dispatch on formula types: each node becomes a judge once per
    # record it is part of, and a formula judged on whole sequences or
    # states, rather than on a path's rows, has one record. Judges hold no
    # reference to the evaluator, which holds them, so no reference cycle
    # forms; they are handed it per call.

    def _record(self, phi: Formula, sig: Signature, reached: Optional[int] = None) -> _Record:
        """The record of `phi` on `sig`. A formula has one record: met first,
        or met on another signature than its record's, `phi` is validated,
        counted (`_paths_reached`, which keeps the counts of each belief in
        it), compiled to be judged on whole sequences and stored, replacing
        the record it had. `reached`, `phi`'s count, is passed where `phi` is
        part of a formula validated and counted on `sig` already: each
        formula is walked once by each."""
        record = self._formulas.get(id(phi))
        if record is None or record[1] is not sig:
            if reached is None:
                validate_formula(sig, phi)
                reached = _paths_reached(phi, self._reached)
            numbers: Set[int] = set()
            judge = self._compile(phi, sig, -1, numbers)
            record = self._formulas[id(phi)] = (phi, sig, judge, tuple(sorted(numbers)),
                                                None if reached else {})
        return record

    def _on_folds(self, formulas: Sequence[Formula]) -> bool:
        """Whether every one of `formulas`, recorded already (as by
        `fold_states`), is judged on a history's last state and its folds
        alone (`_no_views`)."""
        return all(_no_views(phi, self._reached) for phi in formulas)

    def _compile(self, phi: Formula, sig: Signature, at: int, numbers: Set[int]) -> Judge:
        """The judge of `phi` on the view along path `at` (-1: the sequence
        itself); the paths its beliefs read are added to `numbers`."""
        if isinstance(phi, Atom):
            def judge(ev, seq, last, folds):
                return interpret_atom(last, phi)
        elif isinstance(phi, And):
            left = self._compile(phi.left, sig, at, numbers)
            right = self._compile(phi.right, sig, at, numbers)

            def judge(ev, seq, last, folds):
                verdict = left(ev, seq, last, folds)
                if verdict is _FALSE:
                    return _FALSE
                return min(verdict, right(ev, seq, last, folds))
        elif isinstance(phi, Not):
            child = self._compile(phi.child, sig, at, numbers)

            def judge(ev, seq, last, folds):
                return _NEGATED[child(ev, seq, last, folds)]
        elif isinstance(phi, (GroupSeesVar, GroupSees, GroupKnows)):
            # belief-free below seeing, so a child reads one state alone
            inner = None if isinstance(phi, GroupSeesVar) else self._record(phi.child, sig, 0)

            def judge(ev, seq, last, folds):
                return ev._group_sees(last, phi, inner)
        elif isinstance(phi, GroupBelieves):
            return self._compile_belief(phi, sig, at, numbers)
        else:
            raise TypeError(f"not a formula node: {phi!r}")
        return judge

    # -- seeing -------------------------------------------------------------
    #
    # An individual operator is the UNIFORM mode over a group of one. Only
    # belief-free formulas may appear under seeing and knowledge, and those
    # read the last state alone, so every mode judges on observations of the
    # last state, read from the evaluator's memo: each member's own (E), the
    # pooled (D) or the common (C) one.

    def _group_sees(self, last: State, phi: GroupSeesVar | GroupSees | GroupKnows,
                    inner: Optional[_Record]) -> Ternary:
        """Whether `phi.group` sees `phi.var` or settles `phi.child` (and, to
        know it, the child holds); `inner` is `phi.child`'s record, whose
        table keeps the child's verdict on `last` and on each observation."""
        group = phi.group
        if inner is None:
            if phi.var not in last:
                return _UNKNOWN
        else:
            held = _on_state(self, inner, last)
            if held is _UNKNOWN or held is _FALSE and isinstance(phi, GroupKnows):
                return held
        # an observation is None (unknown) where the members it needs are absent
        if phi.mode is _COMMON:
            observations = [common_observation(self.model, group, last, self._memo)
                            if all(i in last for i in group) else None]
        else:
            viewers = [(i,) for i in group] if phi.mode is _UNIFORM else [group]
            observations = [group_observation(self.model, members, last, self._memo)
                            if any(i in last for i in members) else None for members in viewers]
        verdict = _TRUE
        for observed in observations:
            if observed is None:
                seen = _UNKNOWN
            elif inner is None:
                seen = _VERDICT[phi.var in observed]
            else:
                seen = _VERDICT[_on_state(self, inner, observed) is not _UNKNOWN]
            verdict = min(verdict, seen)
        return verdict

    # -- believing ----------------------------------------------------------

    def _compile_belief(self, phi: GroupBelieves, sig: Signature, at: int,
                        numbers: Set[int]) -> Judge:
        """A belief reads the last rows of its viewers' paths while the
        paths it reaches (`_paths_reached`) number at most
        `_MAX_BELIEF_PATHS`, and is judged on whole view sequences past it,
        as a common belief always is. A belief below an in-bound one reaches
        fewer paths, so only a chain's top is judged on views. A child with
        beliefs read on rows gets no record: compiled on the sequence, it
        would add paths that every search node steps."""
        reached, below = self._reached[id(phi)]   # below 0: the child is belief-free
        if not _on_paths(reached):
            return _on_views(phi, sig, below)
        viewers = [(i,) for i in phi.group] if phi.mode is _UNIFORM else [phi.group]
        paths = [self._paths.number(at, _visibility(self.model, sig, members, self._memo))
                 for members in viewers]
        numbers.update(paths)
        if not below:
            # belief-free: the verdict is the row's, read from the child's record
            _, _, child, _, verdicts = self._record(phi.child, sig, 0)

            def judge(ev, seq, last, folds):
                verdict = _TRUE
                for number in paths:
                    row = folds[number].row
                    found = verdicts.get(row)
                    if found is None:
                        found = verdicts[row] = child(ev, None, row, ())
                    if found is not _TRUE:
                        if found is _FALSE:
                            return _FALSE
                        verdict = _UNKNOWN
                return verdict
            return judge
        children = tuple((number, self._compile(phi.child, sig, number, numbers))
                         for number in paths)

        def judge(ev, seq, last, folds):
            verdict = _TRUE
            for number, child in children:
                found = child(ev, None, folds[number].row, folds)
                if found is not _TRUE:
                    if found is _FALSE:
                        return _FALSE
                    verdict = _UNKNOWN
            return verdict
        return judge


def _on_paths(reached: int) -> bool:
    """Whether a belief whose chain reaches `reached` paths
    (`_paths_reached`) is judged on its paths' rows, not on views."""
    return reached <= _MAX_BELIEF_PATHS


def _paths_reached(phi: Formula, table: Dict[int, Tuple[int, int]]) -> int:
    """How many viewer paths the beliefs in `phi` reach, up to
    `_OVER_BOUND`; a common belief counts as that. A path is counted once
    per belief that reaches it, and a group's view of its own view, which
    `FoldPaths.number` folds into the view's path, counts as a path of its
    own, so the count is never below the number of distinct paths. 0
    means `phi` holds no belief and reads only the last state of a
    sequence. Each belief's count in `phi` goes to `table`, by the
    belief's id, next to its child's, so one walk counts every belief."""
    if isinstance(phi, GroupBelieves):
        groups = len(phi.group) if phi.mode is _UNIFORM else 1
        below = _paths_reached(phi.child, table)
        reached = _OVER_BOUND if phi.mode is _COMMON else min(groups * (1 + below), _OVER_BOUND)
        table[id(phi)] = (reached, below)
        return reached
    if isinstance(phi, Not):
        return _paths_reached(phi.child, table)
    if isinstance(phi, And):
        return min(_paths_reached(phi.left, table) + _paths_reached(phi.right, table), _OVER_BOUND)
    return 0


def _no_views(phi: Formula, table: Dict[int, Tuple[int, int]]) -> bool:
    """Whether no belief in `phi` is judged on views, by the counts
    `_paths_reached` kept in `table`; a belief's count bounds those of the
    beliefs below it, and seeing and knowledge hold none."""
    if isinstance(phi, GroupBelieves):
        return _on_paths(table[id(phi)][0])
    if isinstance(phi, Not):
        return _no_views(phi.child, table)
    if isinstance(phi, And):
        return _no_views(phi.left, table) and _no_views(phi.right, table)
    return True


def _on_state(ev: Evaluator, record: _Record, state: State) -> Ternary:
    """A belief-free `record`'s verdict on `state`, read from its table."""
    verdicts = record[4]
    found = verdicts.get(state)
    if found is None:
        found = verdicts[state] = record[2](ev, None, state, ())
    return found


def _history(seq: History) -> StateSequence:
    """`seq` itself, or the history a search node rebuilds along its parent
    links (`planner.SearchNode.sequence`)."""
    return seq if isinstance(seq, StateSequence) else seq.sequence


def _on_sequence(ev: Evaluator, record: _Record, seq: History) -> Ternary:
    """`record`'s verdict on the whole sequence `seq`, as `evaluate` gives
    it but not counted as a call; `seq` as `evaluate` takes it."""
    if record[4] is not None:
        return _on_state(ev, record, seq[-1])
    numbers = record[3]
    folds = () if isinstance(seq, StateSequence) else seq.folds
    if numbers and len(folds) <= numbers[-1]:
        seq = _history(seq)
        folds = ev._paths.walk(seq, numbers)
    return record[2](ev, seq, seq[-1], folds)


def _on_views(phi: GroupBelieves, sig: Signature, below: int) -> Judge:
    """The judge of a belief on whole view sequences: the pooled view (D),
    each member's (E) or the common fixed point (C), with the child's
    record judged on every distinct view; a search node's history is
    rebuilt for them. `below` is the child's `_paths_reached`. The record is
    made in the judge's first call, so the paths its beliefs reach are
    numbered only once a view needs them: they are walked over views, never
    stepped at a search node.

    A child with beliefs keeps its verdict on each view for the rest of the
    `evaluate` call (`Evaluator._view_verdicts`), as a belief-free one keeps
    it in its record's table, so a chain past the path bound judges each
    distinct view once per level, not once per view above it, and a child
    that holds a common belief runs its fixed point once per distinct view."""
    group, mode, child = phi.group, phi.mode, phi.child
    inner: Optional[_Record] = None
    keep = below > 0

    def judge(ev, seq, last, folds):
        nonlocal inner
        seq = _history(seq)
        if mode is _DISTRIBUTED:
            views = (distributed_perspective(ev.model, group, seq, ev._memo),)
        elif mode is _UNIFORM:
            views = uniform_perspectives(ev.model, group, seq, ev._memo)
        else:
            views, fp = common_perspectives(ev.model, group, seq, ev._memo)
            ev.stats.cf_iteration_counts.append(fp.iterations)
        inner = inner or ev._record(child, sig, below)
        kept, key = ev._view_verdicts, id(inner)
        verdict = _TRUE
        for w in views:
            if keep:
                found = kept.get((key, w))
                if found is None:
                    found = kept[key, w] = _on_sequence(ev, inner, w)
            else:
                found = _on_sequence(ev, inner, w)
            verdict = min(verdict, found)
        return verdict
    return judge
