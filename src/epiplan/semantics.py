"""Three-valued evaluation of epistemic formulas over state sequences.

A formula is judged on the last state of a sequence and on the fold states
of the sequence's views along the viewer paths its beliefs reach
(`perspectives.FoldPaths`): `(B a φ)` reads φ on the last row of a's view,
`(B a (B b φ))` on the last row of b's view of a's view, a D belief on the
pooled view's row and an E belief on each member's row. By prefix-closure a
view's last row is all a belief-free φ reads there, and the fold states
are all that one more state needs, so a search node carries them and a
child's are one fold step from its parent's (`planner`). A plain
`evaluate(seq, φ)` walks them from the empty fold state.

A common belief, and a belief whose child holds one, is judged on whole
view sequences instead: the common fixed point iterates over sequences, and
its statistics count them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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

# GroupMode's members as module globals, as `core` keeps Ternary's: an enum
# member read off its class is a metaclass lookup, paid per group node visited
_COMMON, _UNIFORM, _DISTRIBUTED = GroupMode.COMMON, GroupMode.UNIFORM, GroupMode.DISTRIBUTED
_NEGATED = (_TRUE, _UNKNOWN, _FALSE)   # a verdict's negation, indexed by the verdict
_BELIEF, _COMMON_BELIEF = 1, 2         # the flags `_beliefs` sets

# A judge gives a formula's verdict from (evaluator, sequence, last state,
# folds): the sequence only where a common belief needs it (None on a view
# row), and the folds along the evaluator's paths, indexed by path number.
Judge = Callable[["Evaluator", Optional[StateSequence], State, Sequence[FoldState]], Ternary]


# A formula made ready on one signature, to be judged on a whole sequence:
# its judge, the paths its folds are walked along (ascending, parents
# included), and its verdicts by last state when it holds no belief (None
# otherwise). A plain tuple, which unpacks faster than a named one.
_Judgement = Tuple[Judge, Tuple[int, ...], Optional[Dict[State, Ternary]]]


@dataclass
class EvalStats:
    """Accumulated evaluation statistics.

    `external_calls` counts top-level evaluations; the fixed-point counts
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

    Evaluation is a pure function of (sequence, formula): repeated calls give
    identical truth values and identical fixed-point iteration counts, in any
    order. Besides its `stats`, which can be merged across instances, the
    evaluator keeps for its whole lifetime one `FoldMemo`, one `FoldPaths`
    and each formula it has met, made ready once per signature. The memo
    keeps what the folds have worked out: which variables each viewer group
    sees in each state met so far, and every fold step taken, so a step met
    again is read back. It also holds the views the common fixed point built
    over the sequence of the latest call that needed one. The paths are
    those the formulas' beliefs reach; `(B a φ)`, `(EB (a) φ)` and
    `(DB (a) φ)` reach one path. The memo grows with the distinct states and
    fold states met; the view states themselves are kept by their signature,
    one object per distinct state.

    A belief-free formula reads only the last state of a sequence, so the
    evaluator keeps, for each one it has met, on its own or as the child of
    a belief, its verdict per last state (or view row): such a formula is
    judged once per distinct state, and read back after. These tables grow
    with the distinct states times the belief-free formulas met. A verdict
    read back is still a call: `stats` counts and times it like any other.
    The memos make an evaluator unsafe to share between threads; use one per
    thread.
    """

    def __init__(self, model: ObservationModel):
        self.model = model
        self.stats = EvalStats()
        self._memo = FoldMemo()
        self._paths = FoldPaths()
        # (formula id, signature id) of each formula met, mapped to the pair
        # itself, so that neither id can be recycled, followed by its
        # judgement's three parts
        self._formulas: dict[tuple[int, int], tuple] = {}

    def evaluate(self, seq: StateSequence, phi: Formula,
                 folds: Sequence[FoldState] = ()) -> Ternary:
        """The verdict of `phi` on `seq`. `folds` may give the folds over
        `seq` along this evaluator's paths 0..len(folds)-1, as a search node
        carries them (`fold_states`, `step_folds`); where it does not cover
        `phi`'s paths, they are walked over `seq`."""
        last = seq[-1]
        sig = last.sig
        key = (id(phi), id(sig))
        entry = self._formulas.get(key)
        if entry is None:
            entry = self._formulas[key] = (phi, sig) + self._prepare(phi, sig)
        verdicts = entry[4]
        start = perf_counter()
        try:
            if verdicts is None:
                self._memo.target = seq
                numbers = entry[3]
                if numbers and len(folds) <= numbers[-1]:
                    folds = self._paths.walk(seq, numbers)
                result = entry[2](self, seq, last, folds)
            else:
                result = verdicts.get(last)
                if result is None:
                    result = verdicts[last] = entry[2](self, seq, last, ())
        finally:
            stats = self.stats
            stats.external_calls += 1
            stats.eval_time += perf_counter() - start
        return result

    # -- search nodes -------------------------------------------------------

    def fold_states(self, seq: StateSequence, formulas: Sequence[Formula]
                    ) -> Tuple[FoldState, ...]:
        """The folds over `seq` along every path this evaluator knows, once
        `formulas` are made ready on `seq`'s signature (their paths known)."""
        sig = seq.sig
        for phi in formulas:
            key = (id(phi), id(sig))
            if key not in self._formulas:
                self._formulas[key] = (phi, sig) + self._prepare(phi, sig)
        return tuple(self._paths.walk(seq, range(len(self._paths.tables))))

    def step_folds(self, folds: Tuple[FoldState, ...], state: State) -> Tuple[FoldState, ...]:
        """`folds`, over a sequence along paths 0..len(folds)-1, after the
        sequence is extended by `state`: one fold step per path."""
        return self._paths.advance(folds, state)

    # -- dispatch -----------------------------------------------------------
    #
    # The one dispatch on formula types: each node becomes a judge once per
    # (formula, signature). Judges hold no reference to the evaluator, which
    # holds them, so no reference cycle forms; they are handed it per call.

    def _prepare(self, phi: Formula, sig: Signature) -> _Judgement:
        """`phi`, validated and made ready on `sig`, to be judged on whole
        sequences."""
        beliefs = validate_formula(sig, phi)
        numbers: Set[int] = set()
        judge = self._compile(phi, sig, -1, numbers)
        return judge, tuple(sorted(numbers)), None if beliefs else {}

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
        elif isinstance(phi, GroupSeesVar):
            def judge(ev, seq, last, folds):
                return ev._group_sees(last, phi, None)
        elif isinstance(phi, (GroupSees, GroupKnows)):
            # belief-free below seeing, so the child reads one state alone
            child = self._compile(phi.child, sig, -1, set())

            def judge(ev, seq, last, folds):
                return ev._group_sees(last, phi, child)
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
                    child: Optional[Judge]) -> Ternary:
        """Whether `phi.group` sees `phi.var` or settles `phi.child` (and, to
        know it, the child holds); `child` judges `phi.child`."""
        group = phi.group
        if child is None:
            if phi.var not in last:
                return _UNKNOWN
        else:
            held = child(self, None, last, ())
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
            elif child is None:
                seen = _VERDICT[phi.var in observed]
            else:
                seen = _VERDICT[child(self, None, observed, ()) is not _UNKNOWN]
            verdict = min(verdict, seen)
        return verdict

    # -- believing ----------------------------------------------------------

    def _compile_belief(self, phi: GroupBelieves, sig: Signature, at: int,
                        numbers: Set[int]) -> Judge:
        """A belief without a common belief in it reads the last rows of its
        viewers' paths; any other is judged on whole view sequences."""
        group, mode = phi.group, phi.mode
        below = _beliefs(phi.child)
        if mode is _COMMON or below & _COMMON_BELIEF:
            # only ever met on a whole sequence: a path belief's child holds no C
            return _on_views(phi, self._prepare(phi.child, sig))
        viewers = [(i,) for i in group] if mode is _UNIFORM else [group]
        paths = [self._paths.number(at, _visibility(self.model, sig, members, self._memo))
                 for members in viewers]
        numbers.update(paths)
        if not below:
            # belief-free: the verdict is the row's, kept per row
            child = self._compile(phi.child, sig, -1, set())
            verdicts: Dict[State, Ternary] = {}

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


def _beliefs(phi: Formula) -> int:
    """The flags of the beliefs in `phi`: _BELIEF for any, _COMMON_BELIEF
    for a common one."""
    if isinstance(phi, And):
        return _beliefs(phi.left) | _beliefs(phi.right)
    if isinstance(phi, Not):
        return _beliefs(phi.child)
    if isinstance(phi, GroupBelieves):
        return _beliefs(phi.child) | (_BELIEF | _COMMON_BELIEF if phi.mode is _COMMON
                                      else _BELIEF)
    return 0   # beliefs never sit under seeing or knowledge


def _on_sequence(ev: Evaluator, inner: _Judgement, seq: StateSequence) -> Ternary:
    """`inner`'s verdict on the whole sequence `seq`, as `evaluate` gives it
    but not counted as a call."""
    judge, numbers, verdicts = inner
    last = seq[-1]
    if verdicts is None:
        return judge(ev, seq, last, ev._paths.walk(seq, numbers) if numbers else ())
    found = verdicts.get(last)
    if found is None:
        found = verdicts[last] = judge(ev, seq, last, ())
    return found


def _on_views(phi: GroupBelieves, inner: _Judgement) -> Judge:
    """The judge of a belief on whole view sequences: the pooled view (D),
    each member's (E) or the common fixed point (C), with `inner` judged on
    every distinct view."""
    group, mode = phi.group, phi.mode

    def judge(ev, seq, last, folds):
        if mode is _DISTRIBUTED:
            views = (distributed_perspective(ev.model, group, seq, ev._memo),)
        elif mode is _UNIFORM:
            views = uniform_perspectives(ev.model, group, seq, ev._memo)
        else:
            views, fp = common_perspectives(ev.model, group, seq, ev._memo)
            ev.stats.cf_iteration_counts.append(fp.iterations)
        verdict = _TRUE
        for w in views:
            verdict = min(verdict, _on_sequence(ev, inner, w))
        return verdict
    return judge
