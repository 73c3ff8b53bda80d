"""Three-valued evaluation of epistemic formulas over state sequences."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

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
    ObservationModel,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    uniform_perspectives,
)

# GroupMode's members as module globals, as `core` keeps Ternary's: an enum
# member read off its class is a metaclass lookup, paid per group node visited
_COMMON, _UNIFORM, _DISTRIBUTED = GroupMode.COMMON, GroupMode.UNIFORM, GroupMode.DISTRIBUTED


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
    evaluator keeps one `FoldMemo` for its whole lifetime. It holds the views
    over the sequence of the latest call that needed one, keyed by viewer
    group, so several formulas on one sequence share them, and an agent's
    view is one entry whether B, EB or DB asks for it. Each view is one fold
    over the whole sequence, and the memo also keeps what the folds have
    worked out: which variables each viewer group sees in each state met so
    far, and every fold step taken, so a view step met again is read back;
    a view of a sequence met before costs one memo hit per state. The memo
    grows with the distinct states and fold states met; the view states
    themselves are kept by their signature, one object per distinct state.

    Only a belief reads more than the last state of a sequence, so the
    evaluator also keeps, for each belief-free formula it has met, its
    verdict per last state: such a formula is evaluated once per distinct
    last state, and a sequence ending in that state reads the verdict back.
    This table grows with the distinct last states times the belief-free
    formulas met. A verdict read back is still a call: `stats` counts and
    times it like any other. The memos make an evaluator unsafe to share
    between threads; use one per thread.
    """

    def __init__(self, model: ObservationModel):
        self.model = model
        self.stats = EvalStats()
        self._memo = FoldMemo()
        # (formula id, signature id) of each formula validated, mapped to the
        # pair itself, so that neither id can be recycled, and to the
        # formula's verdict per last state, or None when it holds a belief
        self._formulas: dict[tuple[int, int],
                             tuple[Formula, Signature, Optional[dict[State, Ternary]]]] = {}

    def evaluate(self, seq: StateSequence, phi: Formula) -> Ternary:
        last = seq[-1]
        sig = last.sig
        key = (id(phi), id(sig))
        entry = self._formulas.get(key)
        if entry is None:
            entry = self._formulas[key] = (
                phi, sig, None if validate_formula(sig, phi) else {})
        verdicts = entry[2]
        start = perf_counter()
        try:
            if verdicts is None:
                self._memo.target = seq
                result = self._eval(seq, phi)
            else:
                result = verdicts.get(last)
                if result is None:
                    result = verdicts[last] = self._eval(seq, phi)
        finally:
            stats = self.stats
            stats.external_calls += 1
            stats.eval_time += perf_counter() - start
        return result

    # -- dispatch -----------------------------------------------------------

    def _eval(self, seq: StateSequence, phi: Formula) -> Ternary:
        if isinstance(phi, Atom):
            return interpret_atom(seq[-1], phi)
        if isinstance(phi, And):
            left = self._eval(seq, phi.left)
            if left is _FALSE:
                return _FALSE
            return min(left, self._eval(seq, phi.right))
        if isinstance(phi, Not):
            return self._eval(seq, phi.child).negate()
        if isinstance(phi, (GroupSeesVar, GroupSees, GroupKnows)):
            return self._group_sees(seq, phi)
        if isinstance(phi, GroupBelieves):
            return self._group_believes(seq, phi)
        raise TypeError(f"not a formula node: {phi!r}")

    # -- seeing -------------------------------------------------------------
    #
    # An individual operator is the UNIFORM mode over a group of one. Only
    # belief-free formulas may appear under seeing and knowledge, and those
    # read the last state alone, so every mode judges on observations of the
    # last state, read from the evaluator's memo: each member's own (E), the
    # pooled (D) or the common (C) one.

    def _group_sees(self, seq: StateSequence,
                    phi: GroupSeesVar | GroupSees | GroupKnows) -> Ternary:
        """Whether `phi.group` sees `phi.var` or settles `phi.child` (and, to
        know it, the child holds)."""
        last, group = seq[-1], phi.group
        if isinstance(phi, GroupSeesVar):
            if phi.var not in last:
                return _UNKNOWN
        else:
            held = self._eval(seq, phi.child)
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
            elif isinstance(phi, GroupSeesVar):
                seen = _VERDICT[phi.var in observed]
            else:
                decided = self._eval(StateSequence([observed]), phi.child)
                seen = _VERDICT[decided is not _UNKNOWN]
            verdict = min(verdict, seen)
        return verdict

    # -- believing ----------------------------------------------------------

    def _group_believes(self, seq: StateSequence, phi: GroupBelieves) -> Ternary:
        if phi.mode is _DISTRIBUTED:
            pooled = self._memo.view(self.model, phi.group, seq, distributed_perspective)
            return self._eval(pooled, phi.child)
        if phi.mode is _UNIFORM:
            views = uniform_perspectives(self.model, phi.group, seq, self._memo)
        else:
            views, fp = common_perspectives(self.model, phi.group, seq, self._memo)
            self.stats.cf_iteration_counts.append(fp.iterations)
        verdict = _TRUE
        for w in views:
            verdict = min(verdict, self._eval(w, phi.child))
        return verdict
