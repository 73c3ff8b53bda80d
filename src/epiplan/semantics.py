"""Three-valued evaluation of epistemic formulas over state sequences."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List

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
    StateSequence,
    Ternary,
    interpret_atom,
    validate_formula,
)
from .perspectives import (
    FoldMemo,
    ObservationModel,
    common_observation,
    common_perspectives,
    distributed_perspective,
    group_observation,
    uniform_perspectives,
)


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
    far, one `State` object per distinct view state, so equal views share
    their states, and every fold step taken, so a view step met again is
    read back; a view of a sequence met before costs one memo hit per state.
    The memo grows with the distinct states and fold states met. It makes an
    evaluator unsafe to share between threads; use one per thread.
    """

    def __init__(self, model: ObservationModel):
        self.model = model
        self.stats = EvalStats()
        self._memo = FoldMemo()
        # (formula id, signature id) of each formula validated, mapped to the
        # pair itself so that neither id can be recycled
        self._checked_formulas: dict[tuple[int, int], tuple[Formula, Signature]] = {}

    def evaluate(self, seq: StateSequence, phi: Formula) -> Ternary:
        sig = seq.states[0].sig
        key = (id(phi), id(sig))
        if key not in self._checked_formulas:
            validate_formula(sig, phi)
            self._checked_formulas[key] = (phi, sig)
        start = perf_counter()
        self._memo.target = seq
        try:
            result = self._eval(seq, phi)
        finally:
            stats = self.stats
            stats.external_calls += 1
            stats.eval_time += perf_counter() - start
        return result

    # -- dispatch -----------------------------------------------------------

    def _eval(self, seq: StateSequence, phi: Formula) -> Ternary:
        if isinstance(phi, Atom):
            return interpret_atom(seq.states[-1], phi)
        if isinstance(phi, And):
            left = self._eval(seq, phi.left)
            if left is Ternary.FALSE:
                return Ternary.FALSE
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
        last, group = seq.last, phi.group
        if isinstance(phi, GroupSeesVar):
            if phi.var not in last:
                return Ternary.UNKNOWN
        else:
            held = self._eval(seq, phi.child)
            if held is Ternary.UNKNOWN or held is Ternary.FALSE and isinstance(phi, GroupKnows):
                return held
        # an observation is None (unknown) where the members it needs are absent
        if phi.mode is GroupMode.COMMON:
            observations = [common_observation(self.model, group, last, self._memo)
                            if all(i in last for i in group) else None]
        else:
            viewers = [(i,) for i in group] if phi.mode is GroupMode.UNIFORM else [group]
            observations = [group_observation(self.model, members, last, self._memo)
                            if any(i in last for i in members) else None for members in viewers]
        verdict = Ternary.TRUE
        for observed in observations:
            if observed is None:
                seen = Ternary.UNKNOWN
            elif isinstance(phi, GroupSeesVar):
                seen = Ternary.from_bool(phi.var in observed)
            else:
                decided = self._eval(StateSequence([observed]), phi.child)
                seen = Ternary.from_bool(decided is not Ternary.UNKNOWN)
            verdict = min(verdict, seen)
        return verdict

    # -- believing ----------------------------------------------------------

    def _group_believes(self, seq: StateSequence, phi: GroupBelieves) -> Ternary:
        if phi.mode is GroupMode.DISTRIBUTED:
            pooled = self._memo.view(self.model, phi.group, seq, distributed_perspective)
            return self._eval(pooled, phi.child)
        if phi.mode is GroupMode.UNIFORM:
            views = uniform_perspectives(self.model, phi.group, seq, self._memo)
        else:
            views, fp = common_perspectives(self.model, phi.group, frozenset([seq]), self._memo)
            self.stats.cf_iteration_counts.append(fp.iterations)
        verdict = Ternary.TRUE
        for w in views:
            verdict = min(verdict, self._eval(w, phi.child))
        return verdict
