"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the engine's modules from the outside,
replacing each name in the module that looks it up at call time, and
records a span per call: name, start, end and the enclosing span. Leaf
calls that happen millions of times (observation models' `sees`, atom
interpretation) are only counted and timed, not stored as spans. Spans stay
in memory and are written out once, by `write_spans`, at the end of a run.

A span's self time is its duration minus the time its direct children
cover; children run inside their parent and one at a time, so that is the
sum of their durations.
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

# evaluate() calls are split by the span that made them
EVAL_ROLES = {"planner.apply_action": "precondition",
              "planner.breadth_first_plan": "goal",
              "op": "formula"}


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "states")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.states = 0


class Tracer:
    """Installs span-recording wrappers on one imported engine."""

    def __init__(self, engine):
        self.engine = engine
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # frame: [name, span index, start, time covered by direct children]
        self.stack: List[list] = [["root", -1, 0.0, 0.0]]
        self.stats: Dict[str, _Stat] = {}
        self.eval_ms: Dict[str, array] = {}
        self.common_iterations: List[int] = []
        self.common_sizes: List[int] = []
        self.expanded = 0
        self.generated = 0
        self.children_applicable = 0
        self.duplicates = 0
        self._search_children: Optional[set] = None
        self._search_returned = 0
        self._originals: List[tuple] = []
        self.origin = perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        eng = self.engine
        self._patch(eng.planner, "breadth_first_plan", "planner.breadth_first_plan",
                    before=self._search_started, after=self._search_finished)
        # parse_trace replays actions through parser's own apply_action
        # binding; only the planner's lookup is planner work
        self._patch(eng.planner, "apply_action", "planner.apply_action",
                    after=self._action_applied)
        self._patch(eng.semantics.Evaluator, "evaluate", "semantics.evaluate",
                    after=self._evaluated)
        self._patch(eng.perspectives, "justified_perspective", "perspectives.justified",
                    after=self._states_counter("perspectives.justified"))
        self._patch(eng.semantics, "distributed_perspective", "perspectives.distributed",
                    after=self._states_counter("perspectives.distributed"))
        self._patch(eng.semantics, "uniform_perspectives", "perspectives.uniform")
        self._patch(eng.semantics, "common_perspectives", "perspectives.common",
                    after=self._common_done)
        self._patch(eng.semantics, "interpret_atom", "core.interpret_atom", leaf=True)
        for name in ("parse_domain", "parse_problem", "parse_trace", "parse_formula"):
            # cli.load_benchmark and the parser itself look these up by name
            self._patch(eng.parser, name, f"parser.{name}")
            if hasattr(eng.cli, name):
                self._originals.append((eng.cli, name, getattr(eng.cli, name)))
                setattr(eng.cli, name, getattr(eng.parser, name))
        for model in _model_classes(eng):
            self._patch(model, "sees", "domains.sees", leaf=True)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _patch(self, owner, name: str, label: str, leaf: bool = False,
               before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapper = (self._leaf_wrapper(original, label) if leaf
                   else self._span_wrapper(original, label, before, after))
        setattr(owner, name, wrapper)
        self._originals.append((owner, name, original))

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _stat(self, name: str) -> _Stat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = _Stat()
        return found

    def enter(self, name: str) -> list:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1][1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [name, index, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, index, start, covered = frame
        duration = end - start
        self.span_start[index] = start - self.origin
        self.span_end[index] = end - self.origin
        self.stack[-1][3] += duration
        stat = self._stat(name)
        stat.calls += 1
        stat.busy += duration
        stat.self_time += duration - covered
        return duration

    def _span_wrapper(self, original, label: str, before, after):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0]
            if before is not None:
                before()
            frame = tracer.enter(label)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                duration = tracer.leave(frame)
                if after is not None:
                    after(args, result, duration, parent, frame[3])

        traced.__wrapped__ = original
        return traced

    def _leaf_wrapper(self, original, label: str):
        stat = self._stat(label)
        stack = self.stack

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stat.calls += 1
                stat.busy += duration
                stat.self_time += duration
                stack[-1][3] += duration

        counted.__wrapped__ = original
        return counted

    # -- observers ----------------------------------------------------------

    def _search_started(self) -> None:
        self._search_children = set()

    def _search_finished(self, args, result, duration, parent, covered) -> None:
        if result is not None:
            self.expanded += result.expanded
            self.generated += result.generated
        if self._search_children is not None:
            self.duplicates += self._search_returned - len(self._search_children)
        self._search_children = None
        self._search_returned = 0

    def _action_applied(self, args, child, duration, parent, covered) -> None:
        if child is not None:
            self.children_applicable += 1
            if self._search_children is not None:
                self._search_children.add(child.sequence)
                self._search_returned += 1

    def _evaluated(self, args, result, duration, parent, covered) -> None:
        role = EVAL_ROLES.get(parent, "other")
        samples = self.eval_ms.get(role)
        if samples is None:
            samples = self.eval_ms[role] = array("d")
        samples.append(duration * 1000.0)
        stat = self._stat(f"semantics.evaluate.{role}")
        stat.calls += 1
        stat.busy += duration
        stat.self_time += duration - covered

    def _states_counter(self, label: str) -> Callable:
        stat = self._stat(label)

        def count(args, result, duration, parent, covered) -> None:
            stat.states += len(args[2])   # (model, agent or group, seq)
        return count

    def _common_done(self, args, result, duration, parent, covered) -> None:
        if result is not None:
            _, fixed_point = result
            self.common_iterations.append(fixed_point.iterations)
            self.common_sizes.append(fixed_point.final_size)

    # -- results ------------------------------------------------------------

    def metrics(self, nodes: int) -> Dict[str, float]:
        """Per-layer figures; `nodes` is the number of histories handled
        (search nodes generated, or traces evaluated)."""
        out: Dict[str, float] = {}

        def stat(name: str) -> _Stat:
            return self.stats.get(name) or _Stat()

        for name in ("parse_domain", "parse_problem", "parse_trace", "parse_formula"):
            s = stat(f"parser.{name}")
            out[f"parser.{name}.calls"] = s.calls
            out[f"parser.{name}.busy_s"] = s.busy
        out["planner.self_s"] = stat("planner.breadth_first_plan").self_time
        s = stat("planner.apply_action")
        out["planner.apply_action.calls"] = s.calls
        out["planner.apply_action.self_s"] = s.self_time
        out["planner.applicable_ratio"] = _ratio(self.children_applicable, s.calls)
        out["planner.expanded"] = self.expanded
        out["planner.generated"] = self.generated
        out["planner.dup_ratio"] = _ratio(self.duplicates, self.children_applicable)
        all_ms = array("d")
        for role in ("precondition", "goal", "formula", "other"):
            all_ms.extend(self.eval_ms.get(role, ()))
        s = stat("semantics.evaluate")
        out.update(_eval_figures("semantics.evaluate", s, all_ms))
        for role in ("precondition", "goal", "formula"):
            out.update(_eval_figures(f"semantics.evaluate.{role}",
                                     stat(f"semantics.evaluate.{role}"),
                                     self.eval_ms.get(role, array("d"))))
        s = stat("core.interpret_atom")
        out["core.interpret_atom.calls"] = s.calls
        out["core.interpret_atom.busy_s"] = s.busy
        for kind in ("justified", "distributed"):
            s = stat(f"perspectives.{kind}")
            out[f"perspectives.{kind}.calls"] = s.calls
            out[f"perspectives.{kind}.busy_s"] = s.busy
            out[f"perspectives.{kind}.states"] = s.states
        s = stat("perspectives.uniform")
        out["perspectives.uniform.calls"] = s.calls
        out["perspectives.uniform.self_s"] = s.self_time
        s = stat("perspectives.common")
        out["perspectives.common.calls"] = s.calls
        out["perspectives.common.self_s"] = s.self_time
        out["perspectives.common.iterations"] = sum(self.common_iterations)
        out["perspectives.common.iter_max"] = max(self.common_iterations, default=0)
        out["perspectives.common.final_size_avg"] = _ratio(sum(self.common_sizes),
                                                           len(self.common_sizes))
        builds = stat("perspectives.justified").calls + stat("perspectives.distributed").calls
        out["perspectives.builds_per_node"] = _ratio(builds, nodes)
        s = stat("domains.sees")
        out["domains.sees.calls"] = s.calls
        out["domains.sees.busy_s"] = s.busy
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """One header line with the span names, then one line per span:
        [id, parent id or -1, name index, start_us, end_us]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "leaf_counts": {
                name: {"calls": s.calls, "busy_s": s.busy}
                for name, s in self.stats.items()
                if name in ("domains.sees", "core.interpret_atom")}}) + "\n")
            for i in range(len(self.span_start)):
                handle.write(f"[{i},{self.span_parent[i]},{self.span_name[i]},"
                             f"{self.span_start[i] * 1e6:.1f},{self.span_end[i] * 1e6:.1f}]\n")


def _model_classes(engine) -> list:
    base = engine.perspectives.ObservationModel
    return [obj for obj in vars(engine.domains).values()
            if isinstance(obj, type) and issubclass(obj, base) and obj is not base
            and "sees" in obj.__dict__]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(samples, q: float, weights=None) -> float:
    """Nearest-rank percentile, each sample counted `weights[i]` times
    (once without weights); 0.0 for no samples."""
    if weights is None:
        weights = [1] * len(samples)
    pairs = sorted(zip(samples, weights))
    rank = max(1, math.ceil(q * sum(weights)))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return 0.0


def _eval_figures(prefix: str, stat: _Stat, samples) -> Dict[str, float]:
    return {f"{prefix}.calls": stat.calls, f"{prefix}.self_s": stat.self_time,
            f"{prefix}.ms_p50": percentile(samples, 0.50),
            f"{prefix}.ms_p99": percentile(samples, 0.99)}
