"""The benchmark's traced run (epibench/tracer.py) wraps engine functions by
name from the outside. These tests install it on the engine modules this
suite already imported, so a refactor that drops or bypasses one of those
names, or builds a view without passing through one, fails here instead of
only in `epibench/run.py --trace 1`.
"""

import importlib
import importlib.util
import types
from pathlib import Path

from epiplan import perspectives
from epiplan.parser import parse_formula
from epiplan.semantics import Evaluator

TRACER_PATH = Path(__file__).resolve().parents[1] / "epibench" / "tracer.py"
ENGINE_MODULES = ("cli", "core", "domains", "oracle", "parser", "perspectives",
                  "planner", "semantics")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("epibench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_tracer_wraps_and_restores_every_patched_name(number_dom, plan1):
    engine = types.SimpleNamespace(**{name: importlib.import_module(f"epiplan.{name}")
                                      for name in ENGINE_MODULES})
    tracer = _tracer_module().Tracer(engine)
    patched = []
    builds = 0
    fold = perspectives._believed_sequence

    def counting(*args, **kwargs):
        nonlocal builds
        builds += 1
        return fold(*args, **kwargs)

    try:
        tracer.install()
        patched = list(tracer._originals)
        for owner, name, original in patched:
            assert _current(owner, name) is not original, name
        perspectives._believed_sequence = counting
        evaluator = Evaluator(number_dom.model)
        # a belief over a common belief still builds its views: the E and D
        # ones below are what calls uniform_perspectives and
        # distributed_perspective, as beliefs without a C read fold states
        for text in ("(B a (= n 1))", "(EB (a b) (= n 1))", "(DB (a b) (= n 1))",
                     "(CB (a b) (< n 3))", "(K b (= n 1))", "(DB (a) (B b (= n 1)))",
                     "(B a (B b (= n 1)))", "(EB (a b) (CB (a b) (< n 3)))",
                     "(DB (a b) (CB (a b) (= n 1)))"):
            evaluator.evaluate(plan1, parse_formula(text, number_dom.signature))
    finally:
        perspectives._believed_sequence = fold
        tracer.uninstall()
    assert patched
    for owner, name, original in patched:
        assert _current(owner, name) is original, name
    figures = tracer.metrics(nodes=1)
    # full perspective builds still go through the names the tracer wraps
    for key in ("semantics.evaluate.calls", "perspectives.justified.calls",
                "perspectives.distributed.calls", "perspectives.uniform.calls",
                "perspectives.common.calls", "core.interpret_atom.calls",
                "domains.sees.calls"):
        assert figures[key] > 0, key
    # and each build is counted once, so the per-layer counts are builds
    assert figures["perspectives.justified.calls"] + \
        figures["perspectives.distributed.calls"] == builds
