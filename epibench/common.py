"""Shared pieces of the benchmark: engine import, workload inputs, result rows."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the bundled suite in README order: (instance id, domain directory, problem)
BUNDLED = ([(f"N{i}", "number", f"n{i}") for i in range(7)]
           + [(f"G{i}", "grapevine", f"g{i}") for i in range(7)]
           + [(f"BBL{i}", "bbl", f"bbl{i}") for i in range(7)])

# eval-traces domains: the three bundled ones and a generated 6-agent grapevine
EVAL_DOMAINS = ("number", "grapevine", "bbl", "grapevine6")
GRAPEVINE_AGENTS = 6

_MODULES = ("cli", "core", "domains", "oracle", "parser", "perspectives",
            "planner", "semantics")


class EngineMissing(Exception):
    """The checkout holds no engine source to benchmark."""


def import_engine() -> types.SimpleNamespace:
    """Import the engine afresh from the checkout's `src/`.

    Earlier imports are dropped first, so each call pays the full import
    cost and returns module objects no other call shares. An installed copy
    elsewhere on the path is never used.
    """
    if not (SRC / "epiplan" / "__init__.py").is_file():
        raise EngineMissing(f"no engine source under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "epiplan" or m.startswith("epiplan.")]:
        del sys.modules[name]
    package = importlib.import_module("epiplan")
    if Path(package.__file__).resolve().parent != SRC / "epiplan":
        raise EngineMissing(f"imported epiplan from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"epiplan.{name}")
                                    for name in _MODULES})


def load_blind_domain(engine, name: str):
    if name == "switches":
        return engine.parser.parse_domain(workloads.switches_domain_text(workloads.SWITCHES))
    return engine.cli.load_benchmark(name, {"number": "n0", "bbl": "bbl0"}[name])[0]


def load_eval_domain(engine, name: str):
    if name == "grapevine6":
        return engine.parser.parse_domain(
            workloads.grapevine_domain_text(GRAPEVINE_AGENTS))
    return engine.cli.load_benchmark(
        name, {"number": "n0", "grapevine": "g0", "bbl": "bbl0"}[name])[0]


def max_depth(problem) -> int:
    """The search depth the CLI uses: the problem's own, else 12."""
    return problem.max_depth if problem.max_depth is not None else 12


def bundled_row(result) -> dict:
    """The ROADMAP gate columns of one solve; plan_length is the status
    when no plan was found."""
    return {
        "plan_length": result.plan_length if result.plan is not None else result.status,
        "expanded": result.expanded,
        "generated": result.generated,
        "common_max": result.common_max,
        "common_avg": round(result.common_avg, 3),
    }


def blind_row(result) -> dict:
    return {"status": result.status, "expanded": result.expanded,
            "generated": result.generated}


def verdict_char(verdict) -> str:
    """One character per ternary verdict: 0, u (unknown) or 1."""
    return "0u1"[int(verdict)]
