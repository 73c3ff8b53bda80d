"""Checks of the benchmark's own input generators.

    PYTHONPATH=src python3 -m pytest -q epibench/test_workloads.py
"""

import random
import sys

from common import GRAPEVINE_AGENTS, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from epiplan.parser import parse_domain, parse_formula  # noqa: E402
from epiplan.perspectives import check_observation_axioms  # noqa: E402


def _generated_grapevine():
    return parse_domain(workloads.grapevine_domain_text(GRAPEVINE_AGENTS))


def test_agent_names_never_shadow_secret_values():
    for count in range(1, 25):
        names = workloads.agent_names(count)
        assert len(set(names)) == count
        assert "t" not in names and "f" not in names


def test_generated_grapevine_parses_and_satisfies_axioms():
    domain = _generated_grapevine()
    sig = domain.signature
    assert len(sig.agents) == GRAPEVINE_AGENTS
    rng = random.Random(0)
    states = [sig.global_state({var: rng.choice(sig.domain(var))
                                for var in sig.variables if not sig.is_agent(var)})
              for _ in range(200)]
    check_observation_axioms(domain.model, sig.agents, states, rng=rng)


def test_random_formulas_parse_on_generated_grapevine():
    sig = _generated_grapevine().signature
    payload = {var: (list(sig.domain(var)), False)
               for var in sig.variables if not sig.is_agent(var)}
    rng = random.Random(1)
    for depth in (1, 2, 3, 4):
        for _ in range(25):
            parse_formula(workloads.random_formula(rng, sig.agents, payload, depth), sig)
