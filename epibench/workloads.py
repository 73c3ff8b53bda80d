"""Input generators for the epiplan benchmark.

Everything here produces text (domain, problem, trace and formula files) from
a seed; nothing imports the engine, so the program under test receives only
the generated text. Inputs whose expected results must be known in advance
(blind-search instances, eval-traces traces and formulas) are drawn by seed
from finite pools that `record.py` enumerated and solved once, so any seed
is checked against `expected.json`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

# Agent names skip "t" and "f": every agent is also a variable, so an agent
# called "f" would turn the secret value in "(= sct_a f)" into a comparison
# with that agent's marker variable and the formula would fail to parse.
_AGENT_LETTERS = "abcdeghijklmnopqrsuvwxyz"


def agent_names(count: int) -> List[str]:
    if not 1 <= count <= len(_AGENT_LETTERS):
        raise ValueError(f"between 1 and {len(_AGENT_LETTERS)} agents, got {count}")
    return list(_AGENT_LETTERS[:count])


# --------------------------------------------------------------------------
# Generated domains
# --------------------------------------------------------------------------

def grapevine_domain_text(n_agents: int, n_secrets: int = 2) -> str:
    """A grapevine domain with `n_agents` agents in two rooms.

    The first `n_secrets` agents own a broadcastable secret. As in the
    bundled encoding, every action first restores all secrets to their true
    value `t` and clears every broadcast marker, then applies its own
    effect: a share or lie sets one secret and broadcasts it into the
    speaker's room, a move changes one location.
    """
    agents = agent_names(n_agents)
    owners = agents[:n_secrets]
    lines = [f"domain grapevine{n_agents}", "agents " + " ".join(agents)]
    lines += [f"var loc_{a} : enum room1 room2" for a in agents]
    lines += [f"var sct_{a} : enum t f" for a in agents]
    lines += [f"var told_{o} : enum none room1 room2" for o in owners]
    lines += ["observation grapevine", ""]
    restore = ([f"  eff sct_{o} := t" for o in owners]
               + [f"  eff told_{o} := none" for o in owners])
    for owner in owners:
        for speaker in agents:
            for name, believed, said in (("share", "t", "t"), ("share", "f", "f"),
                                         ("lie", "t", "f"), ("lie", "f", "t")):
                lines += [f"action {name}_{speaker}_{owner}_{said}",
                          f"  pre (B {speaker} (= sct_{owner} {believed}))",
                          *restore,
                          f"  eff sct_{owner} := {said}",
                          f"  eff told_{owner} := loc_{speaker}",
                          "end", ""]
    for agent in agents:
        for here, there in (("room1", "room2"), ("room2", "room1")):
            lines += [f"action move_{agent}_{there}",
                      f"  pre (= loc_{agent} {here})",
                      *restore,
                      f"  eff loc_{agent} := {there}",
                      "end", ""]
    return "\n".join(lines)


def switches_domain_text(n_switches: int) -> str:
    """A two-agent box-model domain of on/off switches with idempotent actions.

    Setting a switch that is already in the target position yields the same
    successor state as every other such no-op, so sibling children share
    their full history and duplicate detection has work to do.
    """
    lines = ["domain switches", "agents a b",
             "var peeking_a : bool", "var peeking_b : bool"]
    lines += [f"var x{i} : bool" for i in range(n_switches)]
    lines += ["observation number", ""]
    for i in range(n_switches):
        for value in ("true", "false"):
            lines += [f"action set_x{i}_{value}",
                      "  pre (= peeking_a false)",
                      f"  eff x{i} := {value}",
                      "end", ""]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# blind-search: atom-only preconditions and goals, goal unreachable
# --------------------------------------------------------------------------

# Each slot is one search per pass. A slot's initial states form one class of
# equal search size (mirror images of each other), so the seed changes the
# input but not the amount of work, and the expected row is per slot. The
# goals a slot draws from are single atoms of one form, so the seed does not
# change the cost of a goal test either: a conjunction such as
# (and (= peeking_a true) (= peeking_b true)) costs more per call than one
# comparison, and is cut short on one mirror image and not on the other.
_BOX_GOALS = ("(> n 2)", "(< n 0)")
_CAMERA_DIRS = (-135, -90, -45, 0, 45, 90, 135, 180)


def _camera_inits(ia: int, ib: int) -> List[Tuple[int, int]]:
    top = len(_CAMERA_DIRS) - 1
    pairs = {(ia, ib), (ib, ia), (top - ia, top - ib), (top - ib, top - ia)}
    return sorted((_CAMERA_DIRS[a], _CAMERA_DIRS[b]) for a, b in pairs)


BLIND_SLOTS: Dict[str, dict] = {
    "box-n1": {"domain": "number", "depth": 10,
               "inits": ["n=1 peeking_a=false peeking_b=false"]},
    "box-edge": {"domain": "number", "depth": 9,
                 "inits": [f"n={n} peeking_{who}=true peeking_{other}=false"
                           for n in (0, 2) for who, other in (("a", "b"), ("b", "a"))]},
    "camera-mid": {"domain": "bbl", "depth": 7, "inits": _camera_inits(3, 4)},
    "camera-edge": {"domain": "bbl", "depth": 7, "inits": _camera_inits(1, 6)},
    "switches": {"domain": "switches", "depth": 7,
                 "inits": [f"x0={a} x1={b} x2={c}" for a in ("true", "false")
                           for b in ("true", "false") for c in ("true", "false")]},
}
SWITCHES = 3
BLIND_GOAL_CHOICES = 6


def blind_problem_text(slot: str, init_index: int, goal_index: int,
                       objects: Sequence[int] = (1, 2, 3)) -> str:
    """The problem text of one blind-search instance of a slot."""
    spec = BLIND_SLOTS[slot]
    init = spec["inits"][init_index]
    domain = spec["domain"]
    if domain == "number":
        goal = _BOX_GOALS[goal_index % len(_BOX_GOALS)]
        init_line = init
        name = "number"
    elif domain == "bbl":
        dir_a, dir_b = init
        values = " ".join(f"o_{k + 1}={v}" for k, v in enumerate(objects))
        init_line = f"dir_a={dir_a} dir_b={dir_b} {values}"
        # objects never move, so any other value of an object is unreachable
        k = goal_index % len(objects)
        goal = f"(= o_{k + 1} {objects[k] % 3 + 1})"
        name = "bbl"
    else:
        init_line = f"peeking_a=false peeking_b=false {init}"
        goal = "(= peeking_a true)" if goal_index % 2 else "(= peeking_b true)"
        name = "switches"
    return (f"problem {slot}\ndomain {name}\ninit {init_line}\n"
            f"goal true {goal}\nmax-depth {spec['depth']}\n")


def blind_search_instances(seed: int) -> List[Tuple[str, str]]:
    """(slot, problem text) for one pass, one instance per slot, in seed order."""
    rng = random.Random(seed)
    out = []
    for slot, spec in BLIND_SLOTS.items():
        objects = [rng.randint(1, 3) for _ in range(3)]
        text = blind_problem_text(slot, rng.randrange(len(spec["inits"])),
                                  rng.randrange(BLIND_GOAL_CHOICES), objects)
        out.append((slot, text))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# eval-traces: random formulas
# --------------------------------------------------------------------------

_BELIEF_OPS = ("B", "EB", "DB", "CB")
_KNOWLEDGE_OPS = ("S", "K", "ES", "DS", "CS", "EK", "DK", "CK")


def _literal(rng: random.Random, var: str, values: Sequence[str], is_int: bool) -> str:
    """A literal that is neither always true nor always false over the
    variable's domain (a fixed literal such as (< n 0) is a hidden
    contradiction, on which the ternary semantics is not exact)."""
    rel = "="
    if is_int and rng.random() < 0.4:
        rel = rng.choice(("<", "<=", ">", ">="))
    elif rng.random() < 0.2:
        rel = "!="
    ordered = sorted(values, key=int) if is_int else list(values)
    if rel in ("<", ">="):
        value = rng.choice(ordered[1:])
    elif rel in ("<=", ">"):
        value = rng.choice(ordered[:-1])
    else:
        value = rng.choice(ordered)
    atom = f"({rel} {var} {value})"
    return f"(not {atom})" if rng.random() < 0.25 else atom


def random_formula(rng: random.Random, agents: Sequence[str],
                   domains: Dict[str, Tuple[List[str], bool]], depth: int) -> str:
    """A formula with exactly `depth` nested modal operators.

    `domains` maps each payload variable to (value texts, is_int). The body
    is a conjunction of one or two literals over distinct variables (a
    separable body, on which the ternary semantics is exact), and no belief
    operator appears beneath a seeing or knowledge operator, as the grammar
    requires.
    """
    names = list(domains)
    chosen = rng.sample(names, 2 if len(names) > 1 and rng.random() < 0.4 else 1)
    parts = [_literal(rng, v, *domains[v]) for v in chosen]
    body = parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"
    ops: List[str] = []
    beliefs_allowed = True
    for _ in range(depth):
        pool = (_BELIEF_OPS + _KNOWLEDGE_OPS) if beliefs_allowed else _KNOWLEDGE_OPS
        op = rng.choice(pool)
        if op in _KNOWLEDGE_OPS:
            beliefs_allowed = False
        ops.append(op)
    # ops[0] is outermost; build from the innermost operator outwards
    phi = body
    for level, op in enumerate(reversed(ops)):
        innermost = level == 0
        if op in ("S", "K", "B"):
            subject = rng.choice(agents)
        else:
            size = rng.randint(2, len(agents)) if len(agents) > 1 else 1
            subject = "(" + " ".join(sorted(rng.sample(list(agents), size))) + ")"
        if innermost and op in ("S", "ES", "DS", "CS") and rng.random() < 0.3:
            phi = f"({op} {subject} {rng.choice(names)})"
        else:
            phi = f"({op} {subject} {phi})"
        if rng.random() < 0.2:
            phi = f"(not {phi})"
    return phi


def select_eval_ops(pool: dict, seed: int, stratum: int,
                    tail: int) -> List[Tuple[str, int, int]]:
    """The pool's `tail` costliest (domain, trace index, formula index)
    pairs, and one pair out of every `stratum` of the rest.

    Each domain's remaining pairs are sorted by the cost recorded for them
    and cut into consecutive strata of `stratum` pairs; the seed picks one
    pair per stratum. Every seed thus draws the same cost profile and the
    same heaviest operations: those set the top percentiles and the peak
    memory, which would otherwise depend on which of the few heavy pairs a
    seed drew, since the recorded costs thin out towards the top.
    """
    rng = random.Random(seed)
    ranked = sorted(((cost, dom["name"], t, f) for dom in pool["domains"]
                     for t, row in enumerate(dom["cost"]) for f, cost in enumerate(row)),
                    reverse=True)
    heaviest = {(name, t, f) for _, name, t, f in ranked[:tail]}
    chosen = sorted(heaviest)
    for dom in pool["domains"]:
        pairs = sorted((cost, t, f) for t, row in enumerate(dom["cost"])
                       for f, cost in enumerate(row) if (dom["name"], t, f) not in heaviest)
        for start in range(0, len(pairs), stratum):
            _, t, f = rng.choice(pairs[start:start + stratum])
            chosen.append((dom["name"], t, f))
    rng.shuffle(chosen)
    return chosen
