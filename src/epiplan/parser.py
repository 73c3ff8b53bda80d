"""Text formats: formula s-expressions, domain files, problem files, traces.

Formulas are prefix s-expressions, declarations keyword lines (grammar in the
README). An error names its line, if any, and the column of the token at
fault where there is one: a formula's token, or a word of a `var`, `eff`,
`init` or `state` line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .core import (
    And,
    Atom,
    EngineError,
    Formula,
    GroupBelieves,
    GroupKnows,
    GroupMode,
    GroupSees,
    GroupSeesVar,
    Not,
    RELATIONS,
    Signature,
    State,
    StateSequence,
    Ternary,
    ValidationError,
    Value,
    Var,
    format_value,
    make_group,
    validate_formula,
    value_kind,
)
from .perspectives import ObservationModel, make_model
from .planner import Action, Effect, apply_action, SearchNode
from .semantics import Evaluator


class ParseError(EngineError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(where + message)


class Token(NamedTuple):
    text: str
    line: int
    col: int


# a parenthesis, or a run of anything else up to whitespace or a parenthesis
_TOKEN = re.compile(r"[()]|[^\s()]+")
# a run of anything up to whitespace: the words of a declaration line, whose
# names may hold parentheses, `{` and `}`
_WORD = re.compile(r"\S+")


def _lines(text: str) -> Iterator[Tuple[int, str]]:
    """The lines of `text` that hold more than whitespace and comments, with
    their numbers. A line is what `str.splitlines()` yields, and a comment
    runs from `#` to the end of its line; it is cut off."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        if line and not line.isspace():
            yield lineno, line


def _lex(line: str, lineno: int, pattern: re.Pattern = _TOKEN) -> List[Token]:
    """The tokens of one line from `_lines`, with the file's line and column:
    formula tokens, or with `_WORD` whitespace-separated words."""
    return [Token(m.group(), lineno, m.start() + 1) for m in pattern.finditer(line)]


def _word_error(message: str, line: str, lineno: int, word: int) -> ParseError:
    """An error at the `word`-th word (from 0) of `line.split()`. Declaration
    lines are read with `str.split()`, and the column is worked out only
    for an error, as `_WORD` matches exactly the words `str.split()` gives."""
    return ParseError(message, lineno, _lex(line, lineno, _WORD)[word].col)


# --------------------------------------------------------------------------
# Formulas
# --------------------------------------------------------------------------

# operator -> (node, mode); an individual operator (mode None) takes one agent
# and stands for the UNIFORM group of that agent
_OPERATORS: Dict[str, Tuple[type, Optional[GroupMode]]] = {
    prefix + letter: (node, mode)
    for letter, node in (("S", GroupSees), ("K", GroupKnows), ("B", GroupBelieves))
    for prefix, mode in (("", None), ("E", GroupMode.UNIFORM),
                         ("D", GroupMode.DISTRIBUTED), ("C", GroupMode.COMMON))
}


class _TokenStream:
    def __init__(self, tokens: List[Token], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno   # blamed for running out when there are no tokens

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expectation: str) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(f"unexpected end of input, expected {expectation}",
                             last.line if last else self.lineno, last.col if last else None)
        self.pos += 1
        return tok


def _parse_constant(text: str) -> Value:
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        return text


# Deepest formula accepted: nodes on the longest path from the root to an
# atom. Parsing, validation and evaluation recurse once or a few times per
# level, so the limit keeps them well inside Python's recursion limit.
MAX_FORMULA_DEPTH = 100


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse and validate one formula; trailing input is an error, and so is
    nesting deeper than MAX_FORMULA_DEPTH."""
    return _formula([tok for lineno, line in _lines(text) for tok in _lex(line, lineno)],
                    sig, 1)


def _formula(tokens: List[Token], sig: Signature, lineno: int) -> Formula:
    """The formula that `tokens` spell, validated. `lineno` is blamed for an
    error no token marks: a type error, or no tokens at all."""
    stream = _TokenStream(tokens, lineno)
    phi, _ = _parse_formula(stream, sig, 1)
    extra = stream.peek()
    if extra is not None:
        raise ParseError(f"unexpected trailing input {extra.text!r}", extra.line, extra.col)
    try:
        validate_formula(sig, phi)
    except ValidationError as exc:
        raise ParseError(str(exc), lineno) from exc
    return phi


def _too_deep(tok: Token) -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels",
                      tok.line, tok.col)


def _parse_formula(stream: _TokenStream, sig: Signature,
                   depth: int) -> Tuple[Formula, int]:
    """One formula at `depth` (the root is at 1), and its height (an atom's
    is 1)."""
    opener = stream.next("a formula")
    if opener.text != "(":
        raise ParseError(f"expected '(' to start a formula, found {opener.text!r}",
                         opener.line, opener.col)
    if depth > MAX_FORMULA_DEPTH:
        raise _too_deep(opener)
    head = stream.next("an operator or relation")
    name = head.text
    if name in RELATIONS:
        return _parse_atom(stream, sig, name, head), 1
    if name == "not":
        child, height = _parse_formula(stream, sig, depth + 1)
        _expect_close(stream, head)
        return Not(child), height + 1
    if name == "and":
        parts = []
        while len(parts) < 2 or (stream.peek() is not None and stream.peek().text == "("):
            parts.append(_parse_formula(stream, sig, depth + 1))
        _expect_close(stream, head)
        # folded to the left, so the first two parts sit deepest
        count = len(parts)
        height = max(h + count - max(j, 1) for j, (_, h) in enumerate(parts))
        if depth + height - 1 > MAX_FORMULA_DEPTH:
            raise _too_deep(head)
        phi = parts[0][0]
        for part, _ in parts[1:]:
            phi = And(phi, part)
        return phi, height
    if name in _OPERATORS:
        node, mode = _OPERATORS[name]
        if mode is None:
            agent_tok = stream.next("an agent name")
            if agent_tok.text in "()":
                raise ParseError("expected an agent name", agent_tok.line, agent_tok.col)
            mode, group = GroupMode.UNIFORM, (_agent(agent_tok, sig),)
        else:
            group = _parse_group(stream, sig)
        arg = stream.peek()
        if node is GroupSees and arg is not None and arg.text != "(":
            var = _parse_variable(stream, sig)
            _expect_close(stream, head)
            return GroupSeesVar(mode, group, var), 1
        child, height = _parse_formula(stream, sig, depth + 1)
        _expect_close(stream, head)
        return node(mode, group, child), height + 1
    raise ParseError(f"unknown operator {name!r}", head.line, head.col)


def _parse_variable(stream: _TokenStream, sig: Signature) -> str:
    """A declared variable's name: an atom's left operand or what is seen."""
    tok = stream.next("a variable")
    if tok.text in "()":
        raise ParseError("expected a variable name", tok.line, tok.col)
    if tok.text not in sig.index:
        raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_atom(stream: _TokenStream, sig: Signature, rel: str, head: Token) -> Atom:
    lhs = _parse_variable(stream, sig)
    rhs_tok = stream.next("a constant or variable")
    if rhs_tok.text in "()":
        raise ParseError("expected a constant or variable", rhs_tok.line, rhs_tok.col)
    rhs: Union[Value, Var]
    if rhs_tok.text in sig.index:
        rhs = Var(rhs_tok.text)
    else:
        rhs = _parse_constant(rhs_tok.text)
    _expect_close(stream, head)
    return Atom(rel, lhs, rhs)


def _agent(tok: Token, sig: Signature) -> str:
    """A declared agent's name, checked where it stands."""
    if not sig.is_agent(tok.text):
        raise ParseError(f"unknown agent {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_group(stream: _TokenStream, sig: Signature) -> Tuple[str, ...]:
    opener = stream.next("a group")
    if opener.text != "(":
        raise ParseError("expected '(' to start a group", opener.line, opener.col)
    names = []
    while True:
        tok = stream.next("an agent name or ')'")
        if tok.text == ")":
            break
        if tok.text == "(":
            raise ParseError("groups contain agent names only", tok.line, tok.col)
        names.append(_agent(tok, sig))
    if not names:
        raise ParseError("a group must contain at least one agent", opener.line, opener.col)
    return make_group(names)


def _expect_close(stream: _TokenStream, opener: Token) -> None:
    tok = stream.next("')'")
    if tok.text != ")":
        raise ParseError(f"expected ')', found {tok.text!r} (opened at line "
                         f"{opener.line})", tok.line, tok.col)


_LETTER_OF = {GroupSeesVar: "S", GroupSees: "S", GroupKnows: "K", GroupBelieves: "B"}


def format_formula(phi: Formula) -> str:
    """Render a formula as an s-expression that parses back to an equal AST.

    A UNIFORM group of one agent prints in individual form, `(S a ...)`."""
    if isinstance(phi, Atom):
        rhs = phi.rhs.name if isinstance(phi.rhs, Var) else format_value(phi.rhs)
        return f"({phi.rel} {phi.lhs} {rhs})"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.child)})"
    if isinstance(phi, And):
        return f"(and {format_formula(phi.left)} {format_formula(phi.right)})"
    letter = _LETTER_OF.get(type(phi))
    if letter is None:
        raise TypeError(f"not a formula node: {phi!r}")
    arg = phi.var if isinstance(phi, GroupSeesVar) else format_formula(phi.child)
    if phi.mode is GroupMode.UNIFORM and len(phi.group) == 1:
        return f"({letter} {phi.group[0]} {arg})"
    return f"({phi.mode.value}{letter} ({' '.join(phi.group)}) {arg})"


# --------------------------------------------------------------------------
# Domain files
# --------------------------------------------------------------------------

@dataclass
class DomainFile:
    name: str
    signature: Signature
    model: ObservationModel
    actions: Tuple[Action, ...]


def parse_domain(text: str) -> DomainFile:
    name = None
    agents: List[str] = []
    domains: Dict[str, List[Value]] = {}
    model_name = None
    obs_config: List[List[str]] = []
    raw_actions: List[Tuple[str, int, Optional[Tuple[List[Token], int]],
                            List[Tuple[List[str], str, int]]]] = []

    lines = _lines(text)
    for lineno, line in lines:
        parts = line.split()
        key = parts[0]
        if key == "domain":
            _need(parts, 2, 2, lineno, "domain <name>")
            name = parts[1]
        elif key == "agents":
            if len(parts) < 2:
                raise ParseError("agents line needs at least one agent", lineno)
            agents.extend(parts[1:])
        elif key == "var":
            var_name, values = _parse_var_decl(parts, line, lineno)
            if var_name in domains:
                raise _word_error(f"variable {var_name!r} declared twice", line, lineno, 1)
            domains[var_name] = values
        elif key == "observation":
            _need(parts, 2, 2, lineno, "observation <model-name>")
            model_name = parts[1]
        elif key == "obs-config":
            if len(parts) < 2:
                raise ParseError("obs-config needs at least one token", lineno)
            obs_config.append(parts[1:])
        elif key == "action":
            _need(parts, 2, 2, lineno, "action <name>")
            action_name = parts[1]
            pre: Optional[Tuple[List[Token], int]] = None
            effs: List[Tuple[List[str], str, int]] = []
            # the action's lines come from the same reader, up to its `end`
            for inner_no, inner_line in lines:
                inner = inner_line.split()
                if inner[0] == "end":
                    break
                if inner[0] == "pre":
                    if pre is not None:
                        raise ParseError(f"action {action_name!r} has two 'pre' lines",
                                         inner_no)
                    pre = (_lex(inner_line, inner_no)[1:], inner_no)
                elif inner[0] == "eff":
                    effs.append((inner, inner_line, inner_no))
                else:
                    raise ParseError(f"unexpected {inner[0]!r} inside action "
                                     f"{action_name!r}", inner_no)
            else:
                raise ParseError(f"action {action_name!r} is missing its 'end'", lineno)
            raw_actions.append((action_name, lineno, pre, effs))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if name is None:
        raise ParseError("missing 'domain <name>' line")
    if not agents:
        raise ParseError("missing 'agents' line")
    if model_name is None:
        raise ParseError("missing 'observation <model-name>' line")
    try:
        sig = Signature(agents, domains)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc

    actions = []
    names = set()
    for action_name, lineno, pre, effs in raw_actions:
        if action_name in names:
            raise ParseError(f"action {action_name!r} declared twice", lineno)
        names.add(action_name)
        precondition = None
        if pre is not None:
            precondition = _formula(pre[0], sig, pre[1])
        effects = tuple(_parse_effect(sig, words, text, lno) for words, text, lno in effs)
        actions.append(Action(action_name, precondition, effects))

    try:
        model = make_model(model_name, sig, obs_config)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    return DomainFile(name, sig, model, tuple(actions))


def _need(parts: List[str], lo: int, hi: int, lineno: int, usage: str) -> None:
    if not lo <= len(parts) <= hi:
        raise ParseError(f"expected: {usage}", lineno)


# Most values an integer range `lo..hi` may declare. The parser lists every
# value of a range, so a wider one is refused before it is built.
MAX_INT_RANGE = 65536


def _parse_var_decl(parts: List[str], line: str, lineno: int) -> Tuple[str, List[Value]]:
    # var <name> : <type> ...
    if len(parts) < 4 or parts[2] != ":":
        raise _word_error("expected: var <name> : <type> ...", line, lineno,
                          min(len(parts), 3) - 1)
    var_name = parts[1]
    kind = parts[3]
    rest = parts[4:]
    if kind == "bool":
        if rest:
            raise _word_error("bool variables take no arguments", line, lineno, 4)
        return var_name, [False, True]
    if kind == "enum":
        if not rest:
            raise _word_error("enum variables need at least one symbol", line, lineno, 3)
        for at, word in enumerate(rest, start=4):
            # values are read with `_parse_constant`, so nothing could name
            # a symbol that reads as an int or a bool
            value = _parse_constant(word)
            if value_kind(value) != "symbol":
                raise _word_error(f"enum symbol {word!r} reads as the {value_kind(value)} "
                                  f"constant {format_value(value)}", line, lineno, at)
        return var_name, list(rest)
    if kind == "int":
        if len(rest) == 1 and ".." in rest[0]:
            lo_text, _, hi_text = rest[0].partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise _word_error(f"bad integer range {rest[0]!r}", line, lineno, 4) from None
            if hi < lo:
                raise _word_error(f"empty integer range {rest[0]!r}", line, lineno, 4)
            if hi - lo >= MAX_INT_RANGE:
                raise _word_error(f"integer range {rest[0]!r} holds more than "
                                  f"{MAX_INT_RANGE} values", line, lineno, 4)
            return var_name, list(range(lo, hi + 1))
        if len(rest) >= 3 and rest[0] == "{" and rest[-1] == "}":
            members = []
            for at, word in enumerate(rest[1:-1], start=5):
                try:
                    members.append(int(word))
                except ValueError:
                    raise _word_error("integer set members must be integers",
                                      line, lineno, at) from None
            return var_name, members
        raise _word_error("expected: int <lo>..<hi> or int { v1 v2 ... }", line, lineno, 3)
    raise _word_error(f"unknown variable type {kind!r}", line, lineno, 3)


def _parse_effect(sig: Signature, parts: List[str], line: str, lineno: int) -> Effect:
    # eff <var> := <value-or-var> | eff <var> += <int> | eff <var> -= <int>
    if len(parts) != 4:
        raise _word_error("expected: eff <var> := <value> | eff <var> += <int>",
                          line, lineno, 0)
    _, var, op, operand = parts
    if var not in sig.index:
        raise _word_error(f"undeclared variable {var!r}", line, lineno, 1)
    if op == ":=":
        if operand in sig.index:
            if sig.domain_kind(operand) != sig.domain_kind(var):
                raise _word_error(f"cannot copy {operand!r} into {var!r}: kinds differ",
                                  line, lineno, 3)
            return Effect(var, "copy", operand)
        value = _parse_constant(operand)
        if sig.domain_kind(var) != value_kind(value):
            raise _word_error(f"value {operand!r} does not fit variable {var!r}",
                              line, lineno, 3)
        if not sig.in_domain(var, value):
            raise _word_error(f"value {operand!r} is not in the domain of {var!r}",
                              line, lineno, 3)
        return Effect(var, "set", value)
    if op in ("+=", "-="):
        if sig.domain_kind(var) != "int":
            raise _word_error(f"arithmetic effects need an integer variable, got {var!r}",
                              line, lineno, 1)
        try:
            delta = int(operand)
        except ValueError:
            raise _word_error(f"expected an integer, found {operand!r}",
                              line, lineno, 3) from None
        return Effect(var, "add", delta if op == "+=" else -delta)
    raise _word_error(f"unknown effect operator {op!r}", line, lineno, 2)


# --------------------------------------------------------------------------
# Problem files
# --------------------------------------------------------------------------

_TARGETS = {"true": Ternary.TRUE, "false": Ternary.FALSE, "unknown": Ternary.UNKNOWN}


def _assignments(sig: Signature, parts: List[str], line: str, lineno: int,
                 into: Dict[str, Value]) -> Dict[str, Value]:
    """`into` with the `var=value` words of one line added (its words after
    the first). A variable given twice, on this line or already in `into`,
    is an error, and so is a value outside its variable's domain."""
    for at in range(1, len(parts)):
        word = parts[at]
        var, eq, val = word.partition("=")
        if not eq:
            raise _word_error(f"expected var=value, found {word!r}", line, lineno, at)
        if var in into:
            raise _word_error(f"variable {var!r} given twice", line, lineno, at)
        if var not in sig.index:
            raise _word_error(f"undeclared variable {var!r}", line, lineno, at)
        value = _parse_constant(val)
        if not sig.in_domain(var, value):
            raise _word_error(f"value {format_value(value)} is outside the domain of "
                              f"{var!r}", line, lineno, at)
        into[var] = value
    return into


@dataclass
class ProblemFile:
    name: str
    initial: State
    goals: Tuple[Tuple[Formula, Ternary], ...]
    max_depth: Optional[int] = None


def parse_problem(text: str, domain: DomainFile) -> ProblemFile:
    sig = domain.signature
    name = None
    domain_name = None
    assignments: Dict[str, Value] = {}
    goals: List[Tuple[Formula, Ternary]] = []
    max_depth = None

    for lineno, line in _lines(text):
        parts = line.split()
        key = parts[0]
        if key == "problem":
            _need(parts, 2, 2, lineno, "problem <name>")
            name = parts[1]
        elif key == "domain":
            _need(parts, 2, 2, lineno, "domain <name>")
            domain_name = parts[1]
        elif key == "init":
            _assignments(sig, parts, line, lineno, assignments)
        elif key == "goal":
            if len(parts) < 3 or parts[1] not in _TARGETS:
                raise ParseError("expected: goal true|false|unknown (<formula>)", lineno)
            goals.append((_formula(_lex(line, lineno)[2:], sig, lineno), _TARGETS[parts[1]]))
        elif key == "max-depth":
            _need(parts, 2, 2, lineno, "max-depth <N>")
            try:
                max_depth = int(parts[1])
            except ValueError:
                raise ParseError(f"max-depth must be an integer, found {parts[1]!r}",
                                 lineno) from None
            if max_depth < 0:
                raise ParseError(f"max-depth must not be negative, found {max_depth}", lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if name is None:
        raise ParseError("missing 'problem <name>' line")
    if domain_name is None:
        raise ParseError("missing 'domain <name>' line")
    if domain_name != domain.name:
        raise ParseError(f"problem references domain {domain_name!r} but "
                         f"{domain.name!r} was loaded")
    if not goals:
        raise ParseError("a problem needs at least one goal")
    try:
        initial = sig.global_state(assignments)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    return ProblemFile(name, initial, tuple(goals), max_depth)


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

def parse_trace(text: str, domain: DomainFile) -> StateSequence:
    """A trace is either `init` plus `do` lines (replayed through the action
    model, checking preconditions) or explicit `state` lines. A replay
    steps one search node per `do` line, as a search does, and rebuilds the
    history once, at the end; a belief precondition walks its paths over
    the history so far (`apply_action`)."""
    sig = domain.signature
    action_by_name = {a.name: a for a in domain.actions}
    states: List[State] = []
    node: Optional[SearchNode] = None
    evaluator = Evaluator(domain.model)

    for lineno, line in _lines(text):
        parts = line.split()
        key = parts[0]
        if key == "do":
            _need(parts, 2, 2, lineno, "do <action-name>")
            if node is None:
                raise ParseError("'do' requires an 'init' line first", lineno)
            action = action_by_name.get(parts[1])
            if action is None:
                raise ParseError(f"unknown action {parts[1]!r}", lineno)
            successor = apply_action(evaluator, action, node)
            if successor is None:
                raise ParseError(f"action {parts[1]!r} is not applicable at this point", lineno)
            node = successor
        elif key in ("init", "state"):
            if key == "init" and (node is not None or states):
                raise ParseError("init must be the first directive", lineno)
            if key == "state" and node is not None:
                raise ParseError("cannot mix 'state' lines with init/do", lineno)
            values = _assignments(sig, parts, line, lineno, {})
            try:
                if key == "init":   # total; global_state fills in the agent markers
                    node = SearchNode(StateSequence([sig.global_state(values)]), ())
                else:
                    states.append(sig.make_state({**dict.fromkeys(sig.agents, True), **values}))
            except ValidationError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if node is not None:
        return node.sequence
    if states:
        return StateSequence(states)
    raise ParseError("empty trace: expected 'init'/'do' lines or 'state' lines")
