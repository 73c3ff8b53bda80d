"""Model primitives: signatures, states, state sequences, formulas, ternary truth."""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

Value = Union[bool, int, str]

# the six relations as functions of (left, right); validation accepts
# exactly these names and evaluation calls through this table
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
RELATIONS = tuple(_COMPARE)
_ORDERED = frozenset({"<", "<=", ">", ">="})


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EngineError):
    """A declaration, state or formula violates the model's rules."""


class Ternary(enum.IntEnum):
    """Three-valued truth.

    The ordering FALSE < UNKNOWN < TRUE makes ``min`` act as conjunction,
    and negation is ``2 - value``, so double negation is the identity.
    """

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    def negate(self) -> "Ternary":
        return Ternary(2 - self.value)

    def __str__(self) -> str:
        return ("0", "1/2", "1")[self.value]


# Ternary's members as module globals, which the engine's hot paths import:
# reading one off the class is an attribute lookup through the enum
# metaclass. `_VERDICT` is a comparison's verdict indexed by its bool.
_FALSE, _UNKNOWN, _TRUE = Ternary.FALSE, Ternary.UNKNOWN, Ternary.TRUE
_VERDICT = (_FALSE, _TRUE)


def value_kind(value: Value) -> str:
    if type(value) is bool:
        return "bool"
    if type(value) is int:
        return "int"
    return "symbol"


def format_value(value: Value) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    return str(value)


def same_value(left: Value, right: Value) -> bool:
    """Equality that never conflates bool with int (True != 1 here)."""
    return type(left) is type(right) and left == right


class Signature:
    """Agents, variables and finite domains for one planning domain.

    Every agent identifier doubles as a variable: each agent gets an implicit
    single-valued marker variable (always ``True``) so states can record which
    agents are present and formulas can test agent presence. `pickers`
    merges two value tuples of the signature by a bitmask of its variables
    (`_Pickers`).
    """

    __slots__ = ("agents", "variables", "domains", "index", "pickers", "_agent_set",
                 "_members", "_states", "_powers")

    def __init__(self, agents: Iterable[str], domains: Mapping[str, Iterable[Value]]):
        self.agents: Tuple[str, ...] = tuple(dict.fromkeys(agents))
        if not self.agents:
            raise ValidationError("at least one agent is required")
        declared: dict[str, Tuple[Value, ...]] = {}
        for name, values in domains.items():
            vals = tuple(dict.fromkeys(values))
            if not vals:
                raise ValidationError(f"variable {name!r} has an empty domain")
            kinds = {value_kind(v) for v in vals}
            if len(kinds) > 1:
                raise ValidationError(f"variable {name!r} mixes value kinds {sorted(kinds)}")
            declared[name] = vals
        for agent in self.agents:
            if agent in declared:
                raise ValidationError(f"agent {agent!r} clashes with a declared variable")
            declared[agent] = (True,)
        self.variables: Tuple[str, ...] = tuple(declared)
        self.domains = declared
        self.index = {name: i for i, name in enumerate(self.variables)}
        self._agent_set = frozenset(self.agents)
        # per variable, a set `in_domain` tests in O(1): a range for a run of
        # consecutive ints, else the members paired with their types, since
        # sets conflate True with 1
        self._members = {name: _member_set(vals) for name, vals in declared.items()}
        # the one `State` per distinct assignment met, kept for the
        # signature's lifetime; each state refers back to the signature, so
        # a dropped signature is freed by the cyclic collector
        self._states: dict[tuple, State] = {}
        # bit i of a state's `bits` is 2 ** i, for the variable at index i
        self._powers = tuple(1 << i for i in range(len(self.variables)))
        self.pickers = _Pickers(len(self.variables))

    def is_agent(self, name: str) -> bool:
        return name in self._agent_set

    def domain(self, var: str) -> Tuple[Value, ...]:
        try:
            return self.domains[var]
        except KeyError:
            raise ValidationError(f"undeclared variable {var!r}") from None

    def domain_kind(self, var: str) -> str:
        return value_kind(self.domain(var)[0])

    def in_domain(self, var: str, value: Value) -> bool:
        """Whether `value` is in `var`'s domain, compared as `same_value` does."""
        try:
            members = self._members[var]
        except KeyError:
            raise ValidationError(f"undeclared variable {var!r}") from None
        if type(members) is range:
            return type(value) is int and value in members
        return (type(value), value) in members

    def make_state(self, assignments: Mapping[str, Value]) -> "State":
        vals: list[Optional[Value]] = [None] * len(self.variables)
        for var, value in assignments.items():
            if var not in self.index:
                raise ValidationError(f"undeclared variable {var!r}")
            if not self.in_domain(var, value):
                raise ValidationError(
                    f"value {format_value(value)} is outside the domain of {var!r}"
                )
            vals[self.index[var]] = value
        return State(self, tuple(vals))

    def global_state(self, assignments: Mapping[str, Value]) -> "State":
        """A total assignment; agent markers are filled in automatically."""
        filled = dict(assignments)
        for agent in self.agents:
            filled.setdefault(agent, True)
        state = self.make_state(filled)
        missing = [v for v in self.variables if v not in state]
        if missing:
            raise ValidationError(f"global state misses variables: {', '.join(missing)}")
        return state


class _Pickers(dict):
    """A signature's row pickers by bitmask, over its variables as
    `State.bits` is.

    ``pickers[bits]``, applied to ``a + b``, two value tuples of the
    signature joined, is the value tuple that takes position i from `a`
    where bit i of `bits` is set and from `b` otherwise; each is made on
    first use and kept for the signature's lifetime. `absent` is the tuple
    of no values: as `b`, it leaves unassigned what the picker does not
    take from `a`.
    """

    __slots__ = ("absent",)

    def __init__(self, size: int):
        super().__init__()
        self.absent = (None,) * size

    def __missing__(self, bits: int) -> "operator.itemgetter":
        size = len(self.absent)
        picks = [i if bits >> i & 1 else size + i for i in range(size)]
        # `itemgetter` of one index returns the item, of a slice a tuple
        found = self[bits] = operator.itemgetter(*picks) if size > 1 else \
            operator.itemgetter(slice(picks[0], picks[0] + 1))
        return found


def _member_set(vals: Tuple[Value, ...]) -> Union[range, frozenset]:
    if type(vals[0]) is int:   # then all are: a domain has one kind
        low, high = min(vals), max(vals)
        if high - low + 1 == len(vals):
            return range(low, high + 1)
    return frozenset((type(v), v) for v in vals)


class State:
    """Immutable partial assignment of variables; unassigned reads yield None.

    Unassigned is how the model represents a value hidden from a viewer, so
    lookups are total. `State(sig, vals)` returns the one state the signature
    holds for `vals`, made on first use, so equal states are one object and
    compare and hash by identity; states of two signature objects are never
    equal. `vals` is aligned with `sig.variables`, None for unassigned, and
    its values lie in their variables' domains: `State` trusts its caller,
    and `Signature.make_state` is the checked way in. A domain holds one
    kind of value, so equal value tuples agree position by position under
    `same_value`: True and 1 never meet at one position. `bits` has bit i
    set where `vals[i]` is assigned, worked out once, when the state is
    made.
    """

    __slots__ = ("sig", "vals", "bits")

    def __new__(cls, sig: Signature, vals: Tuple[Optional[Value], ...]) -> "State":
        table = sig._states
        found = table.get(vals)
        if found is None:
            made = object.__new__(cls)
            made.sig = sig
            made.vals = vals
            made.bits = sum(compress(sig._powers, map(operator.is_not, vals, repeat(None))))
            # setdefault keeps one state per values when threads race here
            found = table.setdefault(vals, made)
        return found

    def get(self, var: str) -> Optional[Value]:
        idx = self.sig.index.get(var)
        return None if idx is None else self.vals[idx]

    def __contains__(self, var: str) -> bool:
        idx = self.sig.index.get(var)
        return idx is not None and self.vals[idx] is not None

    def assigned(self) -> Tuple[str, ...]:
        return tuple(v for v, val in zip(self.sig.variables, self.vals) if val is not None)

    def items(self) -> Iterator[Tuple[str, Value]]:
        for var, val in zip(self.sig.variables, self.vals):
            if val is not None:
                yield var, val

    def __len__(self) -> int:
        return sum(1 for v in self.vals if v is not None)

    def subset_of(self, other: "State") -> bool:
        return all(a is None or (b is not None and same_value(a, b))
                   for a, b in zip(self.vals, other.vals))

    def restrict(self, keep: Iterable[str]) -> "State":
        wanted = set(keep)
        vals = tuple(val if var in wanted else None
                     for var, val in zip(self.sig.variables, self.vals))
        return State(self.sig, vals)

    def override(self, winner: "State") -> "State":
        """This state with `winner`'s assignments taking precedence."""
        vals = tuple(w if w is not None else v for v, w in zip(self.vals, winner.vals))
        return State(self.sig, vals)

    def __repr__(self) -> str:
        body = ", ".join(f"{var}={format_value(val)}" for var, val in self.items())
        return "{" + body + "}"


class StateSequence(tuple):
    """Non-empty tuple of states; timestamps run 0..n.

    Equality and hashing are the tuple's, over states compared by identity,
    so equal sequences are equal and hash equal however they were made.
    Negative indexes count from the end; slices are plain tuples.
    """

    __slots__ = ()

    def __new__(cls, states: Iterable[State]) -> "StateSequence":
        seq = tuple.__new__(cls, states)
        if not seq:
            raise ValidationError("a state sequence must contain at least one state")
        return seq

    @property
    def sig(self) -> Signature:
        return self[0].sig

    @property
    def last(self) -> State:
        return self[-1]

    def prefix(self, t: int) -> "StateSequence":
        """The prefix [s_0.. s_t], of length t + 1."""
        if not 0 <= t < len(self):
            raise IndexError(f"timestamp {t} outside 0..{len(self) - 1}")
        return tuple.__new__(StateSequence, self[: t + 1])

    def extend(self, state: State) -> "StateSequence":
        return tuple.__new__(StateSequence, self + (state,))

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(s) for s in self) + "]"


# --------------------------------------------------------------------------
# Formula AST
# --------------------------------------------------------------------------

class GroupMode(enum.Enum):
    """Flavour of a group operator: everyone / pooled / common."""

    UNIFORM = "E"
    DISTRIBUTED = "D"
    COMMON = "C"


@dataclass(frozen=True)
class Var:
    """A variable used on the right-hand side of a comparison."""

    name: str


@dataclass(frozen=True)
class Atom:
    rel: str
    lhs: str
    rhs: Union[Value, Var]


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class GroupSeesVar:
    mode: GroupMode
    group: Tuple[str, ...]
    var: str


@dataclass(frozen=True)
class GroupSees:
    mode: GroupMode
    group: Tuple[str, ...]
    child: "Formula"


@dataclass(frozen=True)
class GroupKnows:
    mode: GroupMode
    group: Tuple[str, ...]
    child: "Formula"


@dataclass(frozen=True)
class GroupBelieves:
    mode: GroupMode
    group: Tuple[str, ...]
    child: "Formula"


Formula = Union[Atom, Not, And, GroupSeesVar, GroupSees, GroupKnows, GroupBelieves]


# An individual operator is the UNIFORM operator of a group of one agent:
# `SeesVar("a", v)` builds `GroupSeesVar(GroupMode.UNIFORM, ("a",), v)`, and
# likewise for the others. No AST node has these classes as its type.

class SeesVar(GroupSeesVar):
    def __new__(cls, agent: str, var: str) -> GroupSeesVar:
        return GroupSeesVar(GroupMode.UNIFORM, (agent,), var)


class Sees(GroupSees):
    def __new__(cls, agent: str, child: Formula) -> GroupSees:
        return GroupSees(GroupMode.UNIFORM, (agent,), child)


class Knows(GroupKnows):
    def __new__(cls, agent: str, child: Formula) -> GroupKnows:
        return GroupKnows(GroupMode.UNIFORM, (agent,), child)


class Believes(GroupBelieves):
    def __new__(cls, agent: str, child: Formula) -> GroupBelieves:
        return GroupBelieves(GroupMode.UNIFORM, (agent,), child)


def make_group(names: Iterable[str]) -> Tuple[str, ...]:
    """Canonical group: sorted, duplicate-free."""
    return tuple(sorted(dict.fromkeys(names)))


def validate_formula(sig: Signature, phi: Formula) -> None:
    """Reject undeclared names, ill-typed atoms and beliefs nested under
    seeing/knowledge operators (the grammar forbids seeing or knowing a belief)."""
    _validate(sig, phi, False)


def _validate(sig: Signature, phi: Formula, inside_knowledge: bool) -> None:
    if isinstance(phi, Atom):
        _validate_atom(sig, phi)
    elif isinstance(phi, Not):
        _validate(sig, phi.child, inside_knowledge)
    elif isinstance(phi, And):
        _validate(sig, phi.left, inside_knowledge)
        _validate(sig, phi.right, inside_knowledge)
    elif isinstance(phi, GroupSeesVar):
        _check_group(sig, phi.group)
        sig.domain(phi.var)
    elif isinstance(phi, (GroupSees, GroupKnows)):
        _check_group(sig, phi.group)
        _validate(sig, phi.child, True)
    elif isinstance(phi, GroupBelieves):
        if inside_knowledge:
            raise ValidationError("a belief operator may not appear under seeing/knowledge")
        _check_group(sig, phi.group)
        _validate(sig, phi.child, False)
    else:
        raise ValidationError(f"not a formula node: {phi!r}")


def _validate_atom(sig: Signature, atom: Atom) -> None:
    if atom.rel not in RELATIONS:
        raise ValidationError(f"unknown relation {atom.rel!r}")
    lhs_kind = sig.domain_kind(atom.lhs)
    if isinstance(atom.rhs, Var):
        rhs_kind = sig.domain_kind(atom.rhs.name)
    else:
        rhs_kind = value_kind(atom.rhs)
        if rhs_kind == "symbol" and not sig.in_domain(atom.lhs, atom.rhs):
            raise ValidationError(
                f"symbol {atom.rhs!r} is not in the domain of {atom.lhs!r}"
            )
    if lhs_kind != rhs_kind:
        raise ValidationError(
            f"relation {atom.rel!r} compares {atom.lhs!r} ({lhs_kind}) with "
            f"{'an' if rhs_kind == 'int' else 'a'} {rhs_kind} operand"
        )
    if atom.rel in _ORDERED and lhs_kind != "int":
        raise ValidationError(f"relation {atom.rel!r} requires integer operands")


def _check_group(sig: Signature, group: Tuple[str, ...]) -> None:
    if not group:
        raise ValidationError("a group must contain at least one agent")
    if len(set(group)) != len(group):
        raise ValidationError(f"group {group!r} contains duplicates")
    for agent in group:
        if not sig.is_agent(agent):
            raise ValidationError(f"unknown agent {agent!r}")


def interpret_atom(state: State, atom: Atom) -> Ternary:
    """Atomic comparison against one state.

    True/false when all operands are assigned; unknown when any operand is
    missing, since the relation is undefined there.
    """
    index, vals = state.sig.index, state.vals
    at = index.get(atom.lhs)
    left = None if at is None else vals[at]
    right = atom.rhs
    if type(right) is Var:
        at = index.get(right.name)
        right = None if at is None else vals[at]
    if left is None or right is None:
        return _UNKNOWN
    return _VERDICT[_COMPARE[atom.rel](left, right)]
