"""Built-in observation models for the benchmark domains.

All three follow the same pattern: a handful of bookkeeping variables
(peeking flags, locations, camera directions) are transparent — visible to
every agent all the time — while the payload variables are gated by the
bookkeeping. Because gating only ever consults values present in the state,
the models are monotone and idempotent by construction. Each declares the
bookkeeping variables an agent's gating reads (`gate_variables`): its own
peeking flag, its own location and every broadcast channel, or its own
direction.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional, Tuple

from .core import Signature, State, ValidationError
from .perspectives import ObservationModel, register_model


class NumberModel(ObservationModel):
    """Box domain: peeking flags are common knowledge, box contents are not.

    Every agent always sees all ``peeking_*`` flags and the agent markers;
    agent i sees any other variable exactly while ``peeking_i`` is true.
    """

    def __init__(self, sig: Signature):
        flags = {}
        for agent in sig.agents:
            flag = f"peeking_{agent}"
            if flag not in sig.index:
                raise ValidationError(f"number model needs a {flag!r} variable")
            if sig.domain_kind(flag) != "bool":
                raise ValidationError(f"{flag!r} must be boolean")
            flags[agent] = flag
        self._flag_of = flags
        self._gates = {agent: frozenset([flag]) for agent, flag in flags.items()}
        self._transparent = frozenset(sig.agents) | frozenset(flags.values())

    def transparent_variables(self) -> FrozenSet[str]:
        return self._transparent

    def gate_variables(self, agent: str) -> FrozenSet[str]:
        return self._gates[agent]

    def sees(self, agent: str, state: State, var: str) -> bool:
        if var in self._transparent:
            return True
        return state.get(self._flag_of[agent]) is True


def _no_config(model: str, config: list) -> None:
    """Refuse `obs-config` lines for a model that reads none, rather than
    drop them."""
    if config:
        raise ValidationError(f"the {model} model takes no obs-config lines, got: "
                              f"{' '.join(config[0])}")


@register_model("number")
def _number_factory(sig: Signature, config: list) -> NumberModel:
    _no_config("number", config)
    return NumberModel(sig)


class GrapevineModel(ObservationModel):
    """Two rooms, personal secrets, room-local broadcasts.

    Locations and agent markers are always visible. An agent always sees its
    own secret. Another agent sees secret x only in states where a broadcast
    of x is active (``told_x`` names a room) and the agent is in that room;
    the broadcast marker itself is visible under the same co-location rule.
    Memory of a heard secret is carried by the perspective machinery, not by
    the state.
    """

    def __init__(self, sig: Signature):
        self._loc_of: Dict[str, str] = {}
        for agent in sig.agents:
            loc = f"loc_{agent}"
            if loc not in sig.index:
                raise ValidationError(f"grapevine model needs a {loc!r} variable")
            self._loc_of[agent] = loc
        self._owner_of: Dict[str, str] = {}
        self._channel_of: Dict[str, str] = {}
        for var in sig.variables:
            if var.startswith("sct_"):
                owner = var[len("sct_"):]
                if owner not in sig.agents:
                    raise ValidationError(f"secret {var!r} does not belong to an agent")
                self._owner_of[var] = owner
                channel = f"told_{owner}"
                if channel in sig.index:
                    self._channel_of[var] = channel
        self._channels = frozenset(self._channel_of.values())
        self._transparent = frozenset(sig.agents) | frozenset(self._loc_of.values())
        self._gates = {agent: self._channels | {loc} for agent, loc in self._loc_of.items()}

    def transparent_variables(self) -> FrozenSet[str]:
        return self._transparent

    def gate_variables(self, agent: str) -> FrozenSet[str]:
        return self._gates[agent]

    def _hears(self, agent: str, state: State, channel: str) -> bool:
        room = state.get(channel)
        if room is None or room == "none":
            return False
        return state.get(self._loc_of[agent]) == room

    def sees(self, agent: str, state: State, var: str) -> bool:
        if var in self._transparent:
            return True
        owner = self._owner_of.get(var)
        if owner is not None:
            if owner == agent:
                return True
            channel = self._channel_of.get(var)
            return channel is not None and self._hears(agent, state, channel)
        if var in self._channels:
            return self._hears(agent, state, var)
        return False


@register_model("grapevine")
def _grapevine_factory(sig: Signature, config: list) -> GrapevineModel:
    _no_config("grapevine", config)
    return GrapevineModel(sig)


class BBLModel(ObservationModel):
    """Stationary cameras on a grid, each with a 90-degree field of view.

    Camera directions (and the fixed positions, which are configuration, not
    state) are visible to all cameras. A camera sees an object variable when
    the angle between its direction and the bearing of the object's position
    is strictly below 45 degrees; an object placed exactly at the camera is
    always in view.
    """

    def __init__(self, sig: Signature, positions: Dict[str, Tuple[int, int]]):
        self._dir_of: Dict[str, str] = {}
        for agent in sig.agents:
            dvar = f"dir_{agent}"
            if dvar not in sig.index:
                raise ValidationError(f"bbl model needs a {dvar!r} variable")
            if agent not in positions:
                raise ValidationError(f"bbl model needs a position for camera {agent!r}")
            self._dir_of[agent] = dvar
        dir_vars = frozenset(self._dir_of.values())
        self._transparent = frozenset(sig.agents) | dir_vars
        self._gates = {agent: frozenset([dvar]) for agent, dvar in self._dir_of.items()}
        self._objects = tuple(v for v in sig.variables if v not in self._transparent)
        for obj in self._objects:
            if obj not in positions:
                raise ValidationError(f"bbl model needs a position for object {obj!r}")
        # bearing from each camera to each object, None for zero distance
        self._bearing: Dict[Tuple[str, str], Optional[float]] = {}
        for agent in sig.agents:
            ax, ay = positions[agent]
            for obj in self._objects:
                ox, oy = positions[obj]
                dx, dy = ox - ax, oy - ay
                self._bearing[(agent, obj)] = None if dx == 0 and dy == 0 else _angle(dx, dy)

    def transparent_variables(self) -> FrozenSet[str]:
        return self._transparent

    def gate_variables(self, agent: str) -> FrozenSet[str]:
        return self._gates[agent]

    def sees(self, agent: str, state: State, var: str) -> bool:
        if var in self._transparent:
            return True
        if var not in self._objects:
            return False
        facing = state.get(self._dir_of[agent])
        if facing is None:
            return False
        bearing = self._bearing[(agent, var)]
        if bearing is None:
            return True
        return _angle_between(float(facing), bearing) < 45.0


def _angle(dx: int, dy: int) -> float:
    """Bearing of (dx, dy) in degrees; exact on the eight compass rays."""
    if dx == 0 or dy == 0 or abs(dx) == abs(dy):
        step_x = (dx > 0) - (dx < 0)
        step_y = (dy > 0) - (dy < 0)
        return {
            (1, 0): 0.0, (1, 1): 45.0, (0, 1): 90.0, (-1, 1): 135.0,
            (-1, 0): 180.0, (-1, -1): -135.0, (0, -1): -90.0, (1, -1): -45.0,
        }[(step_x, step_y)]
    return math.degrees(math.atan2(dy, dx))


def _angle_between(a: float, b: float) -> float:
    diff = abs(a - b) % 360.0
    return min(diff, 360.0 - diff)


@register_model("bbl")
def _bbl_factory(sig: Signature, config: list) -> BBLModel:
    positions: Dict[str, Tuple[int, int]] = {}
    for entry in config:
        if not entry or entry[0] != "pos":
            raise ValidationError(f"unknown bbl configuration entry: {' '.join(entry)}")
        if len(entry) != 4:
            raise ValidationError("bbl position entries look like: pos <name> <x> <y>")
        _, name, x, y = entry
        try:
            positions[name] = (int(x), int(y))
        except ValueError:
            raise ValidationError(f"bbl position for {name!r} must be two integers") from None
    return BBLModel(sig, positions)
