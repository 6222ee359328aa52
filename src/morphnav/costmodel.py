"""Energy cost model for driving, flying, and morphing between the two.

Driving and hovering are modeled as constant electrical power draws at a
constant commanded speed, so a traversal of length d costs power * d / speed.
Flight additionally pays the potential energy of any net climb and recovers
it on descent, floored at zero per edge. Morphing is a fixed-duration,
fixed-power maneuver.

Default power/speed numbers are calibration placeholders for a roughly
6 kg morphing robot; only the mass is a measured value. Calibrate the
rest against hardware before trusting absolute energy figures.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Energy parameters, SI units throughout.

    ground_power: electrical draw while driving (W).
    ground_speed: commanded driving speed (m/s).
    flight_power: electrical draw while airborne (W).
    flight_speed: commanded flight speed (m/s).
    morph_power: draw during a reconfiguration (W).
    morph_duration: time one reconfiguration takes (s).
    mass: vehicle mass (kg).
    gravity: gravitational acceleration (m/s^2).
    """

    ground_power: float = 120.0
    ground_speed: float = 1.0
    flight_power: float = 600.0
    flight_speed: float = 1.0
    morph_power: float = 50.0
    morph_duration: float = 4.0
    mass: float = 6.0
    gravity: float = 9.81

    def __post_init__(self):
        for key, value in self.to_dict().items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"cost parameter '{key}' must be positive and finite")
        # The lower-bound heuristic charges horizontal travel at the ground
        # rate, which is only valid when flying a meter never beats driving it.
        if self.ground_power / self.ground_speed > self.flight_power / self.flight_speed:
            raise ConfigError(
                "ground energy per meter must not exceed flight energy per "
                "meter (ground_power/ground_speed <= flight_power/flight_speed)"
            )

    # -- per-edge costs -----------------------------------------------------

    def ground_edge_cost(self, length: float) -> float:
        """Energy (J) to drive `length` meters."""
        if length < 0.0:
            raise ValueError("length must be non-negative")
        return self.ground_power * length / self.ground_speed

    def flight_edge_cost(self, length: float, z_a: float, z_b: float) -> float:
        """Energy (J) to fly a straight segment from altitude z_a to z_b.

        Hover power for the traversal time plus the potential energy of the
        altitude change; descents recover potential but never below zero.
        """
        if length < 0.0:
            raise ValueError("length must be non-negative")
        if length + 1e-12 < abs(z_b - z_a):
            raise ValueError("segment length cannot be less than its altitude change")
        raw = self.flight_power * length / self.flight_speed + self.mass * self.gravity * (
            z_b - z_a
        )
        return max(0.0, raw)

    def transition_cost(self) -> float:
        """Energy (J) for one reconfiguration."""
        return self.morph_power * self.morph_duration

    # -- heuristics -----------------------------------------------------------

    def heuristic(self, position, goal) -> float:
        """Lower bound on remaining cost-to-goal.

        Horizontal distance is charged at the ground rate (never above the
        flight rate, by construction) and any net climb at pure potential
        energy. Keeps A* admissible and consistent on flat-ground worlds.
        """
        dx = goal[0] - position[0]
        dy = goal[1] - position[1]
        d_xy = math.hypot(dx, dy)
        climb = max(0.0, goal[2] - position[2])
        return (self.ground_power / self.ground_speed) * d_xy + self.mass * self.gravity * climb

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def config_from_dict(cls, d, section: str):
    """Build the config dataclass `cls` from one section of a config file.

    Allowed keys are the dataclass fields; missing keys keep the field
    defaults. Each value must have the type of its field's default: a JSON
    boolean for a bool field, an integer for an int field, and a finite
    number (json.load also reads NaN and Infinity) for any other field, where
    `null` is also accepted if the default is None. Raises ConfigError
    naming `section` on any other input.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"'{section}' section must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {section} parameter(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in d.items():
        default = fields[key].default
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(value, bool):
            ok = False
        elif isinstance(default, int):
            ok = isinstance(value, int)
        else:
            ok = isinstance(value, (int, float)) or (value is None and default is None)
            if ok and value is not None:
                try:
                    value = float(value)
                except OverflowError:
                    ok = False
        if not ok:
            want = {bool: "true or false", int: "an integer"}.get(type(default), "a number")
            raise ConfigError(f"{section} parameter '{key}' must be {want}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section} parameter '{key}' must be finite, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def load_config_file(path) -> dict:
    """Read a JSON file holding one object: a cost config or a scenario."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError("config file must hold a JSON object")
    return d


def cost_section(d: dict) -> dict:
    """The cost-model part of a config file: every top-level key except the
    `dwa` and `sim` controller sections."""
    return {k: v for k, v in d.items() if k not in ("dwa", "sim")}

