"""Energy cost model for driving, flying, and morphing between the two.

Driving and hovering are modeled as constant electrical power draws at a
constant commanded speed, so a traversal of length d costs power * d / speed.
Flight additionally pays the potential energy of any net climb and recovers
it on descent; CostModel keeps every flight price positive. Morphing is a
fixed-duration, fixed-power maneuver. `roadmap.edge_costs` prices edges
with these parameters and `roadmap.heuristic_costs` bounds them for A*;
this module holds the parameters and the morph cost.

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


def check_fields(obj, section: str, positive=(), non_negative=()) -> None:
    """Range check of the config dataclass `obj`: every float field must be
    finite, each field named in `positive` above zero and each named in
    `non_negative` at least zero. Raises ConfigError naming `section` and
    the key."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section} parameter '{f.name}' must be finite, got {value!r}")
    for key in positive:
        value = getattr(obj, key)
        if not value > 0:
            raise ConfigError(f"{section} parameter '{key}' must be positive, got {value!r}")
    for key in non_negative:
        value = getattr(obj, key)
        if value < 0:
            raise ConfigError(f"{section} parameter '{key}' must be non-negative, got {value!r}")


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
        check_fields(self, "cost", positive=[f.name for f in dataclasses.fields(self)])
        # Finite parameters can still overflow in the products every price
        # uses; inf * 0 would then price a level flight edge as NaN.
        for name, value in (
            ("mass * gravity", self.mass * self.gravity),
            ("ground_power / ground_speed", self.ground_power / self.ground_speed),
            ("flight_power / flight_speed", self.flight_power / self.flight_speed),
            ("morph_power * morph_duration", self.transition_cost()),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"cost product '{name}' must be finite, got {value!r}")
        # A flight price serves both ways: climbing an edge stored as falling
        # costs F * L - m * g * |dz|, while roadmap.heuristic_costs drops by up
        # to G * dxy + m * g * |dz|. F >= hypot(G, 2 * m * g) bounds the drop.
        flight = self.flight_power / self.flight_speed
        need = math.hypot(self.ground_power / self.ground_speed, 2.0 * self.mass * self.gravity)
        if not flight >= need:
            raise ConfigError(
                f"flight energy per meter flight_power/flight_speed = {flight:.9g} J/m must be at "
                f"least hypot(ground_power/ground_speed, 2 * mass * gravity) = {need:.9g} J/m"
            )

    def transition_cost(self) -> float:
        """Energy (J) for one reconfiguration."""
        return self.morph_power * self.morph_duration


def config_from_dict(cls, d, section: str):
    """Build the config dataclass `cls` from one section of a config file.

    Allowed keys are the dataclass fields; missing keys keep the field
    defaults. Each value must have the type of its field's default: a JSON
    boolean for a bool field, an integer for an int field, and a number
    (json_number) for any other field, where `null` is also accepted if the
    default is None. Raises ConfigError naming `section` on any other input;
    ranges, finiteness included, are the dataclass's own check (check_fields).
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
        field = f"{section} parameter '{key}'"
        if isinstance(default, int):  # bool or int: the exact type, so True is no int
            if type(value) is not type(default):
                want = "true or false" if isinstance(default, bool) else "an integer"
                raise ConfigError(f"{field} must be {want}, got {value!r}")
        elif value is not None or default is not None:
            value = json_number(value, field)
        kwargs[key] = value
    return cls(**kwargs)


def json_number(value, field: str) -> float:
    """A JSON number (not a boolean) as a float; ConfigError naming `field`
    otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{field} must be a number, got {value!r}")


def json_finite(value, field: str) -> float:
    """A finite JSON number as a float (json.load also reads NaN and
    Infinity); ConfigError naming `field` otherwise."""
    x = json_number(value, field)
    if not math.isfinite(x):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return x


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

