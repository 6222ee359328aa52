"""Energy model: per-edge costs, the search heuristic, and config parsing."""

import dataclasses
import json
import math

import pytest

from morphnav.costmodel import CostModel, config_from_dict, cost_section
from morphnav.errors import ConfigError
from morphnav.localnav import DwaParams
from morphnav.rng import SplitMix64
from morphnav.roadmap import PrmParams
from morphnav.sim import SimConfig

CM = CostModel()


def test_default_parameters():
    assert CM.ground_power == 120.0
    assert CM.ground_speed == 1.0
    assert CM.flight_power == 600.0
    assert CM.flight_speed == 1.0
    assert CM.morph_power == 50.0
    assert CM.morph_duration == 4.0
    assert CM.mass == 6.0
    assert CM.gravity == 9.81


# -- frozen edge costs -------------------------------------------------------


def test_ground_edge_cost():
    assert CM.ground_edge_cost(3.0) == 360.0
    assert CM.ground_edge_cost(0.0) == 0.0
    with pytest.raises(ValueError):
        CM.ground_edge_cost(-1.0)


def test_flight_edge_cost_level_and_climb():
    assert CM.flight_edge_cost(2.0, 1.5, 1.5) == 1200.0
    # 1 m pure climb: hover energy plus m*g*h.
    assert abs(CM.flight_edge_cost(1.0, 0.0, 1.0) - 658.86) < 1e-9
    # Descent credits potential energy.
    assert abs(CM.flight_edge_cost(1.0, 1.0, 0.0) - 541.14) < 1e-9


def test_flight_edge_cost_clamps_at_zero():
    # A cheap-hover, heavy model can make a steep descent net-negative;
    # recovered energy never goes below zero.
    cm = CostModel(ground_power=1.0, ground_speed=1.0, flight_power=2.0,
                   flight_speed=1.0, mass=50.0, gravity=9.81)
    assert cm.flight_edge_cost(10.0, 10.0, 0.0) == 0.0


def test_flight_edge_rejects_impossible_geometry():
    with pytest.raises(ValueError):
        CM.flight_edge_cost(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        CM.flight_edge_cost(-1.0, 0.0, 0.0)
    # Exactly vertical is legal.
    assert CM.flight_edge_cost(1.0, 0.0, 1.0) > 0.0


def test_transition_cost():
    assert CM.transition_cost() == 200.0


def test_costs_scale_linearly():
    rng = SplitMix64(3)
    for _ in range(50):
        d1 = rng.uniform(0.1, 5.0)
        d2 = rng.uniform(0.1, 5.0)
        whole = CM.ground_edge_cost(d1 + d2)
        assert CM.ground_edge_cost(d1) + CM.ground_edge_cost(d2) == pytest.approx(
            whole, rel=1e-12
        )


def test_flight_cost_telescopes_over_a_split_climb():
    rng = SplitMix64(4)
    for _ in range(50):
        za, zb = rng.uniform(0.0, 2.0), rng.uniform(2.0, 5.0)
        zm = za + (zb - za) * rng.random()
        length = abs(zb - za) * rng.uniform(1.0, 3.0)
        f = abs(zm - za) / abs(zb - za)
        split = CM.flight_edge_cost(length * f, za, zm) + CM.flight_edge_cost(
            length * (1.0 - f), zm, zb
        )
        assert split == pytest.approx(CM.flight_edge_cost(length, za, zb), rel=1e-9)


# -- validation -----------------------------------------------------------------


def test_rejects_non_positive_parameters():
    for key in ("ground_power", "ground_speed", "flight_power", "flight_speed",
                "morph_power", "morph_duration", "mass", "gravity"):
        with pytest.raises(ConfigError):
            CostModel(**{key: 0.0})
        with pytest.raises(ConfigError):
            CostModel(**{key: -1.0})
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                CostModel(**{key: bad})


def test_rejects_ground_travel_dearer_than_flight():
    # The heuristic charges horizontal motion at the ground rate, which is
    # only a lower bound while driving a meter is the cheaper option.
    with pytest.raises(ConfigError):
        CostModel(ground_power=700.0)


# -- heuristic -------------------------------------------------------------------


def test_heuristic_frozen_values():
    assert abs(CM.heuristic((0.0, 0.0, 0.0), (3.0, 4.0, 1.0)) - 658.86) < 1e-9
    # Descent earns no credit in the bound.
    assert CM.heuristic((0.0, 0.0, 1.0), (3.0, 4.0, 0.0)) == 600.0
    assert CM.heuristic((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0


def test_heuristic_never_exceeds_any_edge_cost():
    rng = SplitMix64(7)
    for _ in range(500):
        a = (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), rng.uniform(0.0, 5.0))
        b = (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), rng.uniform(0.0, 5.0))
        h = CM.heuristic(a, b)
        d = math.dist(a, b)
        assert h >= 0.0
        assert h <= CM.flight_edge_cost(d, a[2], b[2]) + 1e-9
        assert h <= CM.transition_cost() + CM.flight_edge_cost(d, a[2], b[2]) + 1e-9
    # Coplanar pairs exercise the ground-edge bound.
    for _ in range(200):
        a = (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), 0.0)
        b = (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), 0.0)
        assert CM.heuristic(a, b) <= CM.ground_edge_cost(math.dist(a, b)) + 1e-9


def test_heuristic_triangle_inequality():
    # h(a, g) <= edge(a, b) + h(b, g) for every edge kind keeps closed-set
    # search safe. Flight edges are the binding case; ground edges follow
    # because they cost at least the heuristic of their own span.
    rng = SplitMix64(8)
    for _ in range(300):
        pts = [
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 4.0))
            for _ in range(3)
        ]
        a, b, g = pts
        edge = CM.flight_edge_cost(math.dist(a, b), a[2], b[2])
        assert CM.heuristic(a, g) <= edge + CM.heuristic(b, g) + 1e-9
        assert CM.heuristic(b, g) <= edge + CM.heuristic(a, g) + 1e-9


# -- config parsing ---------------------------------------------------------------


def test_from_dict_partial_and_unknown():
    cm = config_from_dict(CostModel, {"mass": 7.5}, "cost")
    assert cm.mass == 7.5
    assert cm.ground_power == 120.0
    with pytest.raises(ConfigError):
        config_from_dict(CostModel, {"thrust": 1.0}, "cost")
    with pytest.raises(ConfigError):
        config_from_dict(CostModel, {"mass": "heavy"}, "cost")


def test_config_values_take_field_types():
    assert config_from_dict(CostModel, {"mass": 7}, "cost").mass == 7.0
    assert config_from_dict(PrmParams, {"z_max": None}, "prm").z_max is None
    assert config_from_dict(PrmParams, {"z_max": 2}, "prm").z_max == 2.0
    assert config_from_dict(SimConfig, {"assume_flyable": False}, "sim").assume_flyable is False
    for cls, d in (
        (CostModel, {"mass": True}),
        (CostModel, {"mass": None}),
        (DwaParams, {"samples_v": 7.0}),
        (DwaParams, {"samples_v": True}),
        (PrmParams, {"n_ground": "300"}),
        (SimConfig, {"assume_flyable": 1}),
        (SimConfig, {"dt": 10**400}),
    ):
        with pytest.raises(ConfigError):
            config_from_dict(cls, d, "section")
    with pytest.raises(ConfigError, match="'dwa' section must be an object"):
        config_from_dict(DwaParams, [1.0], "dwa")


def test_config_round_trip():
    cm = CostModel(mass=5.0, flight_power=500.0)
    assert config_from_dict(CostModel, dataclasses.asdict(cm), "cost") == cm


@pytest.mark.parametrize(
    "cls, section, non_finite, non_positive, negative, negative_rule",
    [
        # Every cost parameter must be positive, so a negative one is too.
        (CostModel, "cost", "mass", "ground_speed", "morph_power", "positive"),
        (PrmParams, "prm", "clearance", "radius", "n_ground", "non-negative"),
        (DwaParams, "dwa", "d_sat", "dt", "w_clearance", "non-negative"),
        (SimConfig, "sim", "pose_noise_sigma", "goal_tolerance", "landing_tolerance",
         "non-negative"),
    ],
)
def test_range_errors_name_section_and_key(
    cls, section, non_finite, non_positive, negative, negative_rule
):
    # One range check serves every config dataclass, and config_from_dict
    # reports the same message as direct construction.
    bad_negative = -1 if isinstance(getattr(cls(), negative), int) else -1.0
    for key, value, want in (
        (non_finite, math.nan, "must be finite, got nan"),
        (non_positive, 0.0, "must be positive, got 0.0"),
        (negative, bad_negative, f"must be {negative_rule}, got {bad_negative!r}"),
    ):
        message = f"{section} parameter '{key}' {want}"
        with pytest.raises(ConfigError) as direct:
            cls(**{key: value})
        assert str(direct.value) == message
        with pytest.raises(ConfigError) as parsed:
            config_from_dict(cls, {key: value}, section)
        assert str(parsed.value) == message


def test_default_config_file_matches_defaults():
    from pathlib import Path

    from morphnav.cli import _load_configs

    path = Path(__file__).resolve().parents[1] / "scenarios" / "default_costs.json"
    assert _load_configs(str(path)) == (CostModel(), DwaParams(), SimConfig())
    # The file restates every default, so it names every field.
    raw = json.loads(path.read_text())
    sections = ((CostModel, cost_section(raw)), (DwaParams, raw["dwa"]), (SimConfig, raw["sim"]))
    for cls, block in sections:
        assert sorted(block) == sorted(f.name for f in dataclasses.fields(cls)), cls
