"""Energy model: edge pricing, the search heuristic, and config parsing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from morphnav.costmodel import CostModel, config_from_dict, cost_section
from morphnav.env import load_environment
from morphnav.errors import ConfigError
from morphnav.localnav import DwaParams
from morphnav.rng import SplitMix64
from morphnav.roadmap import (
    EDGE_KINDS, EdgeKind, PrmParams, build_roadmap, edge_costs, heuristic_costs
)
from morphnav.sim import SimConfig
from reference import ARENA, CM, REPO, ref_heuristic, uniform


def test_default_parameters():
    assert CM.ground_power == 120.0
    assert CM.ground_speed == 1.0
    assert CM.flight_power == 600.0
    assert CM.flight_speed == 1.0
    assert CM.morph_power == 50.0
    assert CM.morph_duration == 4.0
    assert CM.mass == 6.0
    assert CM.gravity == 9.81


# -- frozen edge costs: roadmap.edge_costs, the planner's pricing --------------


def _price(kind, length, z_a=0.0, z_b=0.0, cm=CM):
    """roadmap.edge_costs on edges of one kind; arrays or scalars."""
    length = np.asarray(length, dtype=float)
    code = np.full(length.shape, EDGE_KINDS.index(kind), dtype=np.int8)
    return edge_costs(cm, code, length, np.asarray(z_a, dtype=float), np.asarray(z_b, dtype=float))


def test_ground_edge_cost():
    assert _price(EdgeKind.GROUND, [3.0, 0.0]).tolist() == [360.0, 0.0]


def test_flight_edge_cost_level_and_climb():
    # Level, a 1 m pure climb (hover energy plus m*g*h) and a 1 m descent,
    # which credits potential energy.
    got = _price(EdgeKind.FLIGHT, [2.0, 1.0, 1.0], [1.5, 0.0, 1.0], [1.5, 1.0, 0.0])
    assert got[0] == 1200.0
    assert np.abs(got[1:] - [658.86, 541.14]).max() < 1e-9
    # A transition pays one morph on top of the same flight.
    assert _price(EdgeKind.TRANSITION, 2.0, 1.5, 1.5) == 1400.0


def test_flight_edge_cost_clamps_at_zero():
    # A cheap-hover, heavy model can make a steep descent net-negative;
    # recovered energy never goes below zero.
    cm = CostModel(ground_power=1.0, ground_speed=1.0, flight_power=2.0,
                   flight_speed=1.0, mass=50.0, gravity=9.81)
    assert _price(EdgeKind.FLIGHT, 10.0, 10.0, 0.0, cm=cm) == 0.0
    assert _price(EdgeKind.TRANSITION, 10.0, 10.0, 0.0, cm=cm) == cm.transition_cost()


def test_transition_cost():
    assert CM.transition_cost() == 200.0


def test_costs_scale_linearly():
    rng = SplitMix64(3)
    d1, d2 = np.array([[uniform(rng, 0.1, 5.0) for _ in range(2)] for _ in range(50)]).T
    whole = _price(EdgeKind.GROUND, d1 + d2)
    assert _price(EdgeKind.GROUND, d1) + _price(EdgeKind.GROUND, d2) == pytest.approx(
        whole, rel=1e-12
    )


def test_flight_cost_telescopes_over_a_split_climb():
    rng = SplitMix64(4)
    cases = []
    for _ in range(50):
        za, zb = uniform(rng, 0.0, 2.0), uniform(rng, 2.0, 5.0)
        zm = za + (zb - za) * rng.random()
        cases.append((za, zb, zm, abs(zb - za) * uniform(rng, 1.0, 3.0)))
    za, zb, zm, length = np.array(cases).T
    f = np.abs(zm - za) / np.abs(zb - za)
    split = _price(EdgeKind.FLIGHT, length * f, za, zm) + _price(
        EdgeKind.FLIGHT, length * (1.0 - f), zm, zb
    )
    assert split == pytest.approx(_price(EdgeKind.FLIGHT, length, za, zb), rel=1e-9)


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
    # Finite parameters whose products overflow: with m*g = inf, a level
    # flight edge would cost inf * 0 = NaN.
    for kwargs in ({"mass": 1e308}, {"ground_power": 1e300, "ground_speed": 1e-10},
                   {"flight_power": 1e300, "flight_speed": 1e-10},
                   {"morph_power": 1e308, "morph_duration": 10.0}):
        with pytest.raises(ConfigError, match="cost product '.*' must be finite, got inf"):
            CostModel(**kwargs)


def test_rejects_ground_travel_dearer_than_flight():
    # The heuristic charges horizontal motion at the ground rate, which is
    # only a lower bound while driving a meter is the cheaper option.
    with pytest.raises(ConfigError):
        CostModel(ground_power=700.0)


# -- heuristic -------------------------------------------------------------------


def _bound(starts, goals):
    """roadmap.heuristic_costs from each start to the goal of its row."""
    return np.array([heuristic_costs(CM, [p], g)[0] for p, g in zip(starts, goals)])


def test_heuristic_frozen_values():
    assert abs(heuristic_costs(CM, [(0.0, 0.0, 0.0)], (3.0, 4.0, 1.0))[0] - 658.86) < 1e-9
    # Descent earns no credit in the bound.
    assert heuristic_costs(CM, [(0.0, 0.0, 1.0)], (3.0, 4.0, 0.0))[0] == 600.0
    assert heuristic_costs(CM, [(1.0, 2.0, 3.0)], (1.0, 2.0, 3.0))[0] == 0.0


def _assert_bits_match_reference(positions, goal):
    """heuristic_costs toward `goal` equals ref_heuristic bit for bit on
    every row whose largest horizontal difference is zero or at least
    2**-1024: below that, env.distances and math.dist may differ in the last
    bits on Python 3.10 and 3.11."""
    goal = list(goal)
    got = heuristic_costs(CM, positions, goal)
    want = np.array([ref_heuristic(CM, p, goal) for p in positions.tolist()])
    big = np.abs(positions[:, :2] - goal[:2]).max(axis=1)
    keep = (big == 0.0) | (big >= 2.0**-1024)
    assert got[keep].tobytes() == want[keep].tobytes()


def test_heuristic_costs_match_scalar_reference_bit_for_bit():
    rng = SplitMix64(9)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e8, 1e150):
        rows = np.array([[uniform(rng, -scale, scale) for _ in range(3)] for _ in range(2000)])
        for goal in rows[:10].tolist():
            _assert_bits_match_reference(rows, goal)
    env = load_environment(ARENA)
    for seed in (1, 2, 3):
        rm = build_roadmap(env, CM, PrmParams(
            seed=seed, n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4
        ))
        for _ in range(17):
            goal = rm.positions[rng.randint(len(rm.positions))]
            _assert_bits_match_reference(rm.positions, goal)


def test_heuristic_never_exceeds_any_edge_cost():
    rng = SplitMix64(7)

    def point(z_hi):
        return (uniform(rng, 0.0, 20.0), uniform(rng, 0.0, 20.0), uniform(rng, 0.0, z_hi))

    pairs = [(point(5.0), point(5.0)) for _ in range(500)]
    a, b = np.array(pairs).transpose(1, 2, 0)
    h = _bound(*zip(*pairs))
    d = np.array([math.dist(p, q) for p, q in pairs])
    assert (h >= 0.0).all()
    assert (h <= _price(EdgeKind.FLIGHT, d, a[2], b[2]) + 1e-9).all()
    assert (h <= _price(EdgeKind.TRANSITION, d, a[2], b[2]) + 1e-9).all()
    # Coplanar pairs exercise the ground-edge bound.
    pairs = [((uniform(rng, 0.0, 20.0), uniform(rng, 0.0, 20.0), 0.0),
              (uniform(rng, 0.0, 20.0), uniform(rng, 0.0, 20.0), 0.0)) for _ in range(200)]
    h = _bound(*zip(*pairs))
    d = np.array([math.dist(p, q) for p, q in pairs])
    assert (h <= _price(EdgeKind.GROUND, d) + 1e-9).all()


def test_heuristic_triangle_inequality():
    # h(a, g) <= edge(a, b) + h(b, g) for every edge kind keeps closed-set
    # search safe. Flight edges are the binding case; ground edges follow
    # because they cost at least the heuristic of their own span.
    rng = SplitMix64(8)
    triples = [
        [(uniform(rng, 0.0, 10.0), uniform(rng, 0.0, 10.0), uniform(rng, 0.0, 4.0))
         for _ in range(3)]
        for _ in range(300)
    ]
    d = np.array([math.dist(a, b) for a, b, _ in triples])
    za, zb = np.array([(a[2], b[2]) for a, b, _ in triples]).T
    edge = _price(EdgeKind.FLIGHT, d, za, zb)
    a, b, g = zip(*triples)
    ha, hb = _bound(a, g), _bound(b, g)
    assert (ha <= edge + hb + 1e-9).all()
    assert (hb <= edge + ha + 1e-9).all()


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
    from morphnav.cli import _load_configs

    path = REPO / "scenarios" / "default_costs.json"
    assert _load_configs(str(path)) == (CostModel(), DwaParams(), SimConfig())
    # The file restates every default, so it names every field.
    raw = json.loads(path.read_text())
    sections = ((CostModel, cost_section(raw)), (DwaParams, raw["dwa"]), (SimConfig, raw["sim"]))
    for cls, block in sections:
        assert sorted(block) == sorted(f.name for f in dataclasses.fields(cls)), cls
