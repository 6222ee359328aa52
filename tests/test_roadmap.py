"""Roadmap construction: seeded sampling, connection rules, query insertion."""

import math

import pytest

from morphnav.costmodel import CostModel
from morphnav.env import Aabb, Environment
from morphnav.errors import (
    ConfigError,
    NoPathError,
    QueryNodeIsolatedError,
    SamplingError,
)
from morphnav.planner import astar_multimodal
from morphnav.rng import SplitMix64
from morphnav.roadmap import (
    EdgeKind,
    NodeMode,
    PrmParams,
    Roadmap,
    build_roadmap,
    edge_cost_for,
    edge_kind_for,
    insert_query_nodes,
    roadmap_to_dict,
)

CM = CostModel()


def _open_env(x=20.0, y=20.0, z=5.0):
    return Environment(Aabb((0.0, 0.0, 0.0), (x, y, z)))


def _walled_env():
    return Environment(
        Aabb((0.0, 0.0, 0.0), (12.0, 6.0, 3.0)),
        obstacles=(Aabb((4.9, 0.0, 0.0), (5.1, 6.0, 1.0)),),
    )


# -- PRNG ------------------------------------------------------------------


def test_splitmix64_reference_sequence():
    # First outputs for seed 0 in the published reference implementation.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_against_inline_reimplementation():
    mask = (1 << 64) - 1

    def reference(seed, n):
        state = seed & mask
        out = []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(200)] == reference(seed, 200)


def test_rng_distribution_helpers():
    rng = SplitMix64(2)
    vals = [rng.random() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert min(vals) < 0.05 and max(vals) > 0.95
    assert all(2.0 <= rng.uniform(2.0, 5.0) < 5.0 for _ in range(1000))
    draws = {rng.randint(10) for _ in range(1000)}
    assert draws == set(range(10))
    assert all(rng.randint(1) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        rng.randint(0)


def test_rng_normal_moments():
    rng = SplitMix64(6)
    xs = [rng.normal(2.0) for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.05
    assert abs(math.sqrt(var) - 2.0) < 0.1


# -- parameter validation ------------------------------------------------------


def test_prm_params_validation():
    with pytest.raises(ConfigError):
        PrmParams(n_ground=-1)
    with pytest.raises(ConfigError):
        PrmParams(radius=0.0)
    with pytest.raises(ConfigError):
        PrmParams(clearance=-0.1)
    with pytest.raises(ConfigError):
        PrmParams(min_air_clearance=-0.1)
    assert PrmParams(n_air=0).n_air == 0


# -- sampling ---------------------------------------------------------------------


def test_build_is_deterministic_and_seed_sensitive():
    env = _walled_env()
    params = PrmParams(n_ground=80, n_air=80, radius=2.0, seed=5)
    r1 = build_roadmap(env, CM, params)
    r2 = build_roadmap(env, CM, params)
    assert [n.position for n in r1.nodes] == [n.position for n in r2.nodes]
    assert [(e.a, e.b, e.kind, e.length, e.cost) for e in r1.edges] == [
        (e.a, e.b, e.kind, e.length, e.cost) for e in r2.edges
    ]
    r3 = build_roadmap(env, CM, PrmParams(n_ground=80, n_air=80, radius=2.0, seed=6))
    assert r3.nodes[0].position != r1.nodes[0].position


def test_sampling_order_and_modes():
    params = PrmParams(n_ground=40, n_air=25, radius=2.0, seed=1)
    roadmap = build_roadmap(_open_env(), CM, params)
    assert len(roadmap.nodes) == 65
    assert all(n.mode is NodeMode.GROUND for n in roadmap.nodes[:40])
    assert all(n.mode is NodeMode.AERIAL for n in roadmap.nodes[40:])
    assert [n.id for n in roadmap.nodes] == list(range(65))


def test_samples_respect_world_geometry():
    env = _walled_env()
    params = PrmParams(n_ground=120, n_air=120, radius=2.0, seed=3)
    roadmap = build_roadmap(env, CM, params)
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    for node in roadmap.nodes:
        x, y, z = node.position
        assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1] and lo[2] <= z <= hi[2]
        assert not env.point_in_collision(node.position, params.clearance)
        ground = env.ground_height(x, y)
        if node.mode is NodeMode.GROUND:
            assert z == ground  # exact surface pin on the flat arena
        else:
            assert z >= ground + params.min_air_clearance - 1e-12


def test_air_band_respects_z_max():
    params = PrmParams(n_ground=5, n_air=60, radius=3.0, seed=9, z_max=2.0)
    roadmap = build_roadmap(_open_env(), CM, params)
    for node in roadmap.nodes[5:]:
        assert node.position[2] <= 2.0 + 1e-12


def test_sampling_error_when_world_is_blocked():
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        obstacles=(Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)),),
    )
    with pytest.raises(SamplingError):
        build_roadmap(env, CM, PrmParams(n_ground=5, n_air=5, radius=1.0, seed=0))


# -- edges ------------------------------------------------------------------------


def test_edge_kind_table():
    g, a = NodeMode.GROUND, NodeMode.AERIAL
    assert edge_kind_for(g, g) is EdgeKind.GROUND
    assert edge_kind_for(a, a) is EdgeKind.FLIGHT
    assert edge_kind_for(g, a) is EdgeKind.TRANSITION
    assert edge_kind_for(a, g) is EdgeKind.TRANSITION


def test_edge_invariants():
    env = _walled_env()
    params = PrmParams(n_ground=100, n_air=100, radius=2.0, seed=2)
    roadmap = build_roadmap(env, CM, params)
    assert roadmap.edges, "arena this size must produce edges"
    seen = set()
    for edge in roadmap.edges:
        na, nb = roadmap.nodes[edge.a], roadmap.nodes[edge.b]
        assert edge.a < edge.b
        assert (edge.a, edge.b) not in seen
        seen.add((edge.a, edge.b))
        assert edge.length == pytest.approx(
            math.dist(na.position, nb.position), rel=1e-12
        )
        assert edge.length <= params.radius + 1e-9
        assert edge.kind is edge_kind_for(na.mode, nb.mode)
        want = edge_cost_for(CM, edge.kind, edge.length, na.position[2], nb.position[2])
        assert edge.cost == pytest.approx(want, rel=1e-12)
        assert not env.segment_in_collision(na.position, nb.position, params.clearance)
        if edge.kind is EdgeKind.GROUND:
            assert env.segment_on_ground(na.position, nb.position)


def test_edge_cost_for_matches_cost_model():
    # One stored number per edge, computed in the a-to-b orientation; each
    # kind must reduce to the corresponding cost-model expression.
    rng = SplitMix64(12)
    for _ in range(100):
        za, zb = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        length = max(abs(zb - za), 0.01) * rng.uniform(1.0, 4.0)
        ground = edge_cost_for(CM, EdgeKind.GROUND, length, za, za)
        assert ground == pytest.approx(CM.ground_edge_cost(length), rel=1e-12)
        flight = edge_cost_for(CM, EdgeKind.FLIGHT, length, za, zb)
        assert flight == pytest.approx(CM.flight_edge_cost(length, za, zb), rel=1e-12)
        morph = edge_cost_for(CM, EdgeKind.TRANSITION, length, za, zb)
        assert morph == pytest.approx(
            CM.transition_cost() + CM.flight_edge_cost(length, za, zb), rel=1e-12
        )


def test_no_ground_edge_crosses_the_wall():
    roadmap = build_roadmap(
        _walled_env(), CM, PrmParams(n_ground=150, n_air=80, radius=2.0, seed=4)
    )
    for edge in roadmap.edges:
        if edge.kind is not EdgeKind.GROUND:
            continue
        xa = roadmap.nodes[edge.a].position[0]
        xb = roadmap.nodes[edge.b].position[0]
        assert not (min(xa, xb) < 5.0 < max(xa, xb))


def test_neighbors_within_and_nearest():
    roadmap = Roadmap(radius=1.0)
    for x in (0.0, 0.5, 3.0):
        roadmap.add_node((x, 0.0, 0.0), NodeMode.GROUND)
    assert roadmap.neighbors_within((0.0, 0.0, 0.0), 1.0) == [0, 1]
    assert roadmap.neighbors_within((0.0, 0.0, 0.0), 0.5) == [0, 1]  # closed radius
    assert roadmap.nearest_node((2.8, 0.0, 0.0)) == (2, pytest.approx(0.2))
    assert Roadmap(radius=1.0).nearest_node((0.0, 0.0, 0.0)) is None
    with pytest.raises(ValueError):
        roadmap.add_edge(1, 1, EdgeKind.GROUND, 0.0, 0.0)


# -- connectivity trend ------------------------------------------------------------


def test_ground_connectivity_grows_with_sample_count():
    # On an empty arena with a fixed radius, the share of seeds in which two
    # fixed corners connect must not drop as the sample count doubles.
    env = _open_env()
    corners = ((1.0, 1.0, 0.0), (19.0, 19.0, 0.0))
    fractions = []
    for n in (50, 100, 200, 400, 800):
        hits = 0
        for seed in range(50):
            params = PrmParams(n_ground=n, n_air=0, radius=2.0, seed=seed)
            roadmap = build_roadmap(env, CM, params)
            try:
                roadmap, sid, gid = insert_query_nodes(
                    roadmap, corners[0], corners[1], env, CM, params
                )
                astar_multimodal(roadmap, sid, gid, CM)
                hits += 1
            except (QueryNodeIsolatedError, NoPathError):
                pass
        fractions.append(hits / 50.0)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert fractions[0] < 1.0  # sparse tier must actually be sparse


# -- query insertion ----------------------------------------------------------------


def test_insert_query_connects_endpoints():
    env = _open_env()
    params = PrmParams(n_ground=150, n_air=0, radius=2.0, seed=8)
    roadmap = build_roadmap(env, CM, params)
    n_before = len(roadmap.nodes)
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (2.0, 2.0, 0.0), (17.0, 17.0, 0.0), env, CM, params
    )
    assert {sid, gid} == {n_before, n_before + 1}
    assert roadmap.degree(sid) > 0 and roadmap.degree(gid) > 0
    for node_id in (sid, gid):
        assert roadmap.nodes[node_id].mode is NodeMode.GROUND
        assert roadmap.nodes[node_id].position[2] == 0.0


def test_insert_query_reuses_coincident_node():
    env = _open_env()
    params = PrmParams(n_ground=60, n_air=0, radius=2.0, seed=8)
    roadmap = build_roadmap(env, CM, params)
    anchor = roadmap.nodes[7].position
    n_before = len(roadmap.nodes)
    roadmap, sid, _ = insert_query_nodes(
        roadmap, anchor, (10.0, 10.0, 0.0), env, CM, params
    )
    assert sid == 7
    assert len(roadmap.nodes) == n_before + 1  # only the goal was added


def test_insert_query_escalates_radius_once():
    env = _open_env()
    params = PrmParams(n_ground=1, n_air=0, radius=1.0, seed=0)
    roadmap = Roadmap(radius=1.0)
    roadmap.add_node((5.0, 5.0, 0.0), NodeMode.GROUND)
    # Start is 1.5 m out: outside the build radius, inside the doubled retry
    # radius. Goal sits on the far side so the two queries cannot pair up.
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (6.5, 5.0, 0.0), (4.5, 5.0, 0.0), env, CM, params
    )
    assert roadmap.degree(sid) == 1 and roadmap.degree(gid) == 1
    assert roadmap.other_end(roadmap.adjacency[sid][0], sid) == 0


def test_insert_query_isolation_and_bad_positions():
    env = _open_env()
    params = PrmParams(n_ground=1, n_air=0, radius=1.0, seed=0)

    def fresh():
        r = Roadmap(radius=1.0)
        r.add_node((5.0, 5.0, 0.0), NodeMode.GROUND)
        return r

    with pytest.raises(QueryNodeIsolatedError):
        insert_query_nodes(fresh(), (15.0, 15.0, 0.0), (5.5, 5.0, 0.0), env, CM, params)
    with pytest.raises(ConfigError):
        insert_query_nodes(fresh(), (-1.0, 5.0, 0.0), (5.5, 5.0, 0.0), env, CM, params)
    blocked = Environment(
        Aabb((0.0, 0.0, 0.0), (20.0, 20.0, 5.0)),
        obstacles=(Aabb((9.0, 9.0, 0.0), (11.0, 11.0, 1.0)),),
    )
    with pytest.raises(ConfigError):
        insert_query_nodes(
            fresh(), (10.0, 10.0, 0.0), (5.5, 5.0, 0.0), blocked, CM, params
        )


# -- export ------------------------------------------------------------------------


def test_roadmap_to_dict_shape():
    roadmap = build_roadmap(
        _open_env(), CM, PrmParams(n_ground=30, n_air=30, radius=2.5, seed=1)
    )
    d = roadmap_to_dict(roadmap)
    assert len(d["nodes"]) == 60
    pairs = [(e["a"], e["b"]) for e in d["edges"]]
    assert pairs == sorted(pairs)
    assert d["nodes"][0]["id"] == 0
    assert {n["mode"] for n in d["nodes"]} == {"Ground", "Aerial"}
    assert {e["kind"] for e in d["edges"]} <= {"Ground", "Flight", "Transition"}
