"""Roadmap construction: seeded sampling, connection rules, query insertion."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from morphnav import env as env_module
from morphnav.costmodel import CostModel
from morphnav.env import Aabb, Environment, Heightmap, load_environment
from morphnav.errors import (
    ConfigError,
    NoPathError,
    QueryNodeIsolatedError,
    SamplingError,
)
from morphnav.planner import astar_multimodal
from morphnav.rng import SplitMix64
from morphnav.roadmap import (
    EDGE_KINDS,
    NODE_MODES,
    SAMPLE_RETRY_BUDGET,
    EdgeKind,
    NodeMode,
    PrmParams,
    Roadmap,
    RoadmapEdge,
    RoadmapNode,
    _connect_edges,
    _sample_nodes,
    build_roadmap,
    edge_costs,
    insert_query_nodes,
    roadmap_to_dict,
)

CM = CostModel()


# -- reference: the scalar formulas an edge's kind and cost must follow ----------


def _ref_kind(mode_a, mode_b):
    if mode_a is NodeMode.GROUND and mode_b is NodeMode.GROUND:
        return EdgeKind.GROUND
    if mode_a is NodeMode.AERIAL and mode_b is NodeMode.AERIAL:
        return EdgeKind.FLIGHT
    return EdgeKind.TRANSITION


def _ref_cost(cm, kind, length, z_a, z_b):
    if kind is EdgeKind.GROUND:
        return cm.ground_edge_cost(length)
    if kind is EdgeKind.FLIGHT:
        return cm.flight_edge_cost(length, z_a, z_b)
    return cm.transition_cost() + cm.flight_edge_cost(length, z_a, z_b)


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
    for bad in ({"radius": math.nan}, {"radius": math.inf}, {"clearance": math.nan},
                {"min_air_clearance": math.inf}, {"z_max": math.nan}):
        with pytest.raises(ConfigError, match="finite"):
            PrmParams(**bad)
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
    assert [NODE_MODES[m] for m in roadmap.mode.tolist()] == (
        [NodeMode.GROUND] * 40 + [NodeMode.AERIAL] * 25
    )
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
    assert (roadmap.positions[5:, 2] <= 2.0 + 1e-12).all()


def test_sampling_error_when_world_is_blocked():
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        obstacles=(Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)),),
    )
    with pytest.raises(SamplingError):
        build_roadmap(env, CM, PrmParams(n_ground=5, n_air=5, radius=1.0, seed=0))


def _scalar_sample(env, params, rng, air):
    """The one-node-at-a-time rejection loop the batched sampler replays."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    z_hi = hi[2] if params.z_max is None else min(params.z_max, hi[2])
    if air and z_hi <= lo[2]:
        raise SamplingError("aerial sampling band is empty (z_max at or below floor)")
    for _ in range(SAMPLE_RETRY_BUDGET):
        x = rng.uniform(lo[0], hi[0])
        y = rng.uniform(lo[1], hi[1])
        if air:
            z = rng.uniform(lo[2], z_hi)
            if z < env.ground_height(x, y) + params.min_air_clearance:
                continue
        else:
            z = env.ground_height(x, y)
        if not env.point_in_collision((x, y, z), params.clearance):
            return (x, y, z)
    kind = "aerial" if air else "ground"
    raise SamplingError(f"no collision-free {kind} sample in {SAMPLE_RETRY_BUDGET} attempts")


def _heightmap_obstacles_env():
    rows = [[0.3 * math.sin(0.5 * j) * math.cos(0.5 * i) + 0.3 for j in range(13)]
            for i in range(7)]
    boxes = [((1.0 + 1.5 * k, 0.5 + 0.6 * k, 0.0), (1.8 + 1.5 * k, 1.5 + 0.6 * k, 1.0 + 0.3 * k))
             for k in range(7)]
    return Environment(
        Aabb((0.0, 0.0, 0.0), (12.0, 6.0, 3.0)),
        obstacles=tuple(Aabb(lo, hi) for lo, hi in boxes),
        ground_const=None,
        heightmap=Heightmap((0.0, 0.0), 1.0, rows),
    )


def _sample_both_ways(env, params, n, air):
    """(positions, stream state) from the batched and the scalar sampler,
    or the SamplingError message each raised."""
    results = []
    for batched in (True, False):
        rng = SplitMix64(params.seed)
        try:
            if batched:
                pts = _sample_nodes(env, params, rng, n, air).tolist()
            else:
                pts = [list(_scalar_sample(env, params, rng, air)) for _ in range(n)]
        except SamplingError as exc:
            results.append(str(exc))
        else:
            results.append((pts, rng.next_u64()))
    return results


def test_batched_sampler_matches_scalar_loop():
    worlds = {
        "open field": (_open_env(), {}),
        "walled arena": (load_environment(ARENA), {"min_air_clearance": 1.4}),
        "heightmap, 7 obstacles": (_heightmap_obstacles_env(), {"min_air_clearance": 0.4}),
        "z_max cap": (_heightmap_obstacles_env(), {"z_max": 1.2}),
    }
    for world, (env, prm) in worlds.items():
        for seed in range(6):
            params = PrmParams(seed=seed, **prm)
            for n, air in ((1, False), (300, False), (1, True), (300, True), (0, True)):
                batched, scalar = _sample_both_ways(env, params, n, air)
                assert not isinstance(batched, str), (world, seed, n, air)
                assert batched == scalar, (world, seed, n, air)


def _hole_world(x, y, half):
    """A unit cube whose floor is walled off except for a square of side
    2 * half round (x, y)."""
    x0, x1, y0, y1 = x - half, x + half, y - half, y + half
    assert 0.0 < x0 and x1 < 1.0 and 0.0 < y0 and y1 < 1.0
    walls = [((0, 0, 0), (x0, 1, 1)), ((x1, 0, 0), (1, 1, 1)),
             ((x0, 0, 0), (x1, y0, 1)), ((x0, y1, 0), (x1, 1, 1))]
    return Environment(Aabb((0, 0, 0), (1, 1, 1)), obstacles=[Aabb(lo, hi) for lo, hi in walls])


@pytest.mark.parametrize("air", [False, True])
def test_sampler_retry_budget_is_exact(air):
    # Wall off everything but a square round the attempt at index k, too
    # small to hold any earlier attempt: the first node then succeeds after
    # exactly k failed attempts, so k = 999 succeeds and k = 1000 fails.
    per = 3 if air else 2
    params = PrmParams(seed=4, clearance=0.0, min_air_clearance=0.0)
    draws = SplitMix64(params.seed).peek_random(per * 1001).reshape(1001, per)
    xy = draws[:, :2]  # the bounds are the unit cube
    for k, succeeds in ((SAMPLE_RETRY_BUDGET - 1, True), (SAMPLE_RETRY_BUDGET, False)):
        half = 0.5 * np.abs(xy[:k] - xy[k]).max(axis=1).min()
        env = _hole_world(*xy[k].tolist(), half)
        batched, scalar = _sample_both_ways(env, params, 1, air)
        assert batched == scalar
        if succeeds:
            assert batched[0] == [[*xy[k].tolist(), batched[0][0][2]]]
        else:
            kind = "aerial" if air else "ground"
            assert batched == f"no collision-free {kind} sample in 1000 attempts"


# -- edges ------------------------------------------------------------------------


def test_edge_kind_table():
    # A kind code is the sum of its end modes' codes.
    for ma in NodeMode:
        for mb in NodeMode:
            code = NODE_MODES.index(ma) + NODE_MODES.index(mb)
            assert EDGE_KINDS[code] is _ref_kind(ma, mb)


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
        assert edge.length == math.dist(na.position, nb.position)
        assert edge.length <= params.radius
        assert edge.kind is _ref_kind(na.mode, nb.mode)
        assert edge.cost == _ref_cost(CM, edge.kind, edge.length, na.position[2], nb.position[2])
    a = [roadmap.nodes[e.a].position for e in roadmap.edges]
    b = [roadmap.nodes[e.b].position for e in roadmap.edges]
    assert not env.segments_in_collision(a, b, params.clearance).any()
    drive = [e.kind is EdgeKind.GROUND for e in roadmap.edges]
    assert env.segments_on_ground(np.array(a)[drive], np.array(b)[drive]).all()


def test_edge_costs_match_cost_model_bit_for_bit():
    # The vectorized costs repeat CostModel's operations in its order, so
    # each equals the scalar formula exactly. The cheap-flight model makes
    # steep descents negative before the floor at 0, and its speeds make
    # the order of the products and quotients matter.
    cheap_flight = CostModel(
        ground_power=10.0, ground_speed=0.7, flight_power=30.0, flight_speed=1.3
    )
    rng = np.random.default_rng(12)
    za = rng.uniform(0.0, 3.0, 4000)
    zb = np.where(rng.random(4000) < 0.1, za, rng.uniform(0.0, 3.0, 4000))
    length = np.abs(zb - za) * rng.uniform(1.0, 4.0, 4000) + rng.uniform(0.0, 0.5, 4000)
    length[:50] = np.abs(zb - za)[:50]  # vertical segments
    kind = rng.integers(0, 3, 4000).astype(np.int8)
    for cm in (CM, cheap_flight):
        got = edge_costs(cm, kind, length, za, zb)
        want = [
            _ref_cost(cm, EDGE_KINDS[k], L, a, b)
            for k, L, a, b in zip(kind.tolist(), length.tolist(), za.tolist(), zb.tolist())
        ]
        assert got.tobytes() == np.array(want).tobytes()
    raw = 30.0 * length / 1.3 + cheap_flight.mass * cheap_flight.gravity * (zb - za)
    floored = (kind == EDGE_KINDS.index(EdgeKind.FLIGHT)) & (raw < 0.0)
    assert floored.sum() > 10
    assert (edge_costs(cheap_flight, kind, length, za, zb)[floored] == 0.0).all()


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


def test_connect_edges_closed_radius_and_nearest():
    env = _open_env()
    params = PrmParams(n_ground=3, n_air=0, radius=0.5, seed=0)
    for radius, pairs in ((1.0, [(0, 1)]), (0.5, [(0, 1)]), (0.5 - 1e-10, [])):
        roadmap = Roadmap()
        for x in (0.0, 0.5, 3.0):
            roadmap.add_node((x, 0.0, 0.0), NodeMode.GROUND)
        _connect_edges(roadmap, 0, env, CM, params, radius)
        # 0.5 apart connects at radius 0.5 (closed), not just inside it.
        assert [(e.a, e.b) for e in roadmap.edges] == pairs
    assert roadmap.nearest_node((2.8, 0.0, 0.0)) == (2, pytest.approx(0.2))
    assert Roadmap().nearest_node((0.0, 0.0, 0.0)) is None


def test_csr_lists_each_nodes_edges_by_id():
    # Up to 2^16 nodes the CSR sorts 16-bit keys; beyond, 64-bit ones.
    for n in (5, 70_000):
        roadmap = Roadmap()
        roadmap._append(positions=np.zeros((n, 3)), mode=np.zeros(n, dtype=np.int8))
        a, b = [0, 1, 0, 2, 0], [n - 1, 2, 2, n - 1, 1]
        roadmap._append(a=a, b=b, kind=[0] * 5, length=[1.0] * 5, cost=np.add(a, b, dtype=float))
        assert roadmap.adjacency[0] == [0, 2, 4]
        assert roadmap.adjacency[2] == [1, 2, 3]
        assert roadmap.adjacency[n - 1] == [0, 3]
        assert np.diff(roadmap.csr()[0])[n - 2] == 0
        indptr, neighbour, _, cost = roadmap.csr()
        assert neighbour[indptr[2] : indptr[3]].tolist() == [1, 0, n - 1]
        assert cost[indptr[2] : indptr[3]].tolist() == [3.0, 2.0, n + 1.0]
        assert roadmap.other_end(3, 2) == n - 1


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
    degree = np.diff(roadmap.csr()[0])
    assert degree[sid] > 0 and degree[gid] > 0
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
    roadmap = Roadmap()
    roadmap.add_node((5.0, 5.0, 0.0), NodeMode.GROUND)
    # Start is 1.5 m out: outside the build radius, inside the doubled retry
    # radius. Goal sits on the far side so the two queries cannot pair up.
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (6.5, 5.0, 0.0), (4.5, 5.0, 0.0), env, CM, params
    )
    degree = np.diff(roadmap.csr()[0])
    assert degree[sid] == 1 and degree[gid] == 1
    assert roadmap.other_end(roadmap.adjacency[sid][0], sid) == 0


def test_insert_query_isolation_and_bad_positions():
    env = _open_env()
    params = PrmParams(n_ground=1, n_air=0, radius=1.0, seed=0)

    def fresh():
        r = Roadmap()
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


# -- reference: the one-node-at-a-time build -------------------------------------

ARENA = Path(__file__).resolve().parents[1] / "scenarios" / "walled_arena.json"


def _ref_segment_points(a, b, step):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    n = max(2, int(math.ceil(length / step)) + 1) if length > 0.0 else 1
    ts = np.linspace(0.0, 1.0, n)
    return a[None, :] + ts[:, None] * (b - a)[None, :]


def _ref_in_collision(env, a, b, clearance):
    step = 0.05 if clearance <= 0.0 else min(0.05, clearance / 2.0)
    return bool(env.points_in_collision(_ref_segment_points(a, b, step), clearance).any())


def _ref_on_ground(env, a, b, tol=1e-6):
    pts = _ref_segment_points(a, b, 0.05)
    ground = env.ground_heights(pts[:, 0], pts[:, 1])
    return bool(np.all(np.abs(pts[:, 2] - ground) <= tol))


class _RefRoadmap:
    """The object store the columns replaced: one record per node and per
    edge, and an adjacency list per node."""

    def __init__(self, radius):
        self.radius = radius
        self.nodes, self.edges, self.adjacency = [], [], []

    def add_node(self, position, mode):
        self.nodes.append(RoadmapNode(len(self.nodes), tuple(position), mode))
        self.adjacency.append([])
        return self.nodes[-1]

    def add_edge(self, a, b, kind, length, cost):
        self.adjacency[a].append(len(self.edges))
        self.adjacency[b].append(len(self.edges))
        self.edges.append(RoadmapEdge(min(a, b), max(a, b), kind, length, cost))

    def other_end(self, idx, nid):
        e = self.edges[idx]
        return e.b if e.a == nid else e.a

    def nearest_node(self, position):
        if not self.nodes:
            return None
        d, nid = min((math.dist(n.position, position), n.id) for n in self.nodes)
        return nid, d


def _ref_connect(roadmap, nid, env, params, radius):
    # Linear-scan neighbours in ascending id order, one segment at a time.
    node = roadmap.nodes[nid]
    near = [n.id for n in roadmap.nodes if math.dist(n.position, node.position) <= radius]
    for other_id in near:
        if other_id == nid:
            continue
        other = roadmap.nodes[other_id]
        length = math.dist(node.position, other.position)
        if length <= 1e-9:
            continue
        kind = _ref_kind(other.mode, node.mode)
        if kind is EdgeKind.GROUND and not _ref_on_ground(env, other.position, node.position):
            continue
        if _ref_in_collision(env, other.position, node.position, params.clearance):
            continue
        cost = _ref_cost(CM, kind, length, other.position[2], node.position[2])
        roadmap.add_edge(other_id, nid, kind, length, cost)


def _ref_build(env, params):
    rng = SplitMix64(params.seed)
    ground = [_scalar_sample(env, params, rng, False) for _ in range(params.n_ground)]
    air = [_scalar_sample(env, params, rng, True) for _ in range(params.n_air)]
    roadmap = _RefRoadmap(params.radius)
    for nid, pos in enumerate(ground + air):
        roadmap.add_node(pos, NodeMode.GROUND if nid < len(ground) else NodeMode.AERIAL)
        _ref_connect(roadmap, nid, env, params, roadmap.radius)
    return roadmap


def _ref_insert(roadmap, start, goal, env, params):
    """insert_query_nodes on the reference connection; also returns how
    many query nodes needed the doubled radius."""
    ids, retries = [], 0
    for label, pos in (("start", start), ("goal", goal)):
        snapped = env.snap_to_ground(pos, label)
        if env.point_in_collision(snapped, params.clearance):
            raise ConfigError(f"{label} position is in collision")
        nearest = roadmap.nearest_node(snapped)
        if nearest is not None and nearest[1] <= 1e-9:
            ids.append(nearest[0])
            continue
        node = roadmap.add_node(snapped, NodeMode.GROUND)
        _ref_connect(roadmap, node.id, env, params, roadmap.radius)
        if not roadmap.adjacency[node.id]:
            retries += 1
            _ref_connect(roadmap, node.id, env, params, 2.0 * roadmap.radius)
        if not roadmap.adjacency[node.id]:
            raise QueryNodeIsolatedError(f"query node '{label}' isolated")
        ids.append(node.id)
    return roadmap, ids[0], ids[1], retries


def _four_boxes_env():
    return Environment(
        Aabb((0.0, 0.0, 0.0), (10.0, 10.0, 4.0)),
        obstacles=(
            Aabb((2.0, 2.0, 0.0), (3.0, 3.0, 2.0)),
            Aabb((6.0, 1.0, 0.0), (6.5, 9.0, 1.0)),
            Aabb((1.0, 7.0, 1.5), (4.0, 8.0, 2.5)),
            Aabb((7.5, 6.0, 0.0), (9.0, 7.5, 4.0)),
        ),
    )


def _stepped_heightmap_env():
    # Plateaus at 0, 0.5 and 1 m joined by one-lattice-cell ramps.
    row = [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0]
    return Environment(
        Aabb((0.0, 0.0, 0.0), (10.5, 6.0, 4.0)),
        obstacles=(Aabb((2.0, 2.0, 0.0), (2.5, 4.0, 2.0)),),
        ground_const=None,
        heightmap=Heightmap((0.0, 0.0), 1.5, [row] * 5),
    )


REFERENCE_WORLDS = {
    "open field": (_open_env, {"n_ground": 25, "n_air": 5}),
    "walled arena": (lambda: load_environment(ARENA), {"min_air_clearance": 1.4}),
    "four boxes": (_four_boxes_env, {}),
    "stepped heightmap": (_stepped_heightmap_env, {"n_ground": 90, "n_air": 50}),
    "clearance 0": (_walled_env, {"clearance": 0.0}),
}


def _snapshot(roadmap):
    """Nodes, edges, each node's (edge id, neighbour, cost) incident list
    and the export, read from the columns and the CSR."""
    indptr, neighbour, edge_id, cost = roadmap.csr()
    csr = (edge_id, neighbour, cost)
    incident = [
        list(zip(*(col[indptr[u] : indptr[u + 1]].tolist() for col in csr)))
        for u in range(len(roadmap.positions))
    ]
    modes = roadmap.mode.tolist()
    columns = (roadmap.a, roadmap.b, roadmap.kind, roadmap.length, roadmap.cost)
    return (
        [(tuple(p), NODE_MODES[m]) for p, m in zip(roadmap.positions.tolist(), modes)],
        [(a, b, EDGE_KINDS[k], *rest) for a, b, k, *rest in zip(*(c.tolist() for c in columns))],
        incident,
        roadmap_to_dict(roadmap),
    )


def _ref_snapshot(ref):
    """The same from the reference's records and adjacency lists, with the
    export as roadmap_to_dict wrote it from records."""
    export = {
        "nodes": [
            {"id": n.id, "position": list(n.position), "mode": n.mode.value} for n in ref.nodes
        ],
        "edges": [
            {"a": e.a, "b": e.b, "kind": e.kind.value, "length": e.length, "cost": e.cost}
            for e in sorted(ref.edges, key=lambda e: (e.a, e.b))
        ],
    }
    incident = [
        [(i, ref.other_end(i, u), ref.edges[i].cost) for i in adj]
        for u, adj in enumerate(ref.adjacency)
    ]
    return (
        [(n.position, n.mode) for n in ref.nodes],
        [(e.a, e.b, e.kind, e.length, e.cost) for e in ref.edges],
        incident,
        export,
    )


def test_batched_build_matches_one_node_at_a_time_build():
    retries = 0
    for world, (make_env, prm) in REFERENCE_WORLDS.items():
        env = make_env()
        lo, hi = env.bounds.min_corner, env.bounds.max_corner
        for seed in (0, 1, 2):
            params = PrmParams(**{"n_ground": 80, "n_air": 80, "radius": 2.0, **prm, "seed": seed})
            ref = _ref_build(env, params)
            roadmap = build_roadmap(env, CM, params)
            assert _snapshot(roadmap) == _ref_snapshot(ref), (world, seed)
            views = (list(roadmap.nodes), list(roadmap.edges), list(roadmap.adjacency))
            assert views == (ref.nodes, ref.edges, ref.adjacency), (world, seed)
            assert ref.edges, (world, seed)
            # Query pairs anywhere on the footprint, some on existing nodes.
            rng = SplitMix64(1000 + seed)
            for q in range(6):
                start = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]), 0.0)
                goal = ref.nodes[q].position if q % 3 == 2 else (
                    rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]), 0.0
                )
                try:
                    _, *want, n_retries = _ref_insert(ref, start, goal, env, params)
                    retries += n_retries
                except (ConfigError, QueryNodeIsolatedError) as exc:
                    want = type(exc)
                try:
                    _, *got = insert_query_nodes(roadmap, start, goal, env, CM, params)
                except (ConfigError, QueryNodeIsolatedError) as exc:
                    got = type(exc)
                assert got == want, (world, seed, q)
                assert _snapshot(roadmap) == _ref_snapshot(ref), (world, seed, q)
    assert retries > 0  # the doubled-radius retry ran


def test_build_memory_stays_flat():
    # Edge checks run in fixed-size numpy passes (env.SAMPLE_CHUNK,
    # PAIR_BLOCK, PAIR_GROUP). Making every sample of a walled-arena build at
    # once would hold about 9 MB of samples alone; the passes keep the build's
    # transient memory, above what the finished roadmap retains, under 2 MB.
    env = load_environment(ARENA)
    params = PrmParams(n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4, seed=7)
    tracemalloc.start()
    try:
        roadmap = build_roadmap(env, CM, params)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(roadmap.edges) > 10000
    assert peak - retained < 2 * 2**20, (retained, peak)


def test_build_samples_only_segments_the_broad_phase_cannot_decide(monkeypatch):
    # The swept checks' broad phases decide most of a seed-1 walled-arena
    # build's 19,446 segment checks without sampling; 1,749 reach the
    # sampler. A broad phase that stops deciding fails here.
    sampled = []

    def counting(a, b, *args):
        sampled.append(len(a))
        return any_sample(a, b, *args)

    any_sample = env_module._any_sample
    monkeypatch.setattr(env_module, "_any_sample", counting)
    env = load_environment(ARENA)
    params = PrmParams(n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4, seed=1)
    roadmap = build_roadmap(env, CM, params)
    assert len(roadmap.edges) > 10000
    assert 0 < sum(sampled) < 3000, sum(sampled)


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
