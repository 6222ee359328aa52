"""Roadmap construction: seeded sampling, connection rules, query insertion."""

import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from morphnav import env as env_module
from morphnav.costmodel import CostModel
from morphnav.env import Aabb, Environment, Heightmap, distances, load_environment
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
    _candidate_keys,
    _connect_edges,
    _sample_nodes,
    build_roadmap,
    edge_costs,
    insert_query_nodes,
    roadmap_to_dict,
)
from reference import (
    ARENA,
    CM,
    open_env,
    ref_edge_cost,
    ref_ends_on_ground,
    ref_in_collision,
    ref_length,
    ref_on_ground,
    uniform,
    walled_env,
)

# -- reference: the scalar rule an edge's kind must follow -------------------------


def _ref_kind(mode_a, mode_b):
    if mode_a is NodeMode.GROUND and mode_b is NodeMode.GROUND:
        return EdgeKind.GROUND
    if mode_a is NodeMode.AERIAL and mode_b is NodeMode.AERIAL:
        return EdgeKind.FLIGHT
    return EdgeKind.TRANSITION


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


def test_build_refuses_edge_prices_that_overflow():
    # Finite cost parameters whose edge prices overflow in this world are
    # refused before any edge is priced inf or NaN.
    params = PrmParams(n_ground=5, n_air=5, seed=1)
    for cm in (
        CostModel(flight_power=5e307),
        # F * L and m * g * dz are finite; their sum overflows.
        CostModel(flight_power=1.2e307, mass=5.6e305),
    ):
        with pytest.raises(ConfigError, match="overflows pricing a 13.7477 m edge climbing 3 m"):
            build_roadmap(walled_env(), cm, params)
    # A climb that overflows on its own needs a flight rate of at least
    # 2 * m * g, which overflows too: such models fail at construction.
    for kwargs in ({"flight_power": 1e308, "mass": 1e307}, {"mass": 1e307}):
        with pytest.raises(ConfigError, match="must be at least hypot"):
            CostModel(**kwargs)
    # In a world with a 1.5 m diagonal the same flight power prices finitely.
    small = Environment(Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)))
    roadmap = build_roadmap(small, CostModel(flight_power=5e307), params)
    assert len(roadmap.cost) and np.isfinite(roadmap.cost).all()


def test_any_non_negative_clearance_builds():
    # The exact swept test makes no more points at a smaller clearance, so
    # any non-negative clearance builds: no ground edge crosses the wall,
    # and the plan across it still flies over.
    env = walled_env()
    for clearance in (1e-300, 5e-324, 0.0):
        params = PrmParams(n_ground=150, n_air=150, seed=1, clearance=clearance,
                           min_air_clearance=1.4)
        roadmap = build_roadmap(env, CM, params)
        x = roadmap.positions[:, 0]
        ground = roadmap.kind == EDGE_KINDS.index(EdgeKind.GROUND)
        across = (x[roadmap.a] < 5.0) != (x[roadmap.b] < 5.0)
        assert ground.sum() > 100 and not (ground & across).any(), clearance
        roadmap, s, g = insert_query_nodes(
            roadmap, (1.0, 3.0, 0.0), (10.0, 3.0, 0.0), env, CM, params
        )
        assert astar_multimodal(roadmap, s, g, CM).n_transitions == 2, clearance


# -- sampling ---------------------------------------------------------------------


def test_build_is_deterministic_and_seed_sensitive():
    env = walled_env()
    params = PrmParams(n_ground=80, n_air=80, radius=2.0, seed=5)
    columns = ("positions", "mode", "a", "b", "kind", "length", "cost")
    r1 = build_roadmap(env, CM, params)
    r2 = build_roadmap(env, CM, params)
    for name in columns:
        assert getattr(r1, name).tobytes() == getattr(r2, name).tobytes(), name
    r3 = build_roadmap(env, CM, PrmParams(n_ground=80, n_air=80, radius=2.0, seed=6))
    assert r3.positions[0].tolist() != r1.positions[0].tolist()


def test_sampling_order_and_modes():
    params = PrmParams(n_ground=40, n_air=25, radius=2.0, seed=1)
    roadmap = build_roadmap(open_env(), CM, params)
    assert len(roadmap.positions) == 65
    assert [NODE_MODES[m] for m in roadmap.mode.tolist()] == (
        [NodeMode.GROUND] * 40 + [NodeMode.AERIAL] * 25
    )


def test_samples_respect_world_geometry():
    env = walled_env()
    params = PrmParams(n_ground=120, n_air=120, radius=2.0, seed=3)
    roadmap = build_roadmap(env, CM, params)
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    for (x, y, z), mode in zip(roadmap.positions.tolist(), roadmap.mode.tolist()):
        assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1] and lo[2] <= z <= hi[2]
        assert not env.point_in_collision((x, y, z), params.clearance)
        ground = env.ground_height(x, y)
        if NODE_MODES[mode] is NodeMode.GROUND:
            assert z == ground  # exact surface pin on the flat arena
        else:
            assert z >= ground + params.min_air_clearance - 1e-12


def test_air_band_respects_z_max():
    params = PrmParams(n_ground=5, n_air=60, radius=3.0, seed=9, z_max=2.0)
    roadmap = build_roadmap(open_env(), CM, params)
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
        x = uniform(rng, lo[0], hi[0])
        y = uniform(rng, lo[1], hi[1])
        if air:
            z = uniform(rng, lo[2], z_hi)
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
        "open field": (open_env(), {}),
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
    env = walled_env()
    params = PrmParams(n_ground=100, n_air=100, radius=2.0, seed=2)
    roadmap = build_roadmap(env, CM, params)
    assert len(roadmap.a), "arena this size must produce edges"
    positions, modes = roadmap.positions.tolist(), [NODE_MODES[m] for m in roadmap.mode.tolist()]
    columns = (roadmap.a, roadmap.b, roadmap.kind, roadmap.length, roadmap.cost)
    seen = set()
    for a, b, k, length, cost in zip(*(c.tolist() for c in columns)):
        kind = EDGE_KINDS[k]
        assert a < b
        assert (a, b) not in seen
        seen.add((a, b))
        assert length == ref_length(positions[a], positions[b])
        assert length <= params.radius
        assert kind is _ref_kind(modes[a], modes[b])
        assert cost == ref_edge_cost(CM, kind, length, positions[a][2], positions[b][2])
    # Every edge is clear, and a ground edge's ends lie on the surface, so
    # that verdict held it to the ground all along.
    a, b = roadmap.positions[roadmap.a], roadmap.positions[roadmap.b]
    assert not env.segments_hit(a, b, params.clearance).any()
    drive = roadmap.kind == EDGE_KINDS.index(EdgeKind.GROUND)
    assert drive.any() and all(ref_ends_on_ground(env, p, q) for p, q in zip(a[drive], b[drive]))


def test_edge_costs_match_cost_model_bit_for_bit():
    # The vectorized costs repeat the scalar reference's operations in its
    # order, so each equals it exactly. The cheap-flight model, near the
    # lowest flight rate CostModel takes, makes a steep descent's credit
    # nearly half its flight energy, and its speeds make the order of the
    # products and quotients matter.
    cheap_flight = CostModel(
        ground_power=10.0, ground_speed=0.7, flight_power=160.0, flight_speed=1.3
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
            ref_edge_cost(cm, EDGE_KINDS[k], L, a, b)
            for k, L, a, b in zip(kind.tolist(), length.tolist(), za.tolist(), zb.tolist())
        ]
        assert got.tobytes() == np.array(want).tobytes()
        # No floor is needed: every edge of positive length costs energy.
        assert (got[length > 0.0] > 0.0).all()
    hover = 160.0 * length / 1.3
    credit = cheap_flight.mass * cheap_flight.gravity * (za - zb)
    assert (credit > 0.4 * hover).sum() > 10


def test_no_ground_edge_crosses_the_wall():
    roadmap = build_roadmap(
        walled_env(), CM, PrmParams(n_ground=150, n_air=80, radius=2.0, seed=4)
    )
    drive = roadmap.kind == EDGE_KINDS.index(EdgeKind.GROUND)
    xa, xb = roadmap.positions[roadmap.a[drive], 0], roadmap.positions[roadmap.b[drive], 0]
    assert drive.any()
    assert not ((np.minimum(xa, xb) < 5.0) & (5.0 < np.maximum(xa, xb))).any()


def _build_edges(pos, mode, env, params, radius):
    """Edge columns of nodes pos and mode as build_roadmap connects them:
    _connect_edges over the sweep's candidates."""
    keys = _candidate_keys(pos, radius * radius * (1.0 + 2e-9))
    return _connect_edges(pos, mode, keys, env, CM, params, radius)


def _row_edges(pos, mode, k, env, params, radius):
    """Edge columns of node k to nodes 0..k-1, its candidates taken from
    env.distances as insert_query_nodes takes a query node's."""
    keys = k * (k + 1) + np.flatnonzero(distances(pos[:k], pos[k]) <= radius)
    return _connect_edges(pos[: k + 1], mode[: k + 1], keys, env, CM, params, radius)


def test_connect_edges_closed_radius_and_nearest():
    env = open_env()
    params = PrmParams(n_ground=3, n_air=0, radius=0.5, seed=0)
    pos = np.array([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (3.0, 0.0, 0.0)])
    mode = np.zeros(3, dtype=np.int8)
    for radius, pairs in ((1.0, [(0, 1)]), (0.5, [(0, 1)]), (0.5 - 1e-10, [])):
        a, b, *_ = _build_edges(pos, mode, env, params, radius)
        # 0.5 apart connects at radius 0.5 (closed), not just inside it.
        assert list(zip(a.tolist(), b.tolist())) == pairs
    # A query within 1e-9 of a node reuses the nearest one, the lowest id
    # of coincident nodes. By env.distances (0.5, 1e-9, 0) is exactly 1e-9
    # from node 1, so it is reused; with the next float above 1e-9 for y,
    # the query is a new node.
    pos, mode = np.concatenate((pos, pos[1:2])), np.zeros(4, dtype=np.int8)  # node 3 on node 1
    roadmap = Roadmap(pos, mode, *_build_edges(pos, mode, env, params, 1.0))
    for start, sid in (((0.5, 0.0, 0.0), 1), ((0.5, 1e-9, 0.0), 1), ((3.0, 0.0, 0.0), 2)):
        rm, *ids = insert_query_nodes(roadmap, start, (0.0, 0.0, 0.0), env, CM, params)
        assert ids == [sid, 0] and len(rm.positions) == 4
    above = (0.5, np.nextafter(1e-9, 1.0), 0.0)
    rm, sid, gid = insert_query_nodes(roadmap, above, (0.0, 0.0, 0.0), env, CM, params)
    assert (sid, gid, len(rm.positions)) == (4, 0, 5)
    assert rm.positions[4].tolist() == list(above)


def test_insert_query_closed_radius_and_retry_radius():
    # Node 0 is the start's nearest node; node 1 lies 1.5 from x = 6,
    # beyond the build radius of 1 and within the retry radius of 2, so
    # the start's neighbours tell which radius connected it. The goal
    # connects to node 0 alone.
    env = open_env()
    params = PrmParams(n_ground=0, n_air=0, radius=1.0)
    roadmap = Roadmap([(5.0, 5.0, 0.0), (7.5, 5.0, 0.0)], [0, 0])
    goal = (4.5, 5.0, 0.0)
    beyond = np.nextafter(6.0, 7.0)
    for x, neighbours in (
        (6.0, [0]),  # exactly radius from node 0: the build radius
        (beyond, [0, 1]),  # a float beyond it: only the retry
        (3.0, [0]),  # exactly 2 * radius from node 0: the retry
    ):
        rm, sid, gid = insert_query_nodes(roadmap, (x, 5.0, 0.0), goal, env, CM, params)
        indptr, neighbour, _, _ = rm.csr()
        assert (sid, gid) == (2, 3)
        assert sorted(neighbour[indptr[sid] : indptr[sid + 1]].tolist()) == neighbours, x
        assert neighbour[indptr[gid] : indptr[gid + 1]].tolist() == [0], x
    with pytest.raises(QueryNodeIsolatedError):  # a float beyond 2 * radius
        insert_query_nodes(roadmap, (np.nextafter(3.0, 0.0), 5.0, 0.0), goal, env, CM, params)


def test_csr_lists_each_nodes_edges_by_id():
    # Up to 2^16 nodes the CSR sorts 16-bit keys; beyond, 64-bit ones.
    for n in (5, 70_000):
        a, b = [0, 1, 0, 2, 0], [n - 1, 2, 2, n - 1, 1]
        roadmap = Roadmap(np.zeros((n, 3)), np.zeros(n), a, b, [0] * 5, [1.0] * 5, np.add(a, b))
        indptr, neighbour, edge_id, cost = roadmap.csr()
        for u, ids in ((0, [0, 2, 4]), (2, [1, 2, 3]), (n - 2, []), (n - 1, [0, 3])):
            assert edge_id[indptr[u] : indptr[u + 1]].tolist() == ids
        assert neighbour[indptr[2] : indptr[3]].tolist() == [1, 0, n - 1]
        assert cost[indptr[2] : indptr[3]].tolist() == [3.0, 2.0, n + 1.0]


# -- connectivity trend ------------------------------------------------------------


def test_ground_connectivity_grows_with_sample_count():
    # On an empty arena with a fixed radius, the share of seeds in which two
    # fixed corners connect must not drop as the sample count doubles.
    env = open_env()
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
    env = open_env()
    params = PrmParams(n_ground=150, n_air=0, radius=2.0, seed=8)
    roadmap = build_roadmap(env, CM, params)
    n_before = len(roadmap.positions)
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (2.0, 2.0, 0.0), (17.0, 17.0, 0.0), env, CM, params
    )
    assert {sid, gid} == {n_before, n_before + 1}
    degree = np.diff(roadmap.csr()[0])
    assert degree[sid] > 0 and degree[gid] > 0
    for node_id in (sid, gid):
        assert NODE_MODES[roadmap.mode[node_id]] is NodeMode.GROUND
        assert roadmap.positions[node_id, 2] == 0.0


def test_insert_query_reuses_coincident_node():
    env = open_env()
    params = PrmParams(n_ground=60, n_air=0, radius=2.0, seed=8)
    roadmap = build_roadmap(env, CM, params)
    anchor = tuple(roadmap.positions[7].tolist())
    n_before = len(roadmap.positions)
    roadmap, sid, _ = insert_query_nodes(
        roadmap, anchor, (10.0, 10.0, 0.0), env, CM, params
    )
    assert sid == 7
    assert len(roadmap.positions) == n_before + 1  # only the goal was added


def test_insert_query_escalates_radius_once():
    env = open_env()
    params = PrmParams(n_ground=1, n_air=0, radius=1.0, seed=0)
    roadmap = Roadmap([(5.0, 5.0, 0.0)], [NODE_MODES.index(NodeMode.GROUND)])
    # Start is 1.5 m out: outside the build radius, inside the doubled retry
    # radius. Goal sits on the far side so the two queries cannot pair up.
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (6.5, 5.0, 0.0), (4.5, 5.0, 0.0), env, CM, params
    )
    indptr, neighbour, _, _ = roadmap.csr()
    degree = np.diff(indptr)
    assert degree[sid] == 1 and degree[gid] == 1
    assert neighbour[indptr[sid]] == 0


def test_insert_query_isolation_and_bad_positions():
    env = open_env()
    params = PrmParams(n_ground=1, n_air=0, radius=1.0, seed=0)

    roadmap = Roadmap([(5.0, 5.0, 0.0)], [NODE_MODES.index(NodeMode.GROUND)])
    with pytest.raises(QueryNodeIsolatedError):
        insert_query_nodes(roadmap, (15.0, 15.0, 0.0), (5.5, 5.0, 0.0), env, CM, params)
    with pytest.raises(ConfigError):
        insert_query_nodes(roadmap, (-1.0, 5.0, 0.0), (5.5, 5.0, 0.0), env, CM, params)
    blocked = Environment(
        Aabb((0.0, 0.0, 0.0), (20.0, 20.0, 5.0)),
        obstacles=(Aabb((9.0, 9.0, 0.0), (11.0, 11.0, 1.0)),),
    )
    with pytest.raises(ConfigError):
        insert_query_nodes(
            roadmap, (10.0, 10.0, 0.0), (5.5, 5.0, 0.0), blocked, CM, params
        )


def _columns(roadmap):
    return (roadmap.positions, roadmap.mode, roadmap.a, roadmap.b, roadmap.kind,
            roadmap.length, roadmap.cost)


def test_refused_query_leaves_the_roadmap_unchanged():
    # Refused before the start is placed, and after: a goal in collision or
    # isolated at both radii must not leave the start's node and edges behind.
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (20.0, 20.0, 5.0)),
        obstacles=(Aabb((9.0, 9.0, 0.0), (11.0, 11.0, 1.0)),),
    )
    params = PrmParams(n_ground=0, n_air=0, radius=1.0)
    pos = np.array([(5.0, 5.0, 0.0), (6.0, 5.0, 0.0), (5.0, 6.0, 0.0), (5.5, 5.5, 0.6)])
    mode = np.array([NODE_MODES.index(m) for m in [NodeMode.GROUND] * 3 + [NodeMode.AERIAL]])
    roadmap = Roadmap(pos, mode, *_build_edges(pos, mode, env, params, params.radius))
    before, csr = [c.copy() for c in _columns(roadmap)], roadmap.csr()
    assert len(roadmap.a) == 5
    near, blocked, far = (5.5, 5.0, 0.0), (10.0, 10.0, 0.0), (15.0, 15.0, 0.0)
    for start, goal, error in (
        ((-1.0, 5.0, 0.0), near, ConfigError),  # start off the footprint
        (blocked, near, ConfigError),  # start in collision
        (near, blocked, ConfigError),  # goal in collision
        (near, far, QueryNodeIsolatedError),  # goal isolated at both radii
    ):
        with pytest.raises(error):
            insert_query_nodes(roadmap, start, goal, env, CM, params)
        assert all(map(np.array_equal, _columns(roadmap), before)), (start, goal)
        assert roadmap.csr() is csr
    # The same start with a goal that connects is inserted.
    rm, sid, gid = insert_query_nodes(roadmap, near, (6.5, 5.5, 0.0), env, CM, params)
    assert (sid, gid) == (4, 5) and rm is not roadmap


def test_one_arena_roadmap_serves_many_queries():
    # Ten query pairs into one seed-1 arena roadmap: each result equals a
    # fresh build with that one insertion, and the base is never changed.
    env = load_environment(ARENA)
    params = PrmParams(seed=1, n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4)
    base = build_roadmap(env, CM, params)
    before, csr = [c.copy() for c in _columns(base)], base.csr()
    rng = SplitMix64(24)
    pairs = []
    while len(pairs) < 10:
        x0, y0, x1, y1 = (uniform(rng, 0.0, hi) for hi in (12.0, 6.0, 12.0, 6.0))
        start, goal = (x0, y0, 0.0), (x1, y1, 0.0)
        if not any(env.point_in_collision(p, params.clearance) for p in (start, goal)):
            pairs.append((start, goal))
    for start, goal in pairs:
        rm, *ids = insert_query_nodes(base, start, goal, env, CM, params)
        fresh, *fresh_ids = insert_query_nodes(
            build_roadmap(env, CM, params), start, goal, env, CM, params
        )
        assert ids == fresh_ids and _snapshot(rm) == _snapshot(fresh), (start, goal)
        assert len(rm.positions) == 602
    assert all(map(np.array_equal, _columns(base), before))
    assert base.csr() is csr


def test_query_transition_verdicts_do_not_depend_on_orientation():
    # The walled arena raised to a ground of 0.2. Flown down onto that
    # ground from an aerial node, 1.4 + (0.2 - 1.4) lands below it, so a
    # point made that way would reject every aerial-to-query candidate from
    # the aerial end and clear it from the query end.
    arena = load_environment(ARENA)

    def raised(box):
        lo, hi = (np.add(c, (0.0, 0.0, 0.2)) for c in (box.min_corner, box.max_corner))
        return Aabb(tuple(lo), tuple(hi))

    env = Environment(raised(arena.bounds), map(raised, arena.obstacles), ground_const=0.2)
    aerial_code = NODE_MODES.index(NodeMode.AERIAL)
    candidates = kept = 0
    for seed in range(1, 11):
        params = PrmParams(n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.6, seed=seed)
        roadmap = build_roadmap(env, CM, params)
        aerial = np.flatnonzero(roadmap.mode == aerial_code)
        roadmap, sid, gid = insert_query_nodes(
            roadmap, (1.0, 3.0, 0.0), (10.0, 3.0, 0.0), env, CM, params
        )
        pos = roadmap.positions
        for q in (sid, gid):
            near = aerial[distances(pos[aerial], pos[q]) <= params.radius]
            air, ground = pos[near], np.repeat(pos[q : q + 1], len(near), axis=0)
            down = env.segments_hit(air, ground, params.clearance)
            up = env.segments_hit(ground, air, params.clearance)
            assert down.tolist() == up.tolist(), seed
            ends = roadmap.a[roadmap.b == q]
            assert sorted(ends[roadmap.mode[ends] == aerial_code]) == near[~down].tolist(), seed
            candidates += len(near)
            kept += int((~down).sum())
    # Both query nodes are over 2 m from the wall, so every candidate stays.
    assert kept == candidates >= 40, (candidates, kept)


# -- reference: the one-node-at-a-time build -------------------------------------

_RefNode = namedtuple("_RefNode", "id position mode")
_RefEdge = namedtuple("_RefEdge", "a b kind length cost")


class _RefRoadmap:
    """The object store the columns replaced: one record per node and per
    edge, and an adjacency list per node."""

    def __init__(self, radius):
        self.radius = radius
        self.node_records, self.edge_records, self.incident = [], [], []

    def add_node(self, position, mode):
        self.node_records.append(_RefNode(len(self.node_records), tuple(position), mode))
        self.incident.append([])
        return self.node_records[-1]

    def add_edge(self, a, b, kind, length, cost):
        self.incident[a].append(len(self.edge_records))
        self.incident[b].append(len(self.edge_records))
        self.edge_records.append(_RefEdge(min(a, b), max(a, b), kind, length, cost))

    def copy(self):
        twin = _RefRoadmap(self.radius)
        twin.node_records, twin.edge_records = list(self.node_records), list(self.edge_records)
        twin.incident = [list(adj) for adj in self.incident]
        return twin

    def far_end(self, idx, nid):
        e = self.edge_records[idx]
        return e.b if e.a == nid else e.a

    def nearest_node(self, position):
        if not self.node_records:
            return None
        d, nid = min((ref_length(n.position, position), n.id) for n in self.node_records)
        return nid, d


def _ref_connect(roadmap, nid, env, params, radius):
    # Linear-scan neighbours in ascending id order, one segment at a time.
    node = roadmap.node_records[nid]
    near = [n.id for n in roadmap.node_records if ref_length(n.position, node.position) <= radius]
    for other_id in near:
        if other_id == nid:
            continue
        other = roadmap.node_records[other_id]
        length = ref_length(node.position, other.position)
        if length <= 1e-9:
            continue
        kind = _ref_kind(other.mode, node.mode)
        if kind is EdgeKind.GROUND and not ref_on_ground(env, other.position, node.position):
            continue
        if ref_in_collision(env, other.position, node.position, params.clearance):
            continue
        cost = ref_edge_cost(CM, kind, length, other.position[2], node.position[2])
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
        if not roadmap.incident[node.id]:
            retries += 1
            _ref_connect(roadmap, node.id, env, params, 2.0 * roadmap.radius)
        if not roadmap.incident[node.id]:
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


def _one_box_stepped_heightmap_env():
    # Plateaus at 0, 0.5 and 1 m joined by one-lattice-cell ramps; test_env's
    # stepped heightmap adds a second, raised box.
    row = [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0]
    return Environment(
        Aabb((0.0, 0.0, 0.0), (10.5, 6.0, 4.0)),
        obstacles=(Aabb((2.0, 2.0, 0.0), (2.5, 4.0, 2.0)),),
        ground_const=None,
        heightmap=Heightmap((0.0, 0.0), 1.5, [row] * 5),
    )


REFERENCE_WORLDS = {
    "open field": (open_env, {"n_ground": 25, "n_air": 5}),
    "walled arena": (lambda: load_environment(ARENA), {"min_air_clearance": 1.4}),
    "four boxes": (_four_boxes_env, {}),
    "stepped heightmap": (_one_box_stepped_heightmap_env, {"n_ground": 90, "n_air": 50}),
    "clearance 0": (walled_env, {"clearance": 0.0}),
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
            {"id": n.id, "position": list(n.position), "mode": n.mode.value}
            for n in ref.node_records
        ],
        "edges": [
            {"a": e.a, "b": e.b, "kind": e.kind.value, "length": e.length, "cost": e.cost}
            for e in sorted(ref.edge_records, key=lambda e: (e.a, e.b))
        ],
    }
    incident = [
        [(i, ref.far_end(i, u), ref.edge_records[i].cost) for i in adj]
        for u, adj in enumerate(ref.incident)
    ]
    return (
        [(n.position, n.mode) for n in ref.node_records],
        [(e.a, e.b, e.kind, e.length, e.cost) for e in ref.edge_records],
        incident,
        export,
    )


def test_batched_build_matches_one_node_at_a_time_build():
    retries = refused = 0
    for world, (make_env, prm) in REFERENCE_WORLDS.items():
        env = make_env()
        lo, hi = env.bounds.min_corner, env.bounds.max_corner
        for seed in (0, 1, 2):
            params = PrmParams(**{"n_ground": 80, "n_air": 80, "radius": 2.0, **prm, "seed": seed})
            ref = _ref_build(env, params)
            roadmap = build_roadmap(env, CM, params)
            assert _snapshot(roadmap) == _ref_snapshot(ref), (world, seed)
            assert ref.edge_records, (world, seed)
            # Query pairs anywhere on the footprint, some on existing nodes,
            # each into the roadmap of the queries before it that succeeded.
            # The reference inserts into a copy, kept only on success; a
            # refused query must leave the program's roadmap as it was.
            rng = SplitMix64(1000 + seed)
            for q in range(6):
                start = (uniform(rng, lo[0], hi[0]), uniform(rng, lo[1], hi[1]), 0.0)
                goal = ref.node_records[q].position if q % 3 == 2 else (
                    uniform(rng, lo[0], hi[0]), uniform(rng, lo[1], hi[1]), 0.0
                )
                try:
                    ref, *want, n_retries = _ref_insert(ref.copy(), start, goal, env, params)
                    retries += n_retries
                except (ConfigError, QueryNodeIsolatedError) as exc:
                    want = type(exc)
                before = _snapshot(roadmap)
                try:
                    roadmap, *got = insert_query_nodes(roadmap, start, goal, env, CM, params)
                except (ConfigError, QueryNodeIsolatedError) as exc:
                    got = type(exc)
                    refused += 1
                    assert _snapshot(roadmap) == before, (world, seed, q)
                assert got == want, (world, seed, q)
                assert _snapshot(roadmap) == _ref_snapshot(ref), (world, seed, q)
    assert retries > 0  # the doubled-radius retry ran
    assert refused > 0  # and some queries were refused


# -- the sorted sweep against the one-node-at-a-time build ---------------------------


def _hand_roadmaps(points, modes, env, params, radius):
    """The same hand-placed nodes connected by _connect_edges in one full
    pass over the sweep's candidates and one node at a time (node k over
    nodes 0..k, its candidates from env.distances), and by the reference."""
    pos = np.array(points, dtype=float).reshape(-1, 3)
    code = np.array([NODE_MODES.index(m) for m in modes], dtype=np.int8)
    full = Roadmap(pos, code, *_build_edges(pos, code, env, params, radius))
    rows = [_row_edges(pos, code, k, env, params, radius) for k in range(len(pos))]
    incremental = Roadmap(pos, code, *map(np.concatenate, zip(*rows)))
    ref = _RefRoadmap(radius)
    for nid, (point, mode) in enumerate(zip(points, modes)):
        ref.add_node(point, mode)
        _ref_connect(ref, nid, env, params, radius)
    return full, incremental, ref


def _assert_sweep_matches_reference(points, modes, env, params, radius):
    full, incremental, ref = _hand_roadmaps(points, modes, env, params, radius)
    assert ref.edge_records
    assert _snapshot(full) == _ref_snapshot(ref)
    assert _snapshot(incremental) == _ref_snapshot(ref)
    return full


def test_sweep_on_shared_x_and_pairs_exactly_radius_apart_in_x():
    # Thirty nodes on one x, ground and aerial, and nodes exactly 2.0 from
    # them along x: the closed radius keeps those pairs at the window's edge.
    # Decimal x values make the same test with rounded differences.
    env = open_env()
    params = PrmParams(n_ground=0, n_air=0, radius=2.0)
    points, modes = [], []
    for k in range(30):
        aerial = k % 3 == 2
        points.append((5.0, 1.0 + 0.25 * k, 1.5 if aerial else 0.0))
        modes.append(NodeMode.AERIAL if aerial else NodeMode.GROUND)
    for x in (3.0, 7.0, 0.1, 2.1, 10.3, 12.3, 12.3 + 2.0):
        for y in (1.0, 3.5, 8.0):
            points.append((x, y, 0.0))
            modes.append(NodeMode.GROUND)
    roadmap = _assert_sweep_matches_reference(points, modes, env, params, params.radius)
    pairs = set(zip(roadmap.a.tolist(), roadmap.b.tolist()))
    assert (0, 30) in pairs  # (5, 1, 0) and (3, 1, 0), exactly 2.0 apart


def test_sweep_over_a_strip_of_many_band_blocks():
    # A rectangle of the sweep holds at most PAIR_BLOCK squared distances,
    # and k consecutive rows of a full build span at least k - 1 columns, so
    # one rectangle holds at most 91 rows and 400 nodes take 5 or more.
    env = Environment(
        Aabb((0.0, 0.0, 0.0), (100.0, 2.0, 3.0)),
        obstacles=tuple(Aabb((x, 0.0, 0.0), (x + 0.2, 2.0, 1.0)) for x in (20.0, 55.0, 80.0)),
    )
    params = PrmParams(n_ground=0, n_air=0, radius=2.0)
    rng = SplitMix64(11)
    points, modes = [], []
    while len(points) < 400:
        aerial = len(points) % 2 == 1
        point = (uniform(rng, 0.0, 100.0), uniform(rng, 0.0, 2.0), 1.6 if aerial else 0.0)
        if not env.point_in_collision(point, params.clearance):
            points.append(point)
            modes.append(NodeMode.AERIAL if aerial else NodeMode.GROUND)
    _assert_sweep_matches_reference(points, modes, env, params, params.radius)


def test_sweep_with_a_huge_finite_radius():
    # radius * radius overflows to inf: every pair is a candidate, and every
    # window is the whole sorted order.
    env = open_env()
    params = PrmParams(n_ground=0, n_air=0, radius=1e308)
    rng = SplitMix64(3)
    points = [(uniform(rng, 0.0, 20.0), uniform(rng, 0.0, 20.0), 0.0) for _ in range(25)]
    roadmap = _assert_sweep_matches_reference(
        points, [NodeMode.GROUND] * 25, env, params, params.radius
    )
    assert len(roadmap.a) == 25 * 24 // 2


def test_sweep_inserts_query_nodes_at_the_x_extremes_and_on_a_shared_x():
    env = walled_env()
    params = PrmParams(n_ground=120, n_air=80, radius=2.0, seed=5)
    ref = _ref_build(env, params)
    roadmap = build_roadmap(env, CM, params)
    x_node, y_node = ref.node_records[17].position[:2]
    queries = (
        ((0.0, 3.0, 0.0), (12.0, 3.0, 0.0)),  # the world's smallest and largest x
        ((x_node, (y_node + 3.0) % 6.0, 0.0), (12.0, 0.5, 0.0)),  # an existing node's x
    )
    for start, goal in queries:
        _, *want, _ = _ref_insert(ref, start, goal, env, params)
        roadmap, *got = insert_query_nodes(roadmap, start, goal, env, CM, params)
        assert got == want
        assert _snapshot(roadmap) == _ref_snapshot(ref)


def _hundred_box_env():
    """The 100-box cluttered world of CI's roadmap pin: SplitMix64(100)
    boxes in a 20 x 12 x 3 m world, every fourth touching the +x face of
    the box before it."""
    rng = SplitMix64(100)
    boxes = []
    for i in range(100):
        lo = [rng.random() * 19.0, rng.random() * 11.0, rng.random() * 2.5]
        if i % 4 == 3:
            lo = [boxes[-1].max_corner[0], boxes[-1].min_corner[1], boxes[-1].min_corner[2]]
        boxes.append(Aabb(tuple(lo), tuple(v + 0.1 + rng.random() for v in lo)))
    return Environment(Aabb((0.0, 0.0, 0.0), (20.0, 12.0, 3.0)), tuple(boxes))


@pytest.mark.parametrize("world", ["walled arena", "heightmap, 7 obstacles", "100 boxes"])
def test_groups_share_one_narrow_pass_and_match_one_row_calls(world, monkeypatch):
    # 300 + 300 nodes (400 + 400 among 100 boxes) make several validation
    # groups of about PAIR_GROUP candidates, each through the broad phase,
    # and one narrow pass over what they leave undecided. The edges must be
    # those of one call per node, each a single group with a narrow pass
    # only when its broad phase leaves a segment undecided.
    n, air_clearance = 300, 0.3
    if world == "walled arena":
        env, air_clearance = load_environment(ARENA), 1.4
    elif world == "heightmap, 7 obstacles":
        env, air_clearance = _heightmap_obstacles_env(), 0.4
    else:
        env, n = _hundred_box_env(), 400
    params = PrmParams(n_ground=n, n_air=n, radius=2.0, min_air_clearance=air_clearance, seed=1)
    built = build_roadmap(env, CM, params)
    pos, mode = built.positions, built.mode
    undecided, narrow = [], []
    undecided_method, hit_method = Environment.segments_undecided, Environment.segments_hit

    def spy_undecided(self, a, b, clearance):
        undecided.append(undecided_method(self, a, b, clearance))
        return undecided[-1]

    def spy_hit(self, a, b, clearance):
        narrow.append(len(a))
        return hit_method(self, a, b, clearance)

    monkeypatch.setattr(Environment, "segments_undecided", spy_undecided)
    monkeypatch.setattr(Environment, "segments_hit", spy_hit)
    full = _build_edges(pos, mode, env, params, params.radius)
    assert len(undecided) > 3 and len(narrow) == 1, (len(undecided), narrow)
    if world == "100 boxes":
        assert narrow[0] > 2000, narrow  # thousands left to the narrow phase
    del undecided[:], narrow[:]
    rows = [_row_edges(pos, mode, k, env, params, params.radius) for k in range(len(pos))]
    assert len(undecided) == len(pos)
    assert len(narrow) == sum(u.any() for u in undecided) > 0
    assert min(narrow) > 0
    joined = map(np.concatenate, zip(*rows))
    for col, want, got in zip(("a", "b", "kind", "length", "cost"), full, joined):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (world, col)
    for want, got in zip(full, (built.a, built.b, built.kind, built.length, built.cost)):
        assert got.tobytes() == want.tobytes(), world
    assert len(full[0]) > 5000


def test_connect_edges_with_no_rows_or_no_nodes():
    env = open_env()
    params = PrmParams(n_ground=0, n_air=0, radius=2.0)
    roadmap, _, _ = _hand_roadmaps(
        [(1.0, 1.0, 0.0), (2.0, 1.0, 0.0)], [NodeMode.GROUND] * 2, env, params, 2.0
    )
    assert len(roadmap.a) == 1
    empty = Roadmap()
    assert len(_candidate_keys(empty.positions, 4.0)) == 0
    for rm in (roadmap, empty):
        columns = _connect_edges(rm.positions, rm.mode, empty.a, env, CM, params, 2.0)
        for col, like in zip(columns, (empty.a, empty.b, empty.kind, empty.length, empty.cost)):
            assert col.dtype == like.dtype and len(col) == 0
    empty = build_roadmap(env, CM, params)
    assert len(empty.positions) == len(empty.a) == 0


def test_record_views_match_columns():
    # The nodes, edges and adjacency views and other_end remain for the
    # benchmark alone, and no other test reads them. They must say what the
    # columns and the CSR say, as the reference's records do.
    roadmap = build_roadmap(walled_env(), CM, PrmParams(n_ground=60, n_air=60, seed=2))
    nodes, edges, incident, _ = _snapshot(roadmap)
    assert [(n.position, n.mode) for n in roadmap.nodes] == nodes
    assert [n.id for n in roadmap.nodes] == list(range(len(nodes)))
    assert [(e.a, e.b, e.kind, e.length, e.cost) for e in roadmap.edges] == edges
    assert len(edges) > 100
    views = [[(i, roadmap.other_end(i, u), roadmap.edges[i].cost) for i in adj]
             for u, adj in enumerate(roadmap.adjacency)]
    assert views == incident


def test_build_memory_stays_flat():
    # Edge checks run in fixed-size numpy passes: sweep rectangles of at most
    # PAIR_BLOCK squared distances and broad-phase groups of about PAIR_GROUP
    # candidates, and one exact narrow pass per build tests a few points for
    # each of the few hundred segments the broad phase leaves undecided. The
    # build's transient memory, above what the finished roadmap retains,
    # stays under 2 MB (about 0.5 MB).
    env = load_environment(ARENA)
    params = PrmParams(n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4, seed=7)
    tracemalloc.start()
    try:
        roadmap = build_roadmap(env, CM, params)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(roadmap.a) > 10000
    assert peak - retained < 2 * 2**20, (retained, peak)


def test_build_memory_scales_with_edges():
    # The arena tiled 2 x 2, a 1 m wall every 12 m, at the arena's density.
    # The build holds a key, a length, a cost and two flags per candidate
    # pair, so its transient memory stays within what the finished roadmap
    # retains plus 1 MB (about 1.7 MB against 1.9 MB). A key buffer sized to
    # the rectangles' area, or every candidate validated at once, holds
    # several MB more.
    walls = tuple(Aabb((12.0 * k + 4.9, 0.0, 0.0), (12.0 * k + 5.1, 12.0, 1.0)) for k in range(2))
    env = Environment(Aabb((0.0, 0.0, 0.0), (24.0, 12.0, 3.0)), obstacles=walls)
    params = PrmParams(n_ground=1200, n_air=1200, radius=2.0, min_air_clearance=1.4, seed=7)
    tracemalloc.start()
    try:
        roadmap = build_roadmap(env, CM, params)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(roadmap.a) > 50000
    assert peak - retained <= retained + 2**20, (retained, peak)


def test_narrow_phase_sees_only_segments_the_broad_phase_cannot_decide(monkeypatch):
    # The broad phase decides most of a seed-1 walled-arena build's 13,261
    # segment checks (one per candidate pair); 276 reach the narrow phase. A
    # broad phase that leaves every transition candidate (1,528 segments)
    # undecided fails here.
    narrow = []
    segments_hit = Environment.segments_hit

    def counting(self, a, b, clearance):
        narrow.append(len(a))
        return segments_hit(self, a, b, clearance)

    monkeypatch.setattr(Environment, "segments_hit", counting)
    env = load_environment(ARENA)
    params = PrmParams(n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4, seed=1)
    roadmap = build_roadmap(env, CM, params)
    assert len(roadmap.a) > 10000
    assert 0 < sum(narrow) < 500, sum(narrow)
    # The build's several validation groups share one narrow pass.
    assert len(narrow) == 1, narrow


# The worlds of CI's cluttered and sinusoid-heightmap roadmap pins: a maker
# and the prm parameters besides radius 2.0 and seed 1.
PASS_WORLDS = {
    "100 boxes": (_hundred_box_env, {"n_ground": 400, "n_air": 400}),
    "heightmap, 7 obstacles": (
        _heightmap_obstacles_env, {"n_ground": 300, "n_air": 300, "min_air_clearance": 0.4}
    ),
}


def test_each_narrow_pass_is_sized_by_its_own_work(monkeypatch):
    # The narrow phase tests the boxes over the (segment, box) pairs within
    # reach, in passes of BOX_BLOCK pairs, and a heightmap over the segments
    # whose hull dips below the highest ground, in passes as wide as their
    # own lattice span needs. Passes sized by the box count, or padded with
    # every segment's work, took 59 box passes for the 100-box build's 3,246
    # pairs and 47 ground passes for the heightmap build's 11,391 segments.
    narrow, box_pairs, ground = [], [], []
    segments_hit, box_params = Environment.segments_hit, env_module._box_params
    ground_range = Environment._ground_range

    def spy_hit(self, a, b, clearance):
        narrow.append((np.asarray(a), np.asarray(b), clearance))
        return segments_hit(self, a, b, clearance)

    def spy_box_params(a, d, lo, hi):
        box_pairs.append(a.shape[1])
        return box_params(a, d, lo, hi)

    def spy_ground(self, a, b, d):
        ground.append((np.minimum(a[2], b[2]), np.abs(d[:2]).sum(axis=0)))
        return ground_range(self, a, b, d)

    monkeypatch.setattr(Environment, "segments_hit", spy_hit)
    monkeypatch.setattr(env_module, "_box_params", spy_box_params)
    monkeypatch.setattr(Environment, "_ground_range", spy_ground)
    for world, (make, prm) in PASS_WORLDS.items():
        del narrow[:], box_pairs[:], ground[:]
        env = make()
        build_roadmap(env, CM, PrmParams(radius=2.0, seed=1, **prm))
        [(a, b, clearance)] = narrow
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pairs = 0
        for box in env.obstacles:
            gap = np.maximum(np.maximum(np.array(box.min_corner) - hi, lo - box.max_corner), 0.0)
            pairs += int(((gap * gap).sum(axis=1) <= (clearance + 1e-9) ** 2).sum())
        block = env_module.BOX_BLOCK
        assert box_pairs == [min(block, pairs - i) for i in range(0, pairs, block)], world
        low = lo[:, 2] < env._floor_top
        if env.heightmap is None:
            assert ground == [] and (pairs, len(box_pairs)) == (3246, 1)
            continue
        span = np.abs(b - a)[low, :2].sum(axis=1).max()
        hm = env.heightmap
        block //= 2 * int(min(span / hm.resolution, hm.cols + hm.rows)) + 5
        assert len(ground) == math.ceil(low.sum() / block), (len(ground), low.sum(), block)
        assert all((z < env._floor_top).all() and len(z) <= block for z, _ in ground)
        assert sum(len(z) for z, _ in ground) == low.sum() == 11391
        assert max(w.max() for _, w in ground) == span


@pytest.mark.parametrize("world", sorted(PASS_WORLDS))
def test_pass_cuts_change_no_verdict(world, monkeypatch):
    # Every segments_hit pass is a cut of elementwise work, so no cut of the
    # ground segments or of the (segment, box) pairs moves a verdict: one
    # pair or one segment a pass, 7, 64 and BOX_BLOCK, in either end order.
    # About 1,000 of the world's candidate segments keep one pair a pass
    # quick.
    make, prm = PASS_WORLDS[world]
    env, params = make(), PrmParams(radius=2.0, seed=1, **prm)
    pos = build_roadmap(env, CM, params).positions
    keys = _candidate_keys(pos, params.radius**2)
    new, old = np.divmod(keys[:: len(keys) // 1000], len(pos))
    a, b = pos[old], pos[new]
    want = env.segments_hit(a, b, params.clearance).tolist()
    assert 0 < sum(want) < len(want)
    for block in (env_module.BOX_BLOCK, 1, 7, 64):
        monkeypatch.setattr(env_module, "BOX_BLOCK", block)
        for p, q in ((a, b), (b, a)):
            assert env.segments_hit(p, q, params.clearance).tolist() == want, block


# -- export ------------------------------------------------------------------------


def test_roadmap_to_dict_shape():
    roadmap = build_roadmap(
        open_env(), CM, PrmParams(n_ground=30, n_air=30, radius=2.5, seed=1)
    )
    d = roadmap_to_dict(roadmap)
    assert len(d["nodes"]) == 60
    pairs = [(e["a"], e["b"]) for e in d["edges"]]
    assert pairs == sorted(pairs)
    assert d["nodes"][0]["id"] == 0
    assert {n["mode"] for n in d["nodes"]} == {"Ground", "Aerial"}
    assert {e["kind"] for e in d["edges"]} <= {"Ground", "Flight", "Transition"}
