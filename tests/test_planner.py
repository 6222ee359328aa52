"""Graph search: A* vs a reference Dijkstra, grid cost-to-go, plan segmentation."""

import heapq
import math

import numpy as np
import pytest
from scipy import ndimage

from morphnav.env import OccupancyGrid, load_environment
from morphnav.errors import NoPathError
from morphnav.planner import (
    CostToGo,
    SegmentKind,
    astar_multimodal,
    dijkstra_all_costs,
    dijkstra_oracle,
    path_to_waypoints,
)
from morphnav.rng import SplitMix64
from morphnav.roadmap import (
    EDGE_KINDS,
    NODE_MODES,
    EdgeKind,
    NodeMode,
    PrmParams,
    Roadmap,
    build_roadmap,
    heuristic_costs,
    insert_query_nodes,
)
from reference import ARENA, CM, ref_edge_cost, ref_heuristic, walled_env


def _line_graph(costs, spacing=1.0):
    """Ground nodes at x = 0, spacing, 2 * spacing, ... with ground edges
    of explicit costs {(a, b): cost}, a < b, appended to the columns;
    lengths are set to the node distance."""
    n = 1 + max(b for _, b in costs)
    a, b = zip(*costs)
    roadmap = Roadmap()
    roadmap._append(positions=[(spacing * i, 0.0, 0.0) for i in range(n)], mode=[0] * n)
    roadmap._append(
        a=a, b=b, kind=[EDGE_KINDS.index(EdgeKind.GROUND)] * len(a),
        length=[spacing * (j - i) for i, j in costs], cost=list(costs.values()),
    )
    return roadmap


# -- basic search -------------------------------------------------------------


def test_astar_picks_cheapest_route_on_manual_graph():
    roadmap = _line_graph({(0, 1): 1.0, (1, 2): 2.0, (0, 2): 10.0})
    plan = astar_multimodal(roadmap, 0, 2, CM, h=np.zeros(3))
    assert plan.node_ids == (0, 1, 2)
    assert plan.total_cost == 3.0
    assert plan.n_transitions == 0
    assert plan.edge_ids == (0, 1)
    oracle = dijkstra_oracle(roadmap, 0, 2, CM)
    assert oracle.node_ids == plan.node_ids
    assert oracle.total_cost == plan.total_cost


def test_start_equals_goal():
    roadmap = _line_graph({(0, 1): 1.0})
    for search in (astar_multimodal, dijkstra_oracle):
        plan = search(roadmap, 1, 1, CM)
        assert plan.node_ids == (1,)
        assert plan.edge_ids == ()
        assert plan.total_cost == 0.0


def test_two_node_ground_plan_costs_drive_energy():
    roadmap = _line_graph({(0, 1): ref_edge_cost(CM, EdgeKind.GROUND, 3.0, 0.0, 0.0)}, spacing=3.0)
    plan = astar_multimodal(roadmap, 0, 1, CM)
    assert plan.total_cost == 360.0
    assert plan.cost_ground == 360.0
    assert plan.cost_flight == 0.0 and plan.cost_transition == 0.0
    assert plan.expanded >= 1


def test_no_path_reports_explored_count():
    roadmap = _line_graph({(0, 1): 1.0})
    roadmap.add_node((50.0, 0.0, 0.0), NodeMode.GROUND)  # disconnected
    with pytest.raises(NoPathError) as info:
        astar_multimodal(roadmap, 0, 2, CM, h=np.zeros(3))
    assert info.value.explored == 2
    with pytest.raises(NoPathError):
        dijkstra_oracle(roadmap, 0, 2, CM)
    with pytest.raises(ValueError):
        astar_multimodal(roadmap, 0, 99, CM)
    with pytest.raises(ValueError, match="h holds 2 bounds for 3 nodes"):
        astar_multimodal(roadmap, 0, 2, CM, h=np.zeros(2))


def test_inconsistent_heuristic_trips_the_guard():
    # Stored costs of 1 J per meter undercut the shipped bound's 120 J/m
    # (h = 360, 240, 120, 0), so 0-1-2-3 (202) is optimal but the search
    # closes node 2 first at cost 100 and reaches it again at cost 2. With
    # the shipped bound the consistency guard must raise; with the same
    # bound given as h it is off, and the search keeps the route via node 2.
    roadmap = _line_graph({(0, 1): 1.0, (0, 2): 100.0, (1, 2): 1.0, (2, 3): 200.0})
    with pytest.raises(AssertionError, match="closed node 2 key decreased"):
        astar_multimodal(roadmap, 0, 3, CM)
    h = heuristic_costs(CM, roadmap.positions, roadmap.positions[3])
    plan = astar_multimodal(roadmap, 0, 3, CM, h=h)
    assert plan.total_cost == 300.0
    assert plan.node_ids == (0, 2, 3)
    assert dijkstra_oracle(roadmap, 0, 3, CM).total_cost == 202.0


# -- randomized cross-check -----------------------------------------------------


def test_astar_matches_dijkstra_on_seeded_roadmaps():
    env = walled_env()
    pair_rng = SplitMix64(99)
    for seed in range(10):
        roadmap = build_roadmap(
            env, CM, PrmParams(n_ground=70, n_air=70, radius=2.0, seed=seed)
        )
        n = len(roadmap.positions)
        for _ in range(5):
            a, b = pair_rng.randint(n), pair_rng.randint(n)
            try:
                fast = astar_multimodal(roadmap, a, b, CM)
            except NoPathError:
                with pytest.raises(NoPathError):
                    dijkstra_oracle(roadmap, a, b, CM)
                continue
            ref = dijkstra_oracle(roadmap, a, b, CM)
            assert fast.total_cost == pytest.approx(ref.total_cost, rel=1e-9)
            assert fast.expanded <= ref.expanded
            # The reported breakdown must reassemble into the total.
            parts = fast.cost_ground + fast.cost_flight + fast.cost_transition
            assert parts == pytest.approx(fast.total_cost, rel=1e-9)
            assert fast.cost_transition == pytest.approx(
                fast.n_transitions * CM.transition_cost(), rel=1e-12
            )
            recomputed = sum(roadmap.cost[list(fast.edge_ids)].tolist())
            assert recomputed == pytest.approx(fast.total_cost, rel=1e-9)


def test_plan_path_is_edge_connected():
    env = walled_env()
    params = PrmParams(n_ground=100, n_air=100, radius=2.0, seed=3)
    roadmap = build_roadmap(env, CM, params)
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (1.0, 3.0, 0.0), (10.0, 3.0, 0.0), env, CM, params
    )
    plan = astar_multimodal(roadmap, sid, gid, CM)
    assert plan.node_ids[0] == sid and plan.node_ids[-1] == gid
    assert len(plan.edge_ids) == len(plan.node_ids) - 1
    for i, e in enumerate(plan.edge_ids):
        assert {plan.node_ids[i], plan.node_ids[i + 1]} == {roadmap.a[e], roadmap.b[e]}


def test_all_costs_agrees_with_single_queries():
    roadmap = build_roadmap(
        walled_env(), CM, PrmParams(n_ground=60, n_air=60, radius=2.0, seed=7)
    )
    source = 5
    table = dijkstra_all_costs(roadmap, source)
    assert table[source] == 0.0
    rng = SplitMix64(17)
    for _ in range(15):
        target = rng.randint(len(roadmap.positions))
        try:
            want = dijkstra_oracle(roadmap, source, target, CM).total_cost
        except NoPathError:
            want = math.inf
        assert table[target] == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- the CSR search against the adjacency-list search it replaced ------------------


def _list_search(edges, adjacency, source, goal, h):
    """Best-first search over per-node adjacency lists of (a, b, cost)
    edges, as the roadmap was searched before its CSR: keys (g + h[id], g,
    id), no reopening. Returns (g, parent edge, expansions)."""
    n = len(h)
    g, parent, closed = [math.inf] * n, [-1] * n, [False] * n
    g[source] = 0.0
    heap = [(h[source], 0.0, source)]
    expanded = 0
    while heap:
        _, gu, u = heapq.heappop(heap)
        if closed[u] or gu > g[u]:
            continue
        closed[u] = True
        expanded += 1
        if u == goal:
            break
        for idx in adjacency[u]:
            ea, eb, cost = edges[idx]
            v = eb if ea == u else ea
            new_g = gu + cost
            if new_g < g[v] and not closed[v]:
                g[v] = new_g
                parent[v] = idx
                heapq.heappush(heap, (new_g + h[v], new_g, v))
    return g, parent, expanded


def _list_path(edges, parent, source, goal):
    """(node ids, edge ids) of the path the parent edges hold."""
    node_ids, path, cur = [goal], [], goal
    while cur != source:
        ea, eb, _ = edges[parent[cur]]
        path.append(parent[cur])
        cur = eb if ea == cur else ea
        node_ids.append(cur)
    return tuple(reversed(node_ids)), tuple(reversed(path))


def test_csr_search_matches_adjacency_list_search():
    env = load_environment(ARENA)
    roadmap = build_roadmap(
        env, CM, PrmParams(seed=1, n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4)
    )
    edges = list(zip(roadmap.a.tolist(), roadmap.b.tolist(), roadmap.cost.tolist()))
    positions = roadmap.positions.tolist()
    adjacency = [[] for _ in positions]
    for idx, (a, b, _) in enumerate(edges):
        adjacency[a].append(idx)
        adjacency[b].append(idx)
    # Ground nodes connected to node 0, west and east of the wall at x = 5.
    reach = dijkstra_all_costs(roadmap, 0)
    on_ground = roadmap.mode == NODE_MODES.index(NodeMode.GROUND)
    ground = np.flatnonzero(on_ground & np.isfinite(reach)).tolist()
    west = [i for i in ground if positions[i][0] < 5.0]
    east = [i for i in ground if positions[i][0] > 5.0]
    zeros = [0.0] * len(positions)
    rng = SplitMix64(40)
    for q in range(40):
        # Two queries in three cross the wall.
        a, side = west[rng.randint(len(west))], east if q % 3 else west
        b = a
        while b == a:
            b = side[rng.randint(len(side))]
        h = [ref_heuristic(CM, p, positions[b]) for p in positions]
        g, parent, expanded = _list_search(edges, adjacency, a, b, h)
        plan = astar_multimodal(roadmap, a, b, CM)
        assert plan.total_cost == g[b], q
        assert (plan.node_ids, plan.edge_ids) == _list_path(edges, parent, a, b), q
        assert plan.expanded == expanded, q
        if q % 3:
            assert plan.n_transitions == 2, q
        g, parent, expanded = _list_search(edges, adjacency, a, b, zeros)
        ref = dijkstra_oracle(roadmap, a, b, CM)
        assert ref.total_cost == g[b], q
        assert (ref.node_ids, ref.edge_ids) == _list_path(edges, parent, a, b), q
        assert ref.expanded == expanded, q
        if q % 10 == 0:
            full = _list_search(edges, adjacency, b, None, zeros)[0]
            assert dijkstra_all_costs(roadmap, b) == full, q


# -- grid cost-to-go ------------------------------------------------------------


def _grid(cells, res=0.1):
    return OccupancyGrid(res, (0.0, 0.0), np.array(cells, dtype=bool))


def test_cost_to_go_diagonal_and_straight():
    field = CostToGo(_grid(np.zeros((10, 10))), (9, 9))
    assert len(field.descend((0, 0))) == 10
    assert field.cost(0, 0) == pytest.approx(9.0 * math.sqrt(2.0) * 0.1, rel=1e-12)
    assert field.cost(9, 2) == pytest.approx(0.7, rel=1e-12)
    assert field.cost(9, 9) == 0.0 and field.descend((9, 9)) == [(9, 9)]


def test_grid_plan_goal_failures_vs_start_errors():
    # An occupied or off-grid goal leaves no route from anywhere; an occupied
    # or off-grid start is infinite only at that cell, and the field it sits
    # in stays finite elsewhere.
    cells = np.zeros((6, 6))
    cells[2, 2] = 1
    grid = _grid(cells)
    for goal in ((2, 2), (9, 9)):
        field = CostToGo(grid, goal)
        assert math.isinf(field.cost(0, 0))
        assert field.descend((0, 0)) == [(0, 0)]
    field = CostToGo(grid, (0, 0))
    for start in ((2, 2), (-1, 0)):
        assert math.isinf(field.cost(*start))
        assert field.descend(start) == [start]
    assert field.cost(0, 5) == pytest.approx(0.5, rel=1e-12)
    assert field.descend((0, 5))[-1] == (0, 0)


def test_cost_to_go_routes_through_the_gap():
    cells = np.zeros((10, 10))
    cells[:, 5] = 1
    cells[8, 5] = 0
    grid = _grid(cells)
    path = CostToGo(grid, (0, 9)).descend((0, 0))
    assert path[-1] == (0, 9)
    assert (8, 5) in path
    for cell in path:
        assert not grid.occupied(*cell)
    cells[8, 5] = 1
    assert math.isinf(CostToGo(_grid(cells), (0, 9)).cost(0, 0))


def _dijkstra_grid_length(grid, start, goal=None):
    """Independent shortest-path length over free cells, or None; with no
    goal, the lengths from start to every cell it reaches, as a dict."""
    if goal is not None and grid.occupied(*goal):
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        if cell == goal:
            return d
        done.add(cell)
        r, c = cell
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == dc == 0:
                    continue
                nxt = (r + dr, c + dc)
                if grid.occupied(*nxt) or nxt in done:
                    continue
                step = grid.resolution * (math.sqrt(2.0) if dr and dc else 1.0)
                nd = d + step
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return None if goal is not None else dist


def _path_is_valid(grid, path, start, goal, length):
    assert path[0] == start and path[-1] == goal
    total = 0.0
    for (r0, c0), (r1, c1) in zip(path, path[1:]):
        dr, dc = abs(r1 - r0), abs(c1 - c0)
        assert max(dr, dc) == 1  # 8-adjacent single step
        assert not grid.occupied(r1, c1)
        total += grid.resolution * (math.sqrt(2.0) if dr and dc else 1.0)
    assert not grid.occupied(*path[0])
    assert total == pytest.approx(length, rel=1e-9, abs=1e-12)


def _random_grids():
    """40 seeded 25 x 25 grids at 35% occupancy: (cells, grid, flood-fill
    labels, start, goal), start and goal free."""
    eight = np.ones((3, 3), dtype=int)
    rng = SplitMix64(21)
    for _ in range(40):
        cells = np.zeros((25, 25), dtype=bool)
        for r in range(25):
            for c in range(25):
                cells[r, c] = rng.random() < 0.35
        free = np.argwhere(~cells)
        start = tuple(int(v) for v in free[rng.randint(len(free))])
        goal = tuple(int(v) for v in free[rng.randint(len(free))])
        labels, _ = ndimage.label(~cells, structure=eight)
        yield cells, _grid(cells), labels, start, goal


def test_cost_to_go_matches_flood_fill_and_is_optimal():
    for cells, grid, labels, start, goal in _random_grids():
        reachable = labels[start] == labels[goal]
        field = CostToGo(grid, goal)
        length = field.cost(*start)
        assert math.isfinite(length) == reachable
        if reachable:
            _path_is_valid(grid, field.descend(start), start, goal, length)
            want = _dijkstra_grid_length(grid, start, goal)
            assert length == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cost_to_go_matches_reference_on_every_cell():
    # The grid graph is undirected, so the reference lengths from the goal
    # are every cell's cost to reach it.
    for cells, grid, labels, _, goal in _random_grids():
        want = _dijkstra_grid_length(grid, goal)
        field = CostToGo(grid, goal)
        for r in range(25):
            for c in range(25):
                got = field.cost(r, c)
                reachable = not cells[r, c] and labels[r, c] == labels[goal]
                assert math.isinf(got) == (not reachable), (r, c)
                assert reachable == ((r, c) in want)
                if reachable:
                    assert got == pytest.approx(want[(r, c)], rel=1e-9, abs=1e-12)
                    # Descent walks a shortest path over cells of finite cost.
                    path = field.descend((r, c))
                    steps = [math.dist(a, b) for a, b in zip(path, path[1:])]
                    assert path[0] == (r, c) and path[-1] == goal
                    assert all(math.isfinite(field.cost(*cell)) for cell in path)
                    assert set(steps) <= {1.0, math.sqrt(2.0)}
                    assert 0.1 * sum(steps) == pytest.approx(got, rel=1e-9, abs=1e-12)
        for off_grid in ((-1, 0), (0, -1), (25, 3), (3, 25), (-2, -2), (40, 40)):
            assert math.isinf(field.cost(*off_grid))


def test_cost_to_go_infinite_for_blocked_or_off_grid_goal():
    cells = np.zeros((6, 7), dtype=bool)
    cells[2, 2] = True
    grid = _grid(cells)
    for goal in ((2, 2), (-1, 0), (0, 7), (6, 0), (9, 9)):
        field = CostToGo(grid, goal)
        assert all(math.isinf(field.cost(r, c)) for r in range(6) for c in range(7))
        assert field.descend((0, 0)) == [(0, 0)]


def test_descent_takes_straight_steps_before_diagonals():
    grid = _grid(np.zeros((6, 8)))
    field = CostToGo(grid, (2, 5))
    assert field.cost(0, 0) == pytest.approx((3.0 + 2.0 * math.sqrt(2.0)) * 0.1, rel=1e-12)
    path = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]
    assert field.descend((0, 0)) == path
    # A step budget stops the descent early; the goal stops it anyway.
    assert field.descend((0, 0), 2) == path[:3]
    assert field.descend((0, 0), 50) == path
    assert field.descend((2, 5), 3) == [(2, 5)]
    # From below the goal the straight steps lead as well.
    assert field.descend((5, 0)) == [(5, 0), (5, 1), (5, 2), (4, 3), (3, 4), (2, 5)]
    # On an open grid every descent is straight steps, then diagonals, even
    # where float sums make two shortest paths differ in the last bit.
    grid = _grid(np.zeros((20, 30)))
    field = CostToGo(grid, (7, 11))
    for r in range(20):
        for c in range(30):
            path = field.descend((r, c))
            kinds = [abs(r1 - r0) + abs(c1 - c0) for (r0, c0), (r1, c1) in zip(path, path[1:])]
            assert kinds == sorted(kinds), (r, c)


# -- segmentation -----------------------------------------------------------------


def test_segments_for_cross_wall_plan():
    env = walled_env()
    params = PrmParams(
        n_ground=300, n_air=300, radius=2.0, seed=1, min_air_clearance=1.4
    )
    roadmap = build_roadmap(env, CM, params)
    roadmap, sid, gid = insert_query_nodes(
        roadmap, (1.0, 3.0, 0.0), (10.0, 3.0, 0.0), env, CM, params
    )
    plan = astar_multimodal(roadmap, sid, gid, CM)
    assert plan.n_transitions == 2
    segments = path_to_waypoints(plan, roadmap)
    kinds = [s.kind for s in segments]
    assert kinds.count(SegmentKind.MORPH_THEN_FLY) == 1
    assert kinds.count(SegmentKind.LAND_THEN_MORPH) == 1
    assert kinds.index(SegmentKind.MORPH_THEN_FLY) < kinds.index(
        SegmentKind.LAND_THEN_MORPH
    )
    # Consecutive segments share their boundary waypoint, and stitching
    # them back together reproduces the node path.
    for prev, nxt in zip(segments, segments[1:]):
        assert prev.waypoints[-1] == nxt.waypoints[0]
    stitched = list(segments[0].waypoints)
    for seg in segments[1:]:
        stitched.extend(seg.waypoints[1:])
    assert stitched == [tuple(p) for p in roadmap.positions[list(plan.node_ids)].tolist()]
    # Flight legs stay above the wall with margin.
    for seg in segments:
        if seg.kind is SegmentKind.FLY:
            assert all(w[2] > 1.35 for w in seg.waypoints)


def test_segments_empty_for_trivial_plan():
    roadmap = _line_graph({(0, 1): 1.0})
    plan = astar_multimodal(roadmap, 0, 0, CM)
    assert path_to_waypoints(plan, roadmap) == []
