"""Search: energy-optimal roadmap planning and an 8-connected grid
cost-to-go field.

The roadmap planner is A* over a per-node lower bound on the cost to go
(roadmap.heuristic_costs) with a closed set (no reopening); an independent
uniform-cost implementation, dijkstra_oracle, exists purely to cross-check
it and deliberately shares no search code with it. Both walk the roadmap's
CSR adjacency.

The grid side is CostToGo: one wavefront from a goal cell gives every
cell's shortest-path length to it, and `descend` reads a shortest path off
it. The mission executor builds one per waypoint; an infinite cost is its
verdict that no drivable path exists.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costmodel import CostModel
from .env import OccupancyGrid
from .errors import NoPathError
from .roadmap import EDGE_KINDS, EdgeKind, Roadmap, heuristic_costs

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PlanResult:
    """A roadmap path with its energy breakdown.

    node_ids/edge_ids index the roadmap's columns (its record views serve
    only the benchmark). total_cost is the accumulated edge cost, split into
    driving, flying (including the flight share of transition edges), and
    n_transitions reconfigurations at fixed cost each. `expanded` counts
    search expansions, for diagnostics.
    """

    node_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    total_cost: float
    cost_ground: float
    cost_flight: float
    cost_transition: float
    n_transitions: int
    expanded: int


def _assemble_result(
    roadmap: Roadmap, cm: CostModel, parent_edge: list[int], start_id: int, goal_id: int,
    total: float, expanded: int,
) -> PlanResult:
    """The path the parent edges trace from goal_id back to start_id, with
    its cost split summed in path order."""
    node_ids, edge_ids = [goal_id], []
    while node_ids[-1] != start_id:
        edge_ids.append(e := parent_edge[node_ids[-1]])
        node_ids.append(int(roadmap.a[e] + roadmap.b[e]) - node_ids[-1])
    edge_ids.reverse()
    kinds = [EDGE_KINDS[k] for k in roadmap.kind[edge_ids].tolist()]
    c_t = cm.transition_cost()
    ground = flight = 0.0
    for kind, cost in zip(kinds, roadmap.cost[edge_ids].tolist()):
        if kind is EdgeKind.GROUND:
            ground += cost
        else:
            flight += cost if kind is EdgeKind.FLIGHT else cost - c_t
    n_t = kinds.count(EdgeKind.TRANSITION)
    return PlanResult(
        tuple(reversed(node_ids)), tuple(edge_ids), total, ground, flight, n_t * c_t, n_t, expanded
    )


def astar_multimodal(
    roadmap: Roadmap, start_id: int, goal_id: int, cm: CostModel, h=None
) -> PlanResult:
    """Minimum-energy path between two roadmap nodes.

    `h` holds a lower bound on the cost from each node to the goal, indexed
    by node id. By default it is roadmap.heuristic_costs toward the goal,
    built once per search, and a closed node whose cost would still drop
    raises AssertionError: that bound is consistent, so only float noise
    may improve a closed node. A given `h` (for comparison runs) skips that
    check, and optimality then holds only if `h` is consistent.

    Raises NoPathError (carrying the count of explored nodes) when the goal
    is unreachable.
    """
    n = len(roadmap.positions)
    if not (0 <= start_id < n and 0 <= goal_id < n):
        raise ValueError("start/goal id out of range")
    if start_id == goal_id:
        return _assemble_result(roadmap, cm, [], start_id, start_id, 0.0, 0)
    guard = h is None
    if guard:
        h = heuristic_costs(cm, roadmap.positions, roadmap.positions[goal_id])
    h = np.asarray(h, dtype=float).tolist()
    if len(h) != n:
        raise ValueError(f"h holds {len(h)} bounds for {n} nodes")

    indptr, neighbour, edge_id, edge_cost = roadmap.csr()
    g = [math.inf] * n
    parent_edge = [-1] * n
    closed = [False] * n
    g[start_id] = 0.0
    # Heap entries order by f, then lower g, then lower node id.
    heap: list[tuple[float, float, int]] = [(h[start_id], 0.0, start_id)]
    expanded = 0
    while heap:
        f, gu, u = heapq.heappop(heap)
        if closed[u] or gu > g[u]:
            continue
        closed[u] = True
        expanded += 1
        if u == goal_id:
            return _assemble_result(roadmap, cm, parent_edge, start_id, u, g[u], expanded)
        lo, hi = indptr[u], indptr[u + 1]
        for v, idx, cost in zip(
            neighbour[lo:hi].tolist(), edge_id[lo:hi].tolist(), edge_cost[lo:hi].tolist()
        ):
            new_g = gu + cost
            if new_g < g[v]:
                if closed[v]:
                    # A consistent heuristic can never improve a closed node
                    # beyond float noise from summation order.
                    if guard and new_g < g[v] - 1e-9 * max(1.0, g[v]):
                        raise AssertionError(
                            f"closed node {v} key decreased; heuristic inconsistent"
                        )
                    continue
                g[v] = new_g
                parent_edge[v] = idx
                heapq.heappush(heap, (new_g + h[v], new_g, v))
    raise NoPathError(f"no path from node {start_id} to {goal_id}", explored=expanded)


def _uniform_cost(
    roadmap: Roadmap, source_id: int, goal_id: int | None = None
) -> tuple[list[float], list[int], int]:
    """Reference Dijkstra from source: (cost to every node, parent edge of
    every node, expansions). Stops once goal_id, when given, is expanded;
    costs of nodes not yet expanded are then upper bounds."""
    n = len(roadmap.positions)
    indptr, neighbour, edge_id, edge_cost = roadmap.csr()
    dist = [math.inf] * n
    parent_edge = [-1] * n
    done = [False] * n
    dist[source_id] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source_id)]
    expanded = 0
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        expanded += 1
        if u == goal_id:
            break
        lo, hi = indptr[u], indptr[u + 1]
        for v, idx, cost in zip(
            neighbour[lo:hi].tolist(), edge_id[lo:hi].tolist(), edge_cost[lo:hi].tolist()
        ):
            cand = du + cost
            if cand < dist[v]:
                dist[v] = cand
                parent_edge[v] = idx
                heapq.heappush(heap, (cand, v))
    return dist, parent_edge, expanded


def dijkstra_oracle(
    roadmap: Roadmap, start_id: int, goal_id: int, cm: CostModel
) -> PlanResult:
    """Uniform-cost reference search; same contract as astar_multimodal.

    Kept as a separate implementation so the two can cross-check each other.
    """
    n = len(roadmap.positions)
    if not (0 <= start_id < n and 0 <= goal_id < n):
        raise ValueError("start/goal id out of range")
    if start_id == goal_id:
        return _assemble_result(roadmap, cm, [], start_id, start_id, 0.0, 0)
    dist, parent_edge, expanded = _uniform_cost(roadmap, start_id, goal_id)
    if math.isinf(dist[goal_id]):
        raise NoPathError(f"no path from node {start_id} to {goal_id}", explored=expanded)
    return _assemble_result(roadmap, cm, parent_edge, start_id, goal_id, dist[goal_id], expanded)


def dijkstra_all_costs(roadmap: Roadmap, source_id: int) -> list[float]:
    """Optimal cost from source to every node (inf when unreachable).

    One-to-all variant used by verification sweeps to check the heuristic
    against true optimal costs.
    """
    return _uniform_cost(roadmap, source_id)[0]


# -- grid cost-to-go -----------------------------------------------------------


# Relative slack for "this step continues a shortest path": above the float
# dust of the wavefront's sums, below the gap between distinct path lengths.
_TIE = 1e-9


class CostToGo:
    """Shortest 8-connected path length (m) from every cell to one goal
    cell: a Dijkstra wavefront from the goal over the free cells, diagonal
    steps sqrt(2) times the resolution. Infinite on occupied, off-grid and
    cut-off cells, and everywhere when the goal is occupied or off-grid.
    Costs sit in a flat list over the raster padded by one occupied cell,
    so neighbour offsets are constants and no step needs a bounds check.
    """

    def __init__(self, grid: OccupancyGrid, goal_cell: tuple[int, int]):
        self._rows, self._cols = grid.cells.shape
        w = self._width = self._cols + 2
        res = grid.resolution
        # Straight steps first: descent takes the first that continues a
        # shortest path.
        self._steps = steps = [(off, res) for off in (-w, -1, 1, w)] + [
            (off, SQRT2 * res) for off in (-w - 1, -w + 1, w - 1, w + 1)
        ]
        self._cost = cost = [math.inf] * ((self._rows + 2) * w)
        if grid.occupied(*goal_cell):
            return
        free = np.pad(~grid.cells, 1).ravel().tolist()
        heap = [(0.0, self._index(goal_cell))]
        cost[heap[0][1]] = 0.0
        while heap:
            cu, u = heapq.heappop(heap)
            if cu > cost[u]:
                continue
            for off, step in steps:
                v = u + off
                cand = cu + step
                if free[v] and cand < cost[v]:
                    cost[v] = cand
                    heapq.heappush(heap, (cand, v))

    def _index(self, cell: tuple[int, int]) -> int:
        return (int(cell[0]) + 1) * self._width + int(cell[1]) + 1

    def cost(self, row: int, col: int) -> float:
        """Path length from a cell to the goal; infinite off the grid."""
        inside = 0 <= row < self._rows and 0 <= col < self._cols
        return self._cost[self._index((row, col))] if inside else math.inf

    def descend(
        self, cell: tuple[int, int], max_steps: int | None = None
    ) -> list[tuple[int, int]]:
        """Cells of a shortest path from `cell` (first) toward the goal, for
        `max_steps` steps or to the goal. A straight step goes before a
        diagonal one when both continue a shortest path; a cell of infinite
        cost yields just itself."""
        u, cu, w, cost = self._index(cell), self.cost(*cell), self._width, self._cost
        out = [u]
        while 0.0 < cu < math.inf and (max_steps is None or len(out) <= max_steps):
            for off, step in self._steps:
                if cost[u + off] + step <= cu * (1.0 + _TIE):
                    break
            u += off
            cu = cost[u]
            out.append(u)
        return [(i // w - 1, i % w - 1) for i in out]


# -- waypoint extraction -------------------------------------------------------


class SegmentKind(Enum):
    """Motion along a plan, in code order: an edge's kind code plus the mode
    code (Ground 0, Aerial 1) of the node the path leaves it from. A ground
    edge sums to 0, a transition to 1 from the ground or 2 from the air, a
    flight edge to 3."""

    DRIVE = "Drive"
    MORPH_THEN_FLY = "MorphThenFly"
    LAND_THEN_MORPH = "LandThenMorph"
    FLY = "Fly"


_SEGMENT_KINDS = tuple(SegmentKind)


@dataclass(frozen=True)
class PathSegment:
    """A maximal run of same-kind motion along a plan; waypoints include
    both boundary nodes, so consecutive segments share one position."""

    kind: SegmentKind
    waypoints: tuple[tuple[float, float, float], ...]


def path_to_waypoints(plan: PlanResult, roadmap: Roadmap) -> list[PathSegment]:
    """Compress a plan into executable segments.

    Consecutive edges of the same motion kind merge into one segment; a
    transition edge becomes MorphThenFly when traversed ground-to-air and
    LandThenMorph when traversed air-to-ground. A plan with no edges yields
    no segments.
    """
    ids = list(plan.node_ids)
    pos = roadmap.positions[ids].tolist()
    codes = roadmap.kind[list(plan.edge_ids)] + roadmap.mode[ids[:-1]]
    segments, i = [], 0
    for code, run in itertools.groupby(codes.tolist()):
        j = i + len(list(run))
        segments.append(PathSegment(_SEGMENT_KINDS[code], tuple(map(tuple, pos[i : j + 1]))))
        i = j
    return segments
