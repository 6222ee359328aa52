"""Search: energy-optimal roadmap planning and an 8-connected grid
cost-to-go field.

The roadmap planner is A* over a per-node lower bound on the cost to go
(roadmap.heuristic_costs) with a closed set (no reopening); an independent
uniform-cost implementation, dijkstra_oracle, exists purely to cross-check
it and deliberately shares no search code with it. Both walk the roadmap's
CSR adjacency. A* reads it through memoryviews, so an expansion builds no
lists, and keeps parent nodes, recovering the path's edges at the goal; the
oracle keeps parent edges, so it checks that recovery independently.

The grid side is CostToGo: one wavefront from a goal cell gives every
cell's shortest-path length to it, and `descend` reads a shortest path off
it. The mission executor builds one per waypoint; an infinite cost is its
verdict that no drivable path exists. The wavefront is Dijkstra settled in
bands one straight step wide and relaxed as numpy arrays: every reached
cell below fl(m + res), m the least tentative cost, is final, because any
later relaxation adds at least res to at least m. Each cost is the unique
fixed point of cost[v] = min over neighbours u of fl(cost[u] + step), so
the field is a heap Dijkstra's bit for bit. The rounds number the straight
steps of the longest path, a one-cell corridor's length at worst.
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

    node_ids/edge_ids index the columns of the roadmap it searched, the one
    insert_query_nodes returned, not the roadmap that was built. total_cost
    is the accumulated edge cost, split into driving, flying (including the
    flight share of transition edges), and n_transitions reconfigurations at
    fixed cost each. `expanded` counts search expansions, for diagnostics.
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
    roadmap: Roadmap, cm: CostModel, node_ids: list[int], edge_ids: list[int],
    total: float, expanded: int,
) -> PlanResult:
    """The path of node_ids joined by edge_ids, both listed from the goal
    back to the start, with its cost split summed in path order."""
    node_ids.reverse()
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
        tuple(node_ids), tuple(edge_ids), total, ground, flight, n_t * c_t, n_t, expanded
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

    The search keeps parent nodes. At the goal, the edge from parent u to w
    is the first entry of u's CSR slice with neighbour w and fl(g[u] + cost)
    == g[w]: an earlier entry at that sum would have set g[w] first, and a
    later one cannot strictly improve on it, so this is the edge that set
    g[w], parallel and equal-cost edges included.

    Raises NoPathError (carrying the count of explored nodes) when the goal
    is unreachable.
    """
    n = len(roadmap.positions)
    if not (0 <= start_id < n and 0 <= goal_id < n):
        raise ValueError("start/goal id out of range")
    if start_id == goal_id:
        return _assemble_result(roadmap, cm, [start_id], [], 0.0, 0)
    guard = h is None
    if guard:
        h = heuristic_costs(cm, roadmap.positions, roadmap.positions[goal_id])
    h = np.asarray(h, dtype=float).tolist()
    if len(h) != n:
        raise ValueError(f"h holds {len(h)} bounds for {n} nodes")

    indptr, neighbour, edge_id, edge_cost = roadmap.csr()
    indptr = indptr.tolist()
    nb, eid, ec = memoryview(neighbour), memoryview(edge_id), memoryview(edge_cost)
    g = [math.inf] * n
    parent = [-1] * n
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
            # Recover the path edges (see the docstring).
            node_ids, edge_ids = [u], []
            while u != start_id:
                w, u = u, parent[u]
                k, gu = indptr[u], g[u]
                while nb[k] != w or gu + ec[k] != g[w]:
                    k += 1
                node_ids.append(u)
                edge_ids.append(eid[k])
            return _assemble_result(roadmap, cm, node_ids, edge_ids, g[goal_id], expanded)
        lo, hi = indptr[u], indptr[u + 1]
        for v, cost in zip(nb[lo:hi], ec[lo:hi]):
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
                parent[v] = u
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
        return _assemble_result(roadmap, cm, [start_id], [], 0.0, 0)
    dist, parent_edge, expanded = _uniform_cost(roadmap, start_id, goal_id)
    if math.isinf(dist[goal_id]):
        raise NoPathError(f"no path from node {start_id} to {goal_id}", explored=expanded)
    node_ids, edge_ids = [goal_id], []
    while node_ids[-1] != start_id:
        edge_ids.append(e := parent_edge[node_ids[-1]])
        node_ids.append(int(roadmap.a[e] + roadmap.b[e]) - node_ids[-1])
    return _assemble_result(roadmap, cm, node_ids, edge_ids, dist[goal_id], expanded)


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


def _wavefront(cost: np.ndarray, goal: int, steps: list[tuple[int, float]]) -> None:
    """Fill `cost` (flat, padded) with path lengths to `goal` in place.

    On entry free cells hold inf and occupied or padding cells -inf, so
    `cand < old` alone refuses them as well as settled cells; the caller's
    abs turns the -inf back to inf.
    """
    offs = np.array([off for off, _ in steps])
    lens = np.array([step for _, step in steps])
    band_width = steps[0][1]
    owner = np.empty(cost.size, dtype=np.intp)
    front = np.array([goal])  # reached, not yet settled
    cost[goal] = 0.0
    while front.size:
        tent = cost[front]
        in_band = tent < tent.min() + band_width
        band = front[in_band]
        front = front[~in_band]
        v = band[:, None] + offs
        cand = tent[in_band][:, None] + lens
        old = cost[v]
        better = cand < old
        np.minimum.at(cost, v[better], cand[better])
        # Cells reached for the first time join the front once each: one
        # index per cell survives the owner write.
        new = v[old == math.inf]
        owner[new] = k = np.arange(new.size)
        front = np.concatenate((front, new[owner[new] == k]))


class CostToGo:
    """Shortest 8-connected path length (m) from every cell to one goal
    cell: a Dijkstra wavefront from the goal over the free cells, diagonal
    steps sqrt(2) times the resolution. Infinite on occupied, off-grid and
    cut-off cells, and everywhere when the goal is occupied or off-grid.
    Costs sit in one float64 array at the grid's padded_index, the pad
    occupied, 8 bytes a cell, so neighbour offsets are constants and no step
    needs a bounds check; reads go through a memoryview and return floats.

    The wavefront settles cells in bands one straight step wide
    (Delta-stepping with Delta the smallest step; Meyer & Sanders, J.
    Algorithms 2003). Each round takes m, the least tentative cost of the
    reached open cells, settles every one below fl(m + res), and relaxes
    their 8 neighbours as arrays, fl(cost[u] + step) as a heap Dijkstra
    adds it, duplicates combined by an exact minimum. A banded cell is
    final: a later relaxation adds at least res to a cost of at least m,
    and IEEE addition is monotone, so it yields at least fl(m + res). Every
    Dijkstra from the goal returns the one fixed point of cost[v] = min
    over neighbours u of fl(cost[u] + step), unique because every step is
    positive and far above an ulp of any path length; so the field equals
    a heap Dijkstra's bit for bit. There is one round per straight step of
    the longest path, each a fixed number of numpy calls (a few tens of
    microseconds), and each settles at least the cell holding m, since
    fl(m + res) > m for any path shorter than 2**52 steps. An open grid
    takes about its diameter in rounds; a one-cell serpentine corridor
    takes one round per cell of its length and is slower than a heap.
    """

    def __init__(self, grid: OccupancyGrid, goal_cell: tuple[int, int]):
        self._grid = grid
        w = self._width = grid.width + 2
        res = grid.resolution
        # Straight steps first: descent takes the first that continues a
        # shortest path.
        self._steps = steps = [(off, res) for off in (-w, -1, 1, w)] + [
            (off, SQRT2 * res) for off in (-w - 1, -w + 1, w - 1, w + 1)
        ]
        cost = np.where(np.pad(grid.cells, 1, constant_values=True).ravel(), -math.inf, math.inf)
        if not grid.occupied(*goal_cell):
            _wavefront(cost, grid.padded_index(*goal_cell), steps)
        self._cost = memoryview(np.abs(cost, out=cost))

    def cost(self, row: int, col: int) -> float:
        """Path length from a cell to the goal; infinite off the grid."""
        grid = self._grid
        inside = 0 <= row < grid.height and 0 <= col < grid.width
        return self._cost[grid.padded_index(row, col)] if inside else math.inf

    def descend(
        self, cell: tuple[int, int], max_steps: int | None = None
    ) -> list[tuple[int, int]]:
        """Cells of a shortest path from `cell` (first) toward the goal, for
        `max_steps` steps or to the goal. A straight step goes before a
        diagonal one when both continue a shortest path; a cell of infinite
        cost yields just itself."""
        u, cu, w, cost = self._grid.padded_index(*cell), self.cost(*cell), self._width, self._cost
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
