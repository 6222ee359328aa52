"""Multi-modal probabilistic roadmap: driving nodes on the ground surface,
flying nodes in the free airspace, and edges for driving, flying, and
mode transitions.

A roadmap is numpy columns: nodes `positions (n, 3)` and `mode`, edges `a`,
`b` (a < b), `kind`, `length` and `cost`, with modes and kinds as codes into
NODE_MODES and EDGE_KINDS. Searches walk a CSR (compressed sparse rows)
adjacency built on first use. `nodes`, `edges` and `adjacency` are
read-only views that build records on access, kept only for the benchmark;
the program reads the columns. No record is stored.

Construction is fully deterministic: node positions come from a SplitMix64
stream seeded by the build parameters, ground nodes are sampled before
aerial ones, and the edges and their order are those of connecting each node
to the older nodes in ascending id order. Two builds from the same
parameters are bit-identical.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costmodel import CostModel, check_fields
from .env import Environment, distances
from .errors import ConfigError, QueryNodeIsolatedError, SamplingError
from .rng import SplitMix64

SAMPLE_RETRY_BUDGET = 1000
DUPLICATE_NODE_TOL = 1e-9
# Sampling attempts tested together in one points_in_collision pass.
SAMPLE_BLOCK = 512
# Squared distances of one numpy pass of the candidate-pair search (rows x
# nodes).
PAIR_BLOCK = 1 << 13
# Candidate pairs validated together. Groups this large keep every
# per-candidate array above numpy's 1 KB small-buffer cache (see
# env.SAMPLE_CHUNK) while bounding the memory one group holds.
PAIR_GROUP = 2048


class NodeMode(Enum):
    GROUND = "Ground"
    AERIAL = "Aerial"


class EdgeKind(Enum):
    GROUND = "Ground"
    FLIGHT = "Flight"
    TRANSITION = "Transition"


# Column codes. An edge's kind code is the sum of its end modes' codes.
NODE_MODES = (NodeMode.GROUND, NodeMode.AERIAL)
EDGE_KINDS = (EdgeKind.GROUND, EdgeKind.TRANSITION, EdgeKind.FLIGHT)
_GROUND, _FLIGHT = EDGE_KINDS.index(EdgeKind.GROUND), EDGE_KINDS.index(EdgeKind.FLIGHT)


@dataclass(frozen=True, slots=True)
class RoadmapNode:
    """One node row, built on access."""

    id: int
    position: tuple[float, float, float]
    mode: NodeMode


@dataclass(frozen=True, slots=True)
class RoadmapEdge:
    """One edge row, built on access. Undirected; `a < b` by construction
    and `cost` is the stored traversal energy for the a-to-b orientation,
    used for both directions."""

    a: int
    b: int
    kind: EdgeKind
    length: float
    cost: float


@dataclass(frozen=True)
class PrmParams:
    """Roadmap build parameters.

    n_ground / n_air: node counts per mode.
    radius: connection radius in meters.
    seed: PRNG seed for the sample stream.
    clearance: collision-sphere radius for nodes and swept edges.
    min_air_clearance: minimum height of an aerial node above local ground.
    z_max: altitude cap for aerial sampling; None means the bounds ceiling.
    """

    n_ground: int = 200
    n_air: int = 200
    radius: float = 2.0
    seed: int = 0
    clearance: float = 0.35
    min_air_clearance: float = 0.3
    z_max: float | None = None

    def __post_init__(self):
        check_fields(self, "prm", positive=("radius",),
                     non_negative=("n_ground", "n_air", "clearance", "min_air_clearance"))


class _Rows(Sequence):
    """Read-only sequence of `count` records, `row(i)` built on access."""

    def __init__(self, count: int, row):
        self._count, self._row = count, row

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int):
        return self._row(range(self._count)[i])


class Roadmap:
    """Growable node and edge columns with an on-demand CSR adjacency."""

    def __init__(self):
        self.positions = np.empty((0, 3))
        self.a = self.b = np.empty(0, dtype=np.intp)
        self.mode = self.kind = np.empty(0, dtype=np.int8)
        self.length = self.cost = np.empty(0)
        self._csr = None

    nodes = property(lambda self: _Rows(len(self.positions), self._node))
    edges = property(lambda self: _Rows(len(self.a), self._edge))
    # Incident edge ids of each node, by ascending edge id.
    adjacency = property(lambda self: _Rows(len(self.positions), self._incident))

    def _append(self, **columns) -> None:
        for name, values in columns.items():
            col = getattr(self, name)
            setattr(self, name, np.concatenate((col, values), dtype=col.dtype))
        self._csr = None

    def add_node(self, position, mode: NodeMode) -> int:
        """Append one node; returns its id."""
        self._append(positions=[position], mode=[NODE_MODES.index(mode)])
        return len(self.positions) - 1

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbour, edge_id, cost): node u's incident edges are
        entries indptr[u]:indptr[u + 1], by ascending edge id, with the
        node at their other end and their stored cost."""
        if self._csr is None:
            # Interleaved ends a0, b0, a1, b1, ...: entry k belongs to edge
            # k >> 1 and its other end is entry k ^ 1. A stable sort by node
            # keeps each node's edges in id order; numpy sorts 16-bit keys
            # stably by radix, several times faster than 64-bit ones.
            n = len(self.positions)
            ends = np.empty(2 * len(self.a), dtype=np.uint16 if n <= 1 << 16 else np.intp)
            ends[0::2], ends[1::2] = self.a, self.b
            order = np.argsort(ends, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
            neighbour = ends[order ^ 1]
            order >>= 1  # now the edge ids
            self._csr = (indptr, neighbour, order, self.cost[order])
        return self._csr

    def other_end(self, edge_idx: int, nid: int) -> int:
        a, b = int(self.a[edge_idx]), int(self.b[edge_idx])
        return b if a == nid else a

    def _node(self, i: int) -> RoadmapNode:
        return RoadmapNode(i, tuple(self.positions[i].tolist()), NODE_MODES[self.mode[i]])

    def _edge(self, i: int) -> RoadmapEdge:
        a, b, kind, length, cost = (
            col[i].item() for col in (self.a, self.b, self.kind, self.length, self.cost)
        )
        return RoadmapEdge(a, b, EDGE_KINDS[kind], length, cost)

    def _incident(self, u: int) -> list[int]:
        indptr, _, edge_id, _ = self.csr()
        return edge_id[indptr[u] : indptr[u + 1]].tolist()

    def nearest_node(self, position) -> tuple[int, float] | None:
        """(id, distance) of the closest node, lowest id first on ties, or
        None when empty."""
        if not len(self.positions):
            return None
        d = distances(self.positions, position)
        i = int(np.argmin(d))
        return i, float(d[i])


def edge_costs(cm: CostModel, kind, length, z_a, z_b) -> np.ndarray:
    """Stored traversal cost of each edge in its a-to-b orientation: the one
    edge pricing formula. Flight adds m * g * (z_b - z_a) and is floored at
    0. Transition edges morph at the ground endpoint and then fly, so they
    pay one morph plus the flight cost."""
    ground = cm.ground_power * length / cm.ground_speed
    raw = cm.flight_power * length / cm.flight_speed + cm.mass * cm.gravity * (z_b - z_a)
    flight = np.where(raw > 0.0, raw, 0.0)  # max(0.0, raw), -0.0 included
    return np.select(
        [kind == _GROUND, kind == _FLIGHT], [ground, flight], cm.transition_cost() + flight
    )


def heuristic_costs(cm: CostModel, positions, goal) -> np.ndarray:
    """A* lower bound on the cost from each row of `positions` (K, 3) to
    `goal`: horizontal distance at the ground rate, which CostModel keeps at
    or below the flight rate, plus the potential energy of any net climb.
    On flat ground the bound drops by at most the edge_costs price of any
    edge, so A* with it is admissible and consistent."""
    positions = np.asarray(positions, dtype=float)
    flat = positions.copy()
    flat[:, 2] = 0.0
    climb = np.maximum(0.0, goal[2] - positions[:, 2])
    d_xy = distances(flat, (goal[0], goal[1], 0.0))
    return (cm.ground_power / cm.ground_speed) * d_xy + cm.mass * cm.gravity * climb


# -- sampling ----------------------------------------------------------------


def _sample_nodes(
    env: Environment, params: PrmParams, rng: SplitMix64, n: int, air: bool
) -> np.ndarray:
    """(n, 3) collision-free positions: on the ground surface, or with `air`
    uniform over {(x, y, z): ground(x, y) + min_air_clearance <= z <= z_max}.

    Attempts (x, y, and z when flying) are drawn and tested SAMPLE_BLOCK at
    a time. Replaying the one-node-at-a-time rejection loop over the
    verdicts gives its nodes, its stream consumption, and its SamplingError
    when one node's SAMPLE_RETRY_BUDGET attempts all fail."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    z_hi = hi[2] if params.z_max is None else min(params.z_max, hi[2])
    if air and n and z_hi <= lo[2]:
        raise SamplingError("aerial sampling band is empty (z_max at or below floor)")
    per, what = (3, "aerial") if air else (2, "ground")
    chunks, found, failed = [], 0, 0
    while found < n:
        draws = rng.peek_random(per * SAMPLE_BLOCK).reshape(SAMPLE_BLOCK, per)
        x = lo[0] + (hi[0] - lo[0]) * draws[:, 0]
        y = lo[1] + (hi[1] - lo[1]) * draws[:, 1]
        ground = env.ground_heights(x, y)
        if air:
            z = lo[2] + (z_hi - lo[2]) * draws[:, 2]
            ok = ~(z < ground + params.min_air_clearance)
        else:
            z, ok = ground, np.ones(SAMPLE_BLOCK, dtype=bool)
        pts = np.stack((x, y, z), axis=1)
        ok &= ~env.points_in_collision(pts, params.clearance)
        hits = np.flatnonzero(ok)[: n - found]
        # Failed attempts before each hit, counted from the node's first.
        gaps = np.diff(hits, prepend=-1 - failed) - 1
        found += len(hits)
        failed = SAMPLE_BLOCK - 1 - int(hits[-1]) if len(hits) else failed + SAMPLE_BLOCK
        if (gaps >= SAMPLE_RETRY_BUDGET).any() or (found < n and failed >= SAMPLE_RETRY_BUDGET):
            raise SamplingError(
                f"no collision-free {what} sample in {SAMPLE_RETRY_BUDGET} attempts"
            )
        chunks.append(pts[hits])
        rng.skip(per * (int(hits[-1]) + 1 if found == n else SAMPLE_BLOCK))
    return np.concatenate(chunks) if chunks else np.empty((0, 3))


# -- construction --------------------------------------------------------------


def build_roadmap(env: Environment, cm: CostModel, params: PrmParams) -> Roadmap:
    """Sample a full roadmap, then connect it.

    All ground nodes are sampled first, then all aerial nodes, from one
    stream; sampling never looks at edges. Every node is then connected to
    the nodes before it in id order. Raises ConfigError when the cost model
    overflows pricing the world's worst edge.
    """
    _check_worst_edge_price(env, cm)
    rng = SplitMix64(params.seed)
    ground = _sample_nodes(env, params, rng, params.n_ground, air=False)
    air = _sample_nodes(env, params, rng, params.n_air, air=True)
    roadmap = Roadmap()
    for mode, pts in ((NodeMode.GROUND, ground), (NodeMode.AERIAL, air)):
        roadmap._append(positions=pts, mode=np.full(len(pts), NODE_MODES.index(mode)))
    _connect_edges(roadmap, 0, env, cm, params, params.radius)
    return roadmap


def _check_worst_edge_price(env: Environment, cm: CostModel) -> None:
    """Price an edge of every kind along the bounds diagonal, climbing and
    descending the bounds' z extent. Every node lies inside the bounds, so
    no edge is longer or climbs more, and each step of edge_costs grows in
    magnitude with both; a model that prices this edge without overflow
    prices every edge of the world without overflow."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    diagonal = math.hypot(*(b - a for a, b in zip(lo, hi)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            # np.select in edge_costs evaluates every branch, so each row
            # prices every kind: one climbing and one descending row cover
            # them all.
            z = np.array([lo[2], hi[2]])
            edge_costs(cm, np.zeros(2, np.int8), np.full(2, diagonal), z, z[::-1])
    except FloatingPointError as exc:
        raise ConfigError(
            f"cost model overflows pricing a {diagonal:g} m edge climbing "
            f"{hi[2] - lo[2]:g} m ({exc})"
        ) from None


def insert_query_nodes(
    roadmap: Roadmap,
    start,
    goal,
    env: Environment,
    cm: CostModel,
    params: PrmParams,
) -> tuple[Roadmap, int, int]:
    """Insert start and goal as ground nodes snapped to the surface.

    A query position within 1e-9 of an existing node reuses that node
    instead of inserting a duplicate. A query node that gains no edges at
    the build radius is retried once at double the radius; if it is still
    isolated, QueryNodeIsolatedError is raised.
    """
    ids = []
    for label, pos in (("start", start), ("goal", goal)):
        snapped = env.snap_to_ground(pos, label)
        if env.point_in_collision(snapped, params.clearance):
            raise ConfigError(f"{label} position is in collision")
        nearest = roadmap.nearest_node(snapped)
        if nearest is not None and nearest[1] <= DUPLICATE_NODE_TOL:
            ids.append(nearest[0])
            continue
        nid = roadmap.add_node(snapped, NodeMode.GROUND)
        # any() stops at the first radius that gains the node an edge.
        radii = (params.radius, 2.0 * params.radius)
        if not any(_connect_edges(roadmap, nid, env, cm, params, r) for r in radii):
            raise QueryNodeIsolatedError(f"query node '{label}' isolated")
        ids.append(nid)
    return roadmap, ids[0], ids[1]


def _connect_edges(
    roadmap: Roadmap,
    first: int,
    env: Environment,
    cm: CostModel,
    params: PrmParams,
    radius: float,
) -> int:
    """Add every valid edge between a node with id >= `first` and an older
    node within `radius` of it, in the order that inserting the nodes one
    at a time would: by newer id, then by older id. Returns the number of
    edges added.

    An edge is valid when the straight segment is collision-free at the
    build clearance; driving edges additionally require every sample of the
    segment to lie on the ground surface (flat-ground traversal). Edges are
    stored with the lower node id first, so the stored cost orientation is
    from the older node toward the newer one.
    """
    pos = roadmap.positions
    n = len(pos)
    cols = pos.T.copy()  # x, y and z, each contiguous
    # A margin for the squared-distance search, squared by a multiply (inf on
    # overflow, where ** raises); the exact lengths of env.distances make the
    # closed-radius decision.
    reach2 = radius * radius * (1.0 + 2e-9)
    rows = max(1, PAIR_BLOCK // n) if n else 1
    new, old, added = [], [], 0
    for i0 in range(first, n, rows):
        i1 = min(i0 + rows, n)
        dx, dy, dz = (c[i0:i1, None] - c[:i1] for c in cols)
        near = dx * dx + dy * dy + dz * dz <= reach2
        near &= np.arange(i1) < np.arange(i0, i1)[:, None]
        i, j = np.nonzero(near)
        new.append(i + i0)
        old.append(j)
        if sum(map(len, new)) < PAIR_GROUP and i1 < n:
            continue
        # Validate the group's (newer, older) candidates in batched segment
        # checks, each from the older node to the newer one.
        new, old = np.concatenate(new), np.concatenate(old)
        length = distances(pos[new], pos[old])
        keep = (DUPLICATE_NODE_TOL < length) & (length <= radius)
        new, old, length = new[keep], old[keep], length[keep]
        kind = roadmap.mode[old] + roadmap.mode[new]
        ok = np.ones(len(new), dtype=bool)
        drive = kind == _GROUND
        ok[drive] = env.segments_on_ground(pos[old[drive]], pos[new[drive]])
        ok[ok] = ~env.segments_in_collision(pos[old[ok]], pos[new[ok]], params.clearance)
        a, b, kind, length = old[ok], new[ok], kind[ok], length[ok]
        cost = edge_costs(cm, kind, length, pos[a, 2], pos[b, 2])
        roadmap._append(a=a, b=b, kind=kind, length=length, cost=cost)
        added += len(a)
        new, old = [], []
    return added


# -- export -------------------------------------------------------------------


def node_dicts(roadmap: Roadmap, ids: list[int]) -> list[dict]:
    """JSON-ready nodes `ids`, in that order."""
    columns = (roadmap.positions[ids].tolist(), roadmap.mode[ids].tolist())
    return [{"id": i, "position": p, "mode": NODE_MODES[m].value} for i, p, m in zip(ids, *columns)]


def edge_dicts(roadmap: Roadmap, ids: list[int]) -> list[dict]:
    """JSON-ready edges `ids`, in that order."""
    columns = (roadmap.a, roadmap.b, roadmap.kind, roadmap.length, roadmap.cost)
    return [
        {"a": a, "b": b, "kind": EDGE_KINDS[k].value, "length": length, "cost": cost}
        for a, b, k, length, cost in zip(*(col[ids].tolist() for col in columns))
    ]


def roadmap_to_dict(roadmap: Roadmap) -> dict:
    """JSON-ready dict; nodes by id, edges sorted by (a, b)."""
    return {
        "nodes": node_dicts(roadmap, list(range(len(roadmap.positions)))),
        "edges": edge_dicts(roadmap, np.lexsort((roadmap.b, roadmap.a)).tolist()),
    }
