"""Multi-modal probabilistic roadmap: driving nodes on the ground surface,
flying nodes in the free airspace, and edges for driving, flying, and
mode transitions.

A roadmap is numpy columns: nodes `positions (n, 3)` and `mode`, edges `a`,
`b` (a < b), `kind`, `length` and `cost`, with modes and kinds as codes into
NODE_MODES and EDGE_KINDS. The columns are fixed once a roadmap is made:
insert_query_nodes returns a new roadmap and leaves its input as it was, so
one build serves many queries. Searches walk a CSR (compressed sparse rows)
adjacency built on first use. `nodes`, `edges` and `adjacency` are
read-only views that build records on access, kept only for the benchmark;
the program reads the columns. No record is stored.

Construction is fully deterministic: node positions come from a SplitMix64
stream seeded by the build parameters, ground nodes are sampled before
aerial ones, and the edges and their order are those of connecting each node
to the older nodes in ascending id order. A build's candidate pairs come
from a sweep over the nodes sorted by x, which computes distances only
between nodes within the connection radius in x and returns the pairs alone;
a query node's come from its one distance scan over the nodes. Validation
computes each candidate's length itself.
Two builds from the same parameters are bit-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
# Squared distances of one numpy pass of the candidate-pair sweep (rows x
# their x-windows); also the newer ids of one validation block, PAIR_BLOCK // n.
PAIR_BLOCK = 1 << 13
# Candidate pairs validated together, at least. Groups this large keep every
# per-candidate array above numpy's 1 KB small-buffer cache, which keeps up
# to 7 freed buffers of each size below 1 KB and never returns them, while
# bounding the memory one group holds.
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
    """Node and edge columns, each empty by default, taken as its dtype and
    fixed once the roadmap is made, with a CSR adjacency built on first use."""

    def __init__(self, positions=(), mode=(), a=(), b=(), kind=(), length=(), cost=()):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.mode, self.kind = (np.asarray(c, dtype=np.int8) for c in (mode, kind))
        self.a, self.b = (np.asarray(c, dtype=np.intp) for c in (a, b))
        self.length, self.cost = (np.asarray(c, dtype=float) for c in (length, cost))
        self._csr = None

    nodes = property(lambda self: _Rows(len(self.positions), self._node))
    edges = property(lambda self: _Rows(len(self.a), self._edge))
    # Incident edge ids of each node, by ascending edge id.
    adjacency = property(lambda self: _Rows(len(self.positions), self._incident))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbour, edge_id, cost): node u's incident edges are
        entries indptr[u]:indptr[u + 1], by ascending edge id, with the
        node at their other end and their stored cost. Built once, on first
        use; searches read these arrays through memoryviews, so each is
        contiguous."""
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


def edge_costs(cm: CostModel, kind, length, z_a, z_b) -> np.ndarray:
    """Stored traversal cost of each edge in its a-to-b orientation: the one
    edge pricing formula. Flight adds m * g * (z_b - z_a), which CostModel
    keeps within half the level-flight price, so every flight price is > 0.
    Transition edges morph at the ground endpoint and then fly, so they pay
    one morph plus the flight cost."""
    ground = cm.ground_power * length / cm.ground_speed
    flight = cm.flight_power * length / cm.flight_speed + cm.mass * cm.gravity * (z_b - z_a)
    return np.where(
        kind == _GROUND, ground, np.where(kind == _FLIGHT, flight, cm.transition_cost() + flight)
    )


def heuristic_costs(cm: CostModel, positions, goal) -> np.ndarray:
    """A* lower bound on the cost from each row of `positions` (K, 3) to
    `goal`: horizontal distance sqrt(dx * dx + dy * dy) at the ground rate,
    plus the potential energy of any net climb. The distance is
    env.distances' rule without the dz term, so it never exceeds the length
    of an edge between the same points. With a flight rate of at least
    hypot(ground rate, 2 * m * g) (CostModel), on flat ground the bound
    drops by at most the edge_costs price of any edge, either way, so A*
    with it is admissible and consistent."""
    positions = np.asarray(positions, dtype=float)
    dx, dy = positions[:, 0] - goal[0], positions[:, 1] - goal[1]
    climb = np.maximum(0.0, goal[2] - positions[:, 2])
    d_xy = np.sqrt(dx * dx + dy * dy)
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
    pos = np.concatenate((ground, air))
    mode = np.repeat(np.arange(2, dtype=np.int8), (len(ground), len(air)))  # NODE_MODES codes
    # A margin for the squared-distance search, squared by a multiply (inf on
    # overflow, where ** raises); _connect_edges' lengths make the
    # closed-radius decision.
    radius = params.radius
    keys = _candidate_keys(pos, radius * radius * (1.0 + 2e-9))
    return Roadmap(pos, mode, *_connect_edges(pos, mode, keys, env, cm, params, radius))


def _check_worst_edge_price(env: Environment, cm: CostModel) -> None:
    """Price an edge of every kind along the bounds diagonal, climbing and
    descending the bounds' z extent. Every node lies inside the bounds, so
    no edge is longer or climbs more, and each step of edge_costs grows in
    magnitude with both; a model that prices this edge without overflow
    prices every edge of the world without overflow."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    diagonal = float(distances(lo, hi)[0])
    try:
        with np.errstate(over="raise", invalid="raise"):
            # np.where in edge_costs evaluates every branch, so each row
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
    """A new roadmap: `roadmap` with start and goal as ground nodes snapped
    to the surface, and their ids in it. `roadmap` itself is left as it
    was, also when a query is refused, so one build serves many queries.

    A query position within 1e-9 of a node reuses the nearest such node,
    the lowest id on ties, instead of inserting a duplicate. The start
    connects to the roadmap's nodes, the goal also to the start. A query
    node that gains no edges at the build radius is retried once at double
    the radius; if it is still isolated, QueryNodeIsolatedError is raised.
    Its candidates at either radius come from the one env.distances scan
    that looks for a node to reuse. The query nodes' edges follow the
    roadmap's, the start's first.
    """
    pos, mode = roadmap.positions, roadmap.mode
    ids, edges = [], []
    for label, point in (("start", start), ("goal", goal)):
        snapped = env.snap_to_ground(point, label)
        if env.point_in_collision(snapped, params.clearance):
            raise ConfigError(f"{label} position is in collision")
        d = distances(pos, snapped)
        if len(d) and d.min() <= DUPLICATE_NODE_TOL:
            ids.append(int(d.argmin()))
            continue
        nid = len(pos)
        pos = np.concatenate((pos, [snapped]))
        mode = np.concatenate((mode, [NODE_MODES.index(NodeMode.GROUND)]), dtype=np.int8)
        for radius in (params.radius, 2.0 * params.radius):
            keys = nid * len(pos) + np.flatnonzero(d <= radius)
            new = _connect_edges(pos, mode, keys, env, cm, params, radius)
            if len(new[0]):
                break
        else:
            raise QueryNodeIsolatedError(f"query node '{label}' isolated")
        edges.append(new)
        ids.append(nid)
    columns = zip((roadmap.a, roadmap.b, roadmap.kind, roadmap.length, roadmap.cost), *edges)
    return Roadmap(pos, mode, *map(np.concatenate, columns)), ids[0], ids[1]


def _connect_edges(
    pos: np.ndarray,
    mode: np.ndarray,
    keys: np.ndarray,
    env: Environment,
    cm: CostModel,
    params: PrmParams,
    radius: float,
) -> tuple[np.ndarray, ...]:
    """Every valid edge among the candidate pairs `keys`, ascending newer * n
    + older ids of the n nodes of pos and mode, in key order: by newer id,
    then by older id, the order that inserting the nodes one at a time would
    give. Returns new edge columns a, b, kind, length and cost; no roadmap
    changes.

    A candidate's length is env.distances' of its ends, which a group gathers
    once, as x, y and z rows, for its lengths, its prices and the broad phase.
    It is an edge when that length is within `radius` (closed) and above
    DUPLICATE_NODE_TOL, and env.segments_hit clears its straight segment at
    the build clearance, the one verdict for every kind: a driving edge's
    ends lie on the ground, so the swept test also holds the whole segment
    to the surface. Edges are stored with the lower node id first, so the
    stored cost orientation is from the older node toward the newer one.

    Broad phase per group, at most one narrow pass per call. Candidates are
    priced and put through the broad phase (env.segments_undecided) in
    groups; the segments that it leaves undecided in every group, if any, go
    through the swept test (env.segments_hit, exact on its own) together at
    the end. A call costs about a hundred numpy operations whatever its size,
    so one per group made an arena build about 1 ms slower. Keep the group
    shape: the keys are cut only where a block of PAIR_BLOCK // n newer ids
    ends, and a group is validated once it holds PAIR_GROUP pairs or the last
    block is in. Groups of exactly PAIR_GROUP pairs validate the same edges,
    but the resident peak of repeated arena plans then creeps about 1.3 MB
    higher over 900 plans. Verdicts, lengths and costs go into arrays of one
    entry per candidate, and the edge columns are taken from them once, not
    gathered from per-group arrays: freed per-group arrays stay in the heap,
    so a 21,600-node build peaked about 15% higher with them.
    """
    n = len(pos)
    rows = max(1, PAIR_BLOCK // n) if n else 1
    cuts = [0]
    for end in np.searchsorted(keys, np.arange(rows, n, rows) * n).tolist():
        if end - cuts[-1] >= PAIR_GROUP:
            cuts.append(end)
    cuts.append(len(keys))
    # One entry per candidate: whether it is an edge, whether the broad
    # phase left it to the narrow phase, its length and its cost.
    valid, undecided = np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=bool)
    length, costs = np.empty(len(keys)), np.empty(len(keys))
    cols = np.ascontiguousarray(pos.T)
    for i, j in zip(cuts, cuts[1:]):
        new, old = np.divmod(keys[i:j], n)
        at, bt = cols.take(old, axis=1), cols.take(new, axis=1)
        length[i:j] = distances(at.T, bt.T)
        costs[i:j] = edge_costs(cm, mode[old] + mode[new], length[i:j], at[2], bt[2])
        valid[i:j] = (DUPLICATE_NODE_TOL < length[i:j]) & (length[i:j] <= radius)
        undecided[i:j] = valid[i:j] & env.segments_undecided(at.T, bt.T, params.clearance)
    narrow = np.flatnonzero(undecided)
    if len(narrow):
        new, old = np.divmod(keys[narrow], n)
        valid[narrow] = ~env.segments_hit(pos[old], pos[new], params.clearance)
    new, old = np.divmod(keys[valid], n)
    return old, new, mode[old] + mode[new], length[valid], costs[valid]


def _candidate_keys(pos: np.ndarray, reach2: float) -> np.ndarray:
    """Ascending keys newer * n + older of every pair of nodes whose squared
    distance dx*dx + dy*dy + dz*dz is at most `reach2`; the keys alone, as
    _connect_edges computes each candidate's length itself.

    A sweep over the nodes sorted by x (Bentley, Stanat & Williams, "The
    complexity of finding fixed-radius near neighbors", IPL 1977). A row's
    columns are the nodes after it in the sorted order and within `half` of
    it in x, a contiguous window. Squared distances are computed only in
    rectangles of consecutive rows by the union of their windows, each of
    at most PAIR_BLOCK entries, or one row. A window may hold more than the
    pairs within reach2; the squared-distance test decides.
    """
    n = len(pos)
    order = np.argsort(pos[:, 0])
    cols = np.take(pos.T, order, axis=1)  # x, y and z by ascending x, each contiguous
    xs = cols[0]
    # Nodes farther apart than half in x have fl(dx)**2 > reach2, as half
    # exceeds sqrt(reach2) by far more than rounding can take back; nodes
    # within half lie within x +- half rounded, as rounding is monotone.
    half = math.sqrt(reach2) * (1.0 + 1e-9)
    hi = np.searchsorted(xs, xs + half, side="right").tolist()
    keys, p0 = [np.empty(0, dtype=np.intp)], 0
    while p0 < n:
        c0 = p0 + 1
        # The most rows, at least one, whose rectangle fits PAIR_BLOCK; its
        # area only grows with the row count.
        fit = bisect_right(
            range(p0 + 1, n + 1), PAIR_BLOCK, key=lambda p: (p - p0) * (hi[p - 1] - c0)
        )
        p1 = p0 + max(1, fit)
        c1 = hi[p1 - 1]
        dx, dy, dz = (c[p0:p1, None] - c[c0:c1] for c in cols)
        d2 = dx * dx + dy * dy + dz * dz
        near = d2 <= reach2
        near &= np.arange(c0, c1) > np.arange(p0, p1)[:, None]  # each pair once
        i, j = np.nonzero(near)
        a, b = order[p0:p1][i], order[c0:c1][j]
        keys.append(np.maximum(a, b) * n + np.minimum(a, b))
        p0 = p1
    keys = np.concatenate(keys)
    keys.sort()
    return keys


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
