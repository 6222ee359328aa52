"""Multi-modal probabilistic roadmap: driving nodes on the ground surface,
flying nodes in the free airspace, and edges for driving, flying, and
mode transitions.

Construction is fully deterministic: node positions come from a SplitMix64
stream seeded by the build parameters, ground nodes are sampled before
aerial ones, and the edges and their order are those of connecting each node
to the older nodes in ascending id order. Two builds from the same
parameters are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costmodel import CostModel
from .env import Environment
from .errors import ConfigError, QueryNodeIsolatedError, SamplingError
from .rng import SplitMix64

SAMPLE_RETRY_BUDGET = 1000
GROUND_SURFACE_TOL = 1e-6
DUPLICATE_NODE_TOL = 1e-9
# Elements of one numpy pass of the candidate-pair search (rows x nodes x 3).
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


@dataclass(frozen=True, slots=True)
class RoadmapNode:
    id: int
    position: tuple[float, float, float]
    mode: NodeMode


@dataclass(frozen=True, slots=True)
class RoadmapEdge:
    """Undirected edge; `a < b` by construction and `cost` is the stored
    traversal energy for the a-to-b orientation, used for both directions."""

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
        if self.n_ground < 0 or self.n_air < 0:
            raise ConfigError("node counts must be non-negative")
        if self.radius <= 0.0:
            raise ConfigError("connection radius must be positive")
        if self.clearance < 0.0:
            raise ConfigError("clearance must be non-negative")
        if self.min_air_clearance < 0.0:
            raise ConfigError("min_air_clearance must be non-negative")


class Roadmap:
    """Growable node/edge store with undirected adjacency."""

    def __init__(self, radius: float):
        self.radius = float(radius)
        self.nodes: list[RoadmapNode] = []
        self.edges: list[RoadmapEdge] = []
        self.adjacency: list[list[int]] = []

    def add_node(self, position, mode: NodeMode) -> RoadmapNode:
        node = RoadmapNode(len(self.nodes), tuple(float(v) for v in position), mode)
        self.nodes.append(node)
        self.adjacency.append([])
        return node

    def add_edge(self, a: int, b: int, kind: EdgeKind, length: float, cost: float) -> RoadmapEdge:
        if a == b:
            raise ValueError("self-loop edges are not allowed")
        edge = RoadmapEdge(min(a, b), max(a, b), kind, length, cost)
        idx = len(self.edges)
        self.edges.append(edge)
        self.adjacency[a].append(idx)
        self.adjacency[b].append(idx)
        return edge

    def degree(self, nid: int) -> int:
        return len(self.adjacency[nid])

    def nearest_node(self, position) -> tuple[int, float] | None:
        """(id, distance) of the closest node, or None when empty."""
        if not self.nodes:
            return None
        p = tuple(position)
        best = min(
            ((math.dist(n.position, p), n.id) for n in self.nodes),
        )
        return best[1], best[0]

    def other_end(self, edge_idx: int, nid: int) -> int:
        e = self.edges[edge_idx]
        return e.b if e.a == nid else e.a


def edge_kind_for(mode_a: NodeMode, mode_b: NodeMode) -> EdgeKind:
    if mode_a is NodeMode.GROUND and mode_b is NodeMode.GROUND:
        return EdgeKind.GROUND
    if mode_a is NodeMode.AERIAL and mode_b is NodeMode.AERIAL:
        return EdgeKind.FLIGHT
    return EdgeKind.TRANSITION


def edge_cost_for(cm: CostModel, kind: EdgeKind, length: float, z_a: float, z_b: float) -> float:
    """Stored traversal cost for an edge in its a-to-b orientation.

    Transition edges morph at the ground endpoint and then fly the segment,
    so they pay one reconfiguration plus the flight cost of the edge.
    """
    if kind is EdgeKind.GROUND:
        return cm.ground_edge_cost(length)
    if kind is EdgeKind.FLIGHT:
        return cm.flight_edge_cost(length, z_a, z_b)
    return cm.transition_cost() + cm.flight_edge_cost(length, z_a, z_b)


# -- sampling ----------------------------------------------------------------


def sample_ground_node(env: Environment, params: PrmParams, rng: SplitMix64):
    """One collision-free position on the ground surface, or SamplingError
    after the retry budget."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    for _ in range(SAMPLE_RETRY_BUDGET):
        x = rng.uniform(lo[0], hi[0])
        y = rng.uniform(lo[1], hi[1])
        z = env.ground_height(x, y)
        if not env.point_in_collision((x, y, z), params.clearance):
            return (x, y, z)
    raise SamplingError(
        f"no collision-free ground sample in {SAMPLE_RETRY_BUDGET} attempts"
    )


def sample_air_node(env: Environment, params: PrmParams, rng: SplitMix64):
    """One collision-free position in the flyable airspace, uniform over
    {(x, y, z): ground(x, y) + min_air_clearance <= z <= z_max}."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    z_hi = hi[2] if params.z_max is None else min(params.z_max, hi[2])
    if z_hi <= lo[2]:
        raise SamplingError("aerial sampling band is empty (z_max at or below floor)")
    for _ in range(SAMPLE_RETRY_BUDGET):
        x = rng.uniform(lo[0], hi[0])
        y = rng.uniform(lo[1], hi[1])
        z = rng.uniform(lo[2], z_hi)
        if z < env.ground_height(x, y) + params.min_air_clearance:
            continue
        if not env.point_in_collision((x, y, z), params.clearance):
            return (x, y, z)
    raise SamplingError(
        f"no collision-free aerial sample in {SAMPLE_RETRY_BUDGET} attempts"
    )


# -- construction --------------------------------------------------------------


def build_roadmap(env: Environment, cm: CostModel, params: PrmParams) -> Roadmap:
    """Sample a full roadmap, then connect it.

    All ground nodes are sampled first, then all aerial nodes, from one
    stream; sampling never looks at edges. Every node is then connected to
    the nodes before it in id order.
    """
    rng = SplitMix64(params.seed)
    ground = [sample_ground_node(env, params, rng) for _ in range(params.n_ground)]
    air = [sample_air_node(env, params, rng) for _ in range(params.n_air)]
    roadmap = Roadmap(params.radius)
    for pos in ground:
        roadmap.add_node(pos, NodeMode.GROUND)
    for pos in air:
        roadmap.add_node(pos, NodeMode.AERIAL)
    _connect_edges(roadmap, 0, env, cm, params, roadmap.radius)
    return roadmap


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
        node = roadmap.add_node(snapped, NodeMode.GROUND)
        _connect_edges(roadmap, node.id, env, cm, params, roadmap.radius)
        if roadmap.degree(node.id) == 0:
            _connect_edges(roadmap, node.id, env, cm, params, 2.0 * roadmap.radius)
        if roadmap.degree(node.id) == 0:
            raise QueryNodeIsolatedError(f"query node '{label}' isolated")
        ids.append(node.id)
    return roadmap, ids[0], ids[1]


def _connect_edges(
    roadmap: Roadmap,
    first: int,
    env: Environment,
    cm: CostModel,
    params: PrmParams,
    radius: float,
) -> None:
    """Add every valid edge between a node with id >= `first` and an older
    node within `radius` of it, in the order that inserting the nodes one
    at a time would: by newer id, then by older id.

    An edge is valid when the straight segment is collision-free at the
    build clearance; driving edges additionally require every sample of the
    segment to lie on the ground surface (flat-ground traversal). Edges are
    stored with the lower node id first, so the stored cost orientation is
    from the older node toward the newer one.
    """
    nodes = roadmap.nodes
    if first >= len(nodes):
        return
    pos = np.array([n.position for n in nodes])
    # A margin for the numpy search; math.dist makes the exact closed-radius
    # decision and gives the stored length.
    reach2 = (radius * (1.0 + 1e-9)) ** 2
    rows = max(1, PAIR_BLOCK // (3 * len(nodes)))
    pairs = []
    for i0 in range(first, len(nodes), rows):
        i1 = min(i0 + rows, len(nodes))
        diff = pos[i0:i1, None, :] - pos[None, :i1, :]
        near = (diff * diff).sum(axis=2) <= reach2
        near &= np.arange(i1)[None, :] < np.arange(i0, i1)[:, None]
        new, old = np.nonzero(near)
        for i, j in zip((new + i0).tolist(), old.tolist()):
            node, other = nodes[i], nodes[j]
            length = math.dist(node.position, other.position)
            if DUPLICATE_NODE_TOL < length <= radius:
                pairs.append((node, other, length))
        if len(pairs) >= PAIR_GROUP or i1 == len(nodes):
            _add_valid_edges(roadmap, pos, pairs, env, cm, params)
            pairs = []


def _add_valid_edges(
    roadmap: Roadmap,
    pos: np.ndarray,
    pairs: list[tuple[RoadmapNode, RoadmapNode, float]],
    env: Environment,
    cm: CostModel,
    params: PrmParams,
) -> None:
    """Validate candidate (newer node, older node, length) triples in
    batched segment checks, each from the older node to the newer one, and
    add the valid edges in list order. Edges take the nodes' own id
    objects, so a roadmap holds one int per node, not two per edge."""
    if not pairs:
        return
    new = np.array([node.id for node, _, _ in pairs])
    old = np.array([other.id for _, other, _ in pairs])
    kinds = [edge_kind_for(other.mode, node.mode) for node, other, _ in pairs]
    ok = np.ones(len(pairs), dtype=bool)
    drive = np.array([kind is EdgeKind.GROUND for kind in kinds])
    ok[drive] = env.segments_on_ground(pos[old[drive]], pos[new[drive]], GROUND_SURFACE_TOL)
    ok[ok] = ~env.segments_in_collision(pos[old[ok]], pos[new[ok]], params.clearance)
    for (node, other, length), kind, valid in zip(pairs, kinds, ok.tolist()):
        if valid:
            cost = edge_cost_for(cm, kind, length, other.position[2], node.position[2])
            roadmap.add_edge(other.id, node.id, kind, length, cost)


# -- export -------------------------------------------------------------------


def roadmap_to_dict(roadmap: Roadmap) -> dict:
    """JSON-ready dict; nodes by id, edges sorted by (a, b)."""
    return {
        "nodes": [
            {"id": n.id, "position": list(n.position), "mode": n.mode.value}
            for n in roadmap.nodes
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "kind": e.kind.value,
                "length": e.length,
                "cost": e.cost,
            }
            for e in sorted(roadmap.edges, key=lambda e: (e.a, e.b))
        ],
    }
