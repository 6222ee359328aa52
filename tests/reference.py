"""Scalar references, shared worlds and helpers for the tests.

Each `ref_*` function is the one-at-a-time form of a batched program path,
kept for tests to compare against. Whatever more than one test file uses is
defined here once.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from morphnav.costmodel import CostModel
from morphnav.env import Aabb, Environment
from morphnav.roadmap import EdgeKind

REPO = Path(__file__).resolve().parents[1]
ARENA = str(REPO / "scenarios" / "walled_arena.json")
OPEN_FIELD = str(REPO / "scenarios" / "open_field.json")
CM = CostModel()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "morphnav.cli"] + [str(a) for a in args],
        capture_output=True,
        text=True,
    )


def open_env(x=20.0, y=20.0, z=5.0):
    return Environment(Aabb((0.0, 0.0, 0.0), (x, y, z)))


def walled_env():
    """12 x 6 x 3 m with a 1 m tall wall across the whole width at x = 5."""
    return Environment(
        Aabb((0.0, 0.0, 0.0), (12.0, 6.0, 3.0)),
        obstacles=(Aabb((4.9, 0.0, 0.0), (5.1, 6.0, 1.0)),),
    )


def uniform(rng, lo, hi):
    """Uniform float in [lo, hi) from one SplitMix64 random() draw."""
    return lo + (hi - lo) * rng.random()


def ref_edge_cost(cm, kind, length, z_a, z_b):
    """Energy (J) of one edge in its a-to-b orientation, with the operations
    of roadmap.edge_costs in its order."""
    if kind is EdgeKind.GROUND:
        return cm.ground_power * length / cm.ground_speed
    raw = cm.flight_power * length / cm.flight_speed + cm.mass * cm.gravity * (z_b - z_a)
    flight = max(0.0, raw)
    return flight if kind is EdgeKind.FLIGHT else cm.transition_cost() + flight


def ref_heuristic(cm, position, goal):
    """Lower bound (J) on the cost from `position` to `goal`, one point at a
    time, as CostModel.heuristic computed it before roadmap.heuristic_costs."""
    dx = goal[0] - position[0]
    dy = goal[1] - position[1]
    d_xy = math.hypot(dx, dy)
    climb = max(0.0, goal[2] - position[2])
    return (cm.ground_power / cm.ground_speed) * d_xy + cm.mass * cm.gravity * climb


def ref_segment_points(a, b, step):
    """Samples of the segment a-b at most `step` apart, one at a time: each
    from the nearer end, a + d * t in the first half and b - d * t' in the
    second (d = b - a, t' the mirrored parameter), and an odd count's middle
    sample (a + b) * 0.5."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    n = math.ceil(math.dist(a, b) / step) + 1
    inv = 1.0 / max(n - 1, 1)
    pts = []
    for k in range(n):
        m = n - 1 - k
        if k < m:
            pts.append(a + d * (k * inv))
        elif k > m:
            pts.append(b - d * (m * inv))
        else:
            pts.append((a + b) * 0.5)
    return np.array(pts)


def ref_step(clearance):
    return 0.05 if clearance <= 0.0 else min(0.05, clearance / 2.0)


def ref_point_in_collision(env, p, clearance):
    """Collision of one point, in plain Python: outside the bounds, below
    env.ground_height, or within `clearance` of a box, by the squared
    distance to the point clamped into the box (closed test)."""
    p = [float(v) for v in p]
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    if not all(lo[k] <= p[k] <= hi[k] for k in range(3)):
        return True
    if p[2] < env.ground_height(p[0], p[1]):
        return True
    for box in env.obstacles:
        d2 = 0.0
        for v, box_lo, box_hi in zip(p, box.min_corner, box.max_corner):
            gap = v - min(max(v, box_lo), box_hi)
            d2 += gap * gap
        if d2 <= clearance * clearance:
            return True
    return False


def ref_in_collision(env, a, b, clearance):
    pts = ref_segment_points(a, b, ref_step(clearance))
    return bool(env.points_in_collision(pts, clearance).any())


def ref_on_ground(env, a, b, tol=1e-6):
    pts = ref_segment_points(a, b, 0.05)
    ground = env.ground_heights(pts[:, 0], pts[:, 1])
    return bool(np.all(np.abs(pts[:, 2] - ground) <= tol))
