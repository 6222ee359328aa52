"""Scalar references, shared worlds and helpers for the tests.

Each `ref_*` function is the one-at-a-time form of a batched program path,
kept for tests to compare against. Whatever more than one test file uses is
defined here once.
"""

import functools
import heapq
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage

from morphnav.costmodel import CostModel
from morphnav.env import Aabb, Environment
from morphnav.localnav import VelocityCommand, dynamic_window
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
    flight = cm.flight_power * length / cm.flight_speed + cm.mass * cm.gravity * (z_b - z_a)
    return flight if kind is EdgeKind.FLIGHT else cm.transition_cost() + flight


def ref_length(p, q):
    """Euclidean length from p to q by env.distances' rule: the squared
    differences summed in coordinate order, then one square root. Points of
    two coordinates give the horizontal distance of heuristic_costs."""
    total = 0.0
    for a, b in zip(p, q):
        d = float(b) - float(a)
        total += d * d
    return math.sqrt(total)


def ref_heuristic(cm, position, goal):
    """Lower bound (J) on the cost from `position` to `goal`, one point at a
    time, with the operations of roadmap.heuristic_costs."""
    d_xy = ref_length(position[:2], goal[:2])
    climb = max(0.0, goal[2] - position[2])
    return (cm.ground_power / cm.ground_speed) * d_xy + cm.mass * cm.gravity * climb


def ref_segment_points(a, b, step):
    """Dense samples of the segment a-b at most `step` apart, one at a time,
    and at least both ends when a != b: each from the nearer end, a + d * t
    in the first half and b - d * t' in the second (d = b - a, t' the
    mirrored parameter), and an odd count's middle sample (a + b) * 0.5."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    n = math.ceil(ref_length(a, b) / step) + 1
    if (a != b).any():
        n = max(n, 2)
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


# The exact swept test one segment at a time: the candidate parameters of
# env.Environment.segments_hit, with their float operations in their order.
# A candidate that the program adds twice, or on a piece of zero length, is
# made once here. On purpose, ref_in_collision tests every candidate against
# everything (the bounds, the ground and every box), where segments_hit tests
# each part of the world only at the candidates that it produced: so the two
# agree only if no candidate of one part hits another part that the program
# does not test it against.


def _ref_ordered(a, b):
    """The ends in lexicographic order, as the swept tests order them."""
    a, b = [float(v) for v in a], [float(v) for v in b]
    for p, q in zip(a, b):
        if p != q:
            return (b, a) if q < p else (a, b)
    return a, b


def _ref_point(a, b, d, t):
    """The point at t, made from the nearer end as env._points makes it."""
    if t <= 0.5:
        return [p + s * t for p, s in zip(a, d)]
    return [q + s * (t - 1.0) for q, s in zip(b, d)]


def _ref_clamp(t, lo, hi):
    """np.fmin(np.fmax(t, lo), hi): nan goes to lo."""
    return lo if t != t else min(max(t, lo), hi)


def _ref_pieces(cross):
    """Consecutive pairs of the sorted parameters 0, 1 and `cross`."""
    ends = sorted(set([0.0, 1.0] + cross))
    return list(zip(ends, ends[1:]))


def _ref_box_params(a, d, box):
    """The clamped vertex of the squared distance to `box` on each piece
    between the slab crossings of the segment a + t d."""
    cross = []
    for k in range(3):
        if d[k] != 0.0:
            for c in (box.min_corner[k], box.max_corner[k]):
                cross.append(_ref_clamp((c - a[k]) / d[k], 0.0, 1.0))
    params = []
    for t0, t1 in _ref_pieces(cross):
        tm = (t0 + t1) * 0.5
        num = den = 0.0
        for k in range(3):
            mid = a[k] + d[k] * tm
            g = mid - min(max(mid, box.min_corner[k]), box.max_corner[k])
            slope = d[k] if g != 0.0 else 0.0
            num, den = num + g * slope, den + slope * slope
        s = num / den if den > 0.0 else 0.0
        params.append(min(max(tm - s, t0), t1))
    return params


def _ref_ground_gaps(env, a, b, d):
    """z - ground at the ends of the pieces between the segment's crossings
    of the heightmap's lattice lines, and at each piece's clamped vertex of
    z - ground, from the ground at the piece's ends and midpoint."""
    hm = env.heightmap
    cross = []
    for axis, n in ((0, hm.cols), (1, hm.rows)):
        u0, u1 = ((c[axis] - hm.origin[axis]) / hm.resolution for c in (a, b))
        line = max(float(math.ceil(min(u0, u1))), 0.0)
        while line <= min(float(math.floor(max(u0, u1))), n - 1.0):
            # Where u0 == u1 the program divides 0 by 0 and takes t = 0.
            cross.append(_ref_clamp((line - u0) / (u1 - u0), 0.0, 1.0) if u1 != u0 else 0.0)
            line += 1.0
    params = [0.0, 1.0]
    for t0, t1 in _ref_pieces(cross):
        tm, w = (t0 + t1) * 0.5, t1 - t0
        g0, gm, g1 = (float(env.ground_heights(*_ref_point(a, b, d, t)[:2])) for t in (t0, tm, t1))
        curv = 4.0 * (g0 - 2.0 * gm + g1)
        s = (d[2] * w - g1 + g0) * w / curv if curv != 0.0 else 0.0
        params += [t1, min(max(tm + s, t0), t1)]
    gaps = []
    for t in params:
        x, y, z = _ref_point(a, b, d, t)
        gaps.append(z - float(env.ground_heights(x, y)))
    return gaps


def ref_in_collision(env, a, b, clearance):
    """Swept collision of the segment a-b: a point in collision
    (ref_point_in_collision) at its ends or its box candidates, or below a
    heightmap at one of _ref_ground_gaps' parameters."""
    a, b = _ref_ordered(a, b)
    d = [q - p for p, q in zip(a, b)]
    params = [0.0, 1.0]
    reach = clearance + 1e-9
    for box in env.obstacles:
        g = [max(max(box_lo - max(p, q), min(p, q) - box_hi), 0.0)
             for p, q, box_lo, box_hi in zip(a, b, box.min_corner, box.max_corner)]
        if g[0] * g[0] + g[1] * g[1] + g[2] * g[2] <= reach * reach:
            params += _ref_box_params(a, d, box)
    if any(ref_point_in_collision(env, _ref_point(a, b, d, t), clearance) for t in params):
        return True
    if not _ref_below_highest_ground(env, a, b):
        return False
    return min(_ref_ground_gaps(env, a, b, d)) < 0.0


def _ref_below_highest_ground(env, a, b):
    """Whether the segment a-b dips below the highest ground of a heightmap,
    with the margin that env.Environment adds; False on flat ground."""
    if env.heightmap is None:
        return False
    data = env.heightmap.data
    return min(a[2], b[2]) < float(data.max()) + 1e-9 * max(1.0, float(np.abs(data).max()))


def ref_on_ground(env, a, b, tol=1e-6):
    """Whether |z - ground| <= tol at every candidate parameter of the
    segment a-b: its ends on flat ground, _ref_ground_gaps' on a
    heightmap."""
    a, b = _ref_ordered(a, b)
    d = [q - p for p, q in zip(a, b)]
    if env.heightmap is None:
        gaps = [p[2] - env.ground_const for p in (a, b)]
    else:
        gaps = _ref_ground_gaps(env, a, b, d)
    return all(abs(h) <= tol for h in gaps)


def ref_ends_on_ground(env, a, b, tol=1e-6):
    """Whether both ends of the segment a-b lie within tol of the ground,
    which makes it a driven segment; False for a nan end."""
    return all(
        abs(float(p[2]) - float(env.ground_heights(float(p[0]), float(p[1])))) <= tol
        for p in (a, b)
    )


def ref_segment_hit(env, a, b, clearance):
    """env.Environment.segments_hit's verdict on the segment a-b:
    ref_in_collision, or a driven segment (ref_ends_on_ground) that dips
    below the highest ground of a heightmap and leaves the ground there (not
    ref_on_ground). On flat ground a driven segment stays on it."""
    if ref_in_collision(env, a, b, clearance):
        return True
    a, b = _ref_ordered(a, b)
    return (
        _ref_below_highest_ground(env, a, b)
        and ref_ends_on_ground(env, a, b)
        and not ref_on_ground(env, a, b)
    )


def ref_grid_length(grid, start, goal=None):
    """Heap Dijkstra over the free cells of an 8-connected grid, with a
    dict for costs and tuples for cells, independent of planner.CostToGo:
    the shortest-path length from start to goal, or None; with no goal,
    the lengths from start to every cell it reaches, as a dict. Started
    at a field's goal, it adds steps in the field's order, so its lengths
    equal the field's bit for bit."""
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


# The one-candidate-at-a-time dynamic-window controller, with its own cell
# lookup and scipy's distance transform, kept independent of the batched
# localnav under test.


def ref_cell(grid, x, y):
    col = int(math.floor((x - grid.origin[0]) / grid.resolution))
    row = int(math.floor((y - grid.origin[1]) / grid.resolution))
    if col == grid.width and abs((x - grid.origin[0]) - grid.width * grid.resolution) < 1e-9:
        col -= 1
    if row == grid.height and abs((y - grid.origin[1]) - grid.height * grid.resolution) < 1e-9:
        row -= 1
    return row, col


@functools.lru_cache(maxsize=8)
def ref_cell_distances(grid):
    """scipy's distance transform of the grid's free cells, in cells, once
    per grid; None on an empty grid."""
    return ndimage.distance_transform_edt(~grid.cells) if grid.cells.any() else None


def ref_rollout(pose, cmd, p):
    steps = int(math.ceil(p.horizon / p.dt))
    x, y, yaw = pose
    poses = [(x, y, yaw)]
    for _ in range(steps):
        x += cmd.v * math.cos(yaw) * p.dt
        y += cmd.v * math.sin(yaw) * p.dt
        yaw += cmd.omega * p.dt
        poses.append((x, y, yaw))
    return poses


def ref_score(traj, goal, grid, p):
    """Score of one rollout given as poses; None if it collides."""
    dist = ref_cell_distances(grid)
    d_min = math.inf
    for x, y, _ in traj:
        row, col = ref_cell(grid, x, y)
        if not (0 <= row < grid.height and 0 <= col < grid.width) or grid.cells[row, col]:
            return None
        d = math.inf if dist is None else float(dist[row, col]) * grid.resolution
        d_min = min(d_min, d)
    fx, fy, fyaw = traj[-1]
    bearing = math.atan2(goal[1] - fy, goal[0] - fx)
    dtheta = abs((bearing - fyaw + math.pi) % (2.0 * math.pi) - math.pi)
    heading = 1.0 - dtheta / math.pi
    clearance = 1.0 if math.isinf(d_min) else min(1.0, d_min / p.d_sat)
    v = math.dist(traj[0][:2], traj[1][:2]) / p.dt if len(traj) > 1 else 0.0
    velocity = min(1.0, v / p.v_max)
    return p.w_heading * heading + p.w_clearance * clearance + p.w_velocity * velocity


def select_like_dwa(pose, current, goal, grid, p):
    """Independent re-statement of the documented selection rule:
    v-major sample grid, best score wins, ties prefer smaller |omega|."""
    v_lo, v_hi, w_lo, w_hi = dynamic_window(current, p)

    def samples(lo, hi, n):
        # Same arithmetic as the implementation so candidate floats match
        # bit for bit; otherwise ulp drift could flip a near-tie.
        if n == 1:
            return [lo]
        step = (hi - lo) / (n - 1)
        return [0.0 if abs(lo + i * step) < 1e-12 else lo + i * step for i in range(n)]

    best, best_score = None, -1.0
    for v in samples(v_lo, v_hi, p.samples_v):
        for omega in samples(w_lo, w_hi, p.samples_omega):
            cmd = VelocityCommand(v, omega)
            score = ref_score(ref_rollout(pose, cmd, p), goal, grid, p)
            if score is None:
                continue
            if best is None or score > best_score or (
                score == best_score and abs(omega) < abs(best.omega)
            ):
                best, best_score = cmd, score
    return best if best is not None else VelocityCommand(0.0, p.omega_max / 2.0)
