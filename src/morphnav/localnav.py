"""Dynamic-window local navigation for the driving mode.

Velocity commands are sampled inside the window reachable within one control
period, rolled out with a unicycle model against the inflated occupancy
grid, and scored on goal heading, obstacle clearance, and speed. Reverse
driving is not sampled; the recovery behavior when every candidate collides
is a stationary spin.

Each control period rolls out and scores the whole window at once: positions
are one (steps + 1, 2, samples_v, samples_omega) array of step offsets summed
a step row at a time, and clearance is read from the grid's padded raster by
one take (OccupancyGrid.clearances): a rollout collides where it reaches 0.
The take skips the leading rows that the start cell's own clearance proves
to be at least d_sat away from every occupied cell (_saturated_rows), since
the clearance term is 1 there either way; in open space that is the whole
window, and no pose is looked up.

Every float of the pick is the one a one-candidate-at-a-time controller
computes with `math`: rollout trig and every bearing go through math.cos,
math.sin and math.atan2 on Python floats, and the rest is elementwise
IEEE arithmetic, which numpy rounds as Python does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .costmodel import check_fields
from .env import OccupancyGrid
from .errors import ConfigError

# Cap on the poses one control period rolls out,
# (ceil(horizon / dt) + 1) * samples_v * samples_omega: the default window is
# 2,541 poses, a 100 s horizon at the default sampling 231,231.
MAX_WINDOW_POSES = 1 << 18

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DwaParams:
    """Sampling window, rollout, and scoring parameters.

    Weights are normalized to sum to one at construction so a perfect
    trajectory scores exactly 1. d_sat is the clearance (m) beyond which
    more space stops improving the score.
    """

    v_max: float = 1.0
    omega_max: float = 1.5
    accel_v: float = 1.0
    accel_omega: float = 2.0
    dt: float = 0.1
    horizon: float = 1.0
    samples_v: int = 11
    samples_omega: int = 21
    w_heading: float = 0.5
    w_clearance: float = 0.3
    w_velocity: float = 0.2
    d_sat: float = 0.5

    def __post_init__(self):
        check_fields(
            self, "dwa",
            positive=("v_max", "omega_max", "accel_v", "accel_omega", "dt", "horizon", "d_sat",
                      "samples_v", "samples_omega"),
            non_negative=("w_heading", "w_clearance", "w_velocity"),
        )
        if not math.isfinite(self.horizon / self.dt):
            raise ConfigError(f"dwa parameter 'horizon' is too many ticks of dt {self.dt} s")
        poses = (math.ceil(self.horizon / self.dt) + 1) * self.samples_v * self.samples_omega
        if poses > MAX_WINDOW_POSES:
            raise ConfigError(f"dwa rollout window of {poses} poses exceeds {MAX_WINDOW_POSES}")
        total = self.w_heading + self.w_clearance + self.w_velocity
        if total <= 0.0:
            raise ConfigError("dwa weights must not all be zero")
        object.__setattr__(self, "w_heading", self.w_heading / total)
        object.__setattr__(self, "w_clearance", self.w_clearance / total)
        object.__setattr__(self, "w_velocity", self.w_velocity / total)


@dataclass(frozen=True)
class VelocityCommand:
    v: float
    omega: float


def dynamic_window(
    current: VelocityCommand, p: DwaParams
) -> tuple[float, float, float, float]:
    """(v_lo, v_hi, omega_lo, omega_hi) reachable within one period.

    Each bound is clamped into [0, v_max] or [-omega_max, omega_max]: no
    reverse driving, and a window wholly beyond a limit is that limit alone.
    """
    v_lo = min(max(0.0, current.v - p.accel_v * p.dt), p.v_max)
    v_hi = max(min(p.v_max, current.v + p.accel_v * p.dt), 0.0)
    w_lo = min(max(-p.omega_max, current.omega - p.accel_omega * p.dt), p.omega_max)
    w_hi = max(min(p.omega_max, current.omega + p.accel_omega * p.dt), -p.omega_max)
    return v_lo, v_hi, w_lo, w_hi


def _rollouts(
    pose: tuple[float, float, float], vs: list[float], ws: list[float], p: DwaParams
) -> tuple[np.ndarray, np.ndarray]:
    """Unicycle forward simulation of every (v, omega) command pair, each
    held for the horizon.

    Returns xy of shape (steps + 1, 2, len(vs), len(ws)), x then y, and yaws
    of shape (steps + 1, len(ws)), steps = ceil(horizon / dt), start pose
    included; yaw depends on omega alone. Position integrates with the
    pre-step yaw, then yaw advances. With `math` trig on Python floats, steps
    of (v * cos) * dt and sums one step row at a time, every candidate
    matches a one-at-a-time integration bit for bit.
    """
    steps = int(math.ceil(p.horizon / p.dt))
    # One row per step: yaw0, then omega * dt added in order, which is the
    # scalar integration's sum bit for bit.
    turns = np.empty((steps + 1, len(ws)))
    turns[0] = pose[2]
    turns[1:] = np.multiply(ws, p.dt)
    yaws = np.cumsum(turns, axis=0)
    pre = yaws[:-1].ravel().tolist()
    trig = np.fromiter(chain(map(math.cos, pre), map(math.sin, pre)), float, 2 * len(pre))
    xy = np.empty((steps + 1, 2, len(vs), len(ws)))
    xy[0] = np.reshape(pose[:2], (2, 1, 1))
    trig = trig.reshape(2, steps, 1, len(ws)).swapaxes(0, 1)
    np.multiply(trig, np.asarray(vs, dtype=float)[:, None], out=xy[1:])
    xy[1:] *= p.dt
    for prev, row in zip(xy, xy[1:]):
        row += prev
    return xy, yaws


def _scores(
    xy: np.ndarray,
    final_yaw: np.ndarray,
    goal: tuple[float, float],
    grid: OccupancyGrid,
    p: DwaParams,
    first: int = 0,
) -> np.ndarray:
    """Scores in [0, 1] of rollouts laid out as by _rollouts: xy of shape
    (poses, 2, n_v, n_omega), final_yaw of shape (n_omega,). A rollout
    that enters an occupied or off-grid cell, where clearance is 0 (it is
    at least one cell width on a free cell), scores -inf.

    heading: 1 - |final bearing error| / pi.
    clearance: min(1, d_min / d_sat) over all poses (1 on an empty grid).
    velocity: commanded speed over v_max, recovered from the first step,
    which is shared by every omega of one v.

    Only the poses of rows `first` onward are looked up in the grid: the
    caller vouches that every pose of the rows before it has clearance at
    least d_sat (see _saturated_rows). Such a pose changes neither the
    clearance term, which min(1, .) already holds at 1, nor the -inf mask,
    so the scores are those of first=0 bit for bit.
    """
    clearance, d_min = 1.0, None
    if first < len(xy):
        d_min = grid.clearances(xy[first:, 0], xy[first:, 1]).min(axis=0)
        clearance = np.minimum(1.0, d_min / p.d_sat)
    dx, dy = (np.array(goal)[:, None] - xy[-1].reshape(2, -1)).tolist()
    bearing = np.fromiter(map(math.atan2, dy, dx), float, len(dx)).reshape(xy.shape[2:])
    # numpy's float % is Python's (fmod, then the divisor's sign).
    error = (bearing - final_yaw + math.pi) % (2.0 * math.pi) - math.pi
    heading = 1.0 - np.abs(error) / math.pi
    start = xy[:2, :, :, 0].swapaxes(1, 2).tolist()
    speed = [[math.dist(a, b) / p.dt] for a, b in zip(*start)] if len(start) > 1 else 0.0
    velocity = np.minimum(1.0, np.divide(speed, p.v_max))
    score = p.w_heading * heading + p.w_clearance * clearance + p.w_velocity * velocity
    if d_min is not None:
        score[d_min == 0.0] = -np.inf
    return score


def _saturated_rows(
    pose: tuple[float, float, float], vs: list[float], xy: np.ndarray, grid: OccupancyGrid,
    p: DwaParams,
) -> int:
    """How many leading rows of the rollouts xy of speeds `vs` from `pose`,
    laid out as by _rollouts, provably have clearance of at least d_sat at
    every pose: 0 when none is proven, len(xy) when all are.

    Row k is proven when k * r <= min(C0 - d_sat - res * sqrt(2), room)
    - margin, where C0 is the start cell's clearance, r = max |v| * dt
    over the samples (a sample may round an ulp above the window's top),
    room is the start's distance to the grid's outer edges, and margin =
    1e-9 * scale, scale = max(1, |x0|, |y0|, the grid's edge coordinates,
    C0 if finite).
    Proof: a pose of row k is the start plus k rounded step rows, each of
    length at most r(1 + 4u), u = 2**-53 (v * cos and * dt round once each,
    math.cos and math.sin are within an ulp), and each of the k row sums
    rounds by half an ulp of the coordinate; with k < 2**18, the pose lies
    within k * r + 3e-11 * scale of the start. Within room, the pose is on
    the grid and needs no edge snap; its cell centre lies within res *
    sqrt(2) / 2 of it, as the start's centre does of the start, give or
    take the few ulps by which the floor of a rounded quotient may pick a
    neighbour beside a cell edge. The exact clearance is 1-Lipschitz in the
    cell centre, so the pose's exceeds C0's exact value less k * r + res *
    sqrt(2) and that slack; both raster values are fl(fl(sqrt(n)) * res),
    within 2u of exact. Every slack is below 1e-10 of the margin's scale,
    so the pose reads at least d_sat. The step bound needs every pose
    finite; non-finite coordinates never sum back to finite ones, so the
    last row stands for all. A non-finite pose (a nan start yaw makes every
    pose after the start nan, and those read 0), an off-grid start or C0 = 0
    proves nothing; on an empty grid (C0 = inf) room alone bounds the rows.
    """
    if not np.isfinite(xy[-1]).all():
        return 0
    x0, y0, steps = pose[0], pose[1], len(xy) - 1
    c0 = grid.clearance(x0, y0)
    (ox, oy), res = grid.origin, grid.resolution
    ex, ey = ox + grid.width * res, oy + grid.height * res
    room = min(x0 - ox, ex - x0, y0 - oy, ey - y0)
    scale = max(1.0, abs(x0), abs(y0), abs(ox), abs(oy), abs(ex), abs(ey),
                c0 if c0 < math.inf else 0.0)
    budget = min(room, c0 - p.d_sat - res * SQRT2) - 1e-9 * scale
    r = max(map(abs, vs)) * p.dt
    if not (budget >= 0.0 and r < math.inf):
        return 0
    return steps + 1 if r * steps <= budget else int(budget / r) + 1


def _samples(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    vals = [lo + i * step for i in range(n)]
    # Snap float dust so a symmetric window contains an exact zero sample.
    return [0.0 if abs(v) < 1e-12 else v for v in vals]


def dwa_step(
    pose: tuple[float, float, float],
    current: VelocityCommand,
    goal: tuple[float, float],
    grid: OccupancyGrid,
    p: DwaParams,
) -> VelocityCommand:
    """Pick the best velocity command for one control period.

    Evaluates the samples_v x samples_omega grid over the dynamic window.
    Ties break toward smaller |omega|, then the earlier sample (v-major
    order), making the choice deterministic. If every candidate trajectory
    collides, returns the recovery command (0, +omega_max / 2).
    """
    v_lo, v_hi, w_lo, w_hi = dynamic_window(current, p)
    vs = _samples(v_lo, v_hi, p.samples_v)
    ws = _samples(w_lo, w_hi, p.samples_omega)
    xy, yaws = _rollouts(pose, vs, ws, p)
    first = _saturated_rows(pose, vs, xy, grid, p)
    score = _scores(xy, yaws[-1], goal, grid, p, first)
    best = score.max()
    if best == -math.inf:
        return VelocityCommand(0.0, p.omega_max / 2.0)
    # Among the best scores, the smallest |omega|; argmin keeps the first of
    # equal keys, which is the earliest candidate in v-major order.
    key = np.where(score == best, np.abs(np.asarray(ws)), np.inf)
    i, j = divmod(int(np.argmin(key)), len(ws))
    return VelocityCommand(vs[i], ws[j])
