"""Dynamic-window local navigation for the driving mode.

Velocity commands are sampled inside the window reachable within one control
period, rolled out with a unicycle model against the inflated occupancy
grid, and scored on goal heading, obstacle clearance, and speed. Reverse
driving is not sampled; the recovery behavior when every candidate collides
is a stationary spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env import OccupancyGrid
from .errors import ConfigError


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
        for key in ("v_max", "omega_max", "accel_v", "accel_omega", "dt", "horizon", "d_sat"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"dwa parameter '{key}' must be positive")
        if self.samples_v < 1 or self.samples_omega < 1:
            raise ConfigError("sample counts must be at least 1")
        for key in ("w_heading", "w_clearance", "w_velocity"):
            if getattr(self, key) < 0.0:
                raise ConfigError(f"dwa weight '{key}' must be non-negative")
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


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def dynamic_window(
    current: VelocityCommand, p: DwaParams
) -> tuple[float, float, float, float]:
    """(v_lo, v_hi, omega_lo, omega_hi) reachable within one period.

    Forward speed is clipped to [0, v_max]; no reverse driving.
    """
    v_lo = max(0.0, current.v - p.accel_v * p.dt)
    v_hi = min(p.v_max, current.v + p.accel_v * p.dt)
    w_lo = max(-p.omega_max, current.omega - p.accel_omega * p.dt)
    w_hi = min(p.omega_max, current.omega + p.accel_omega * p.dt)
    return v_lo, v_hi, w_lo, w_hi


def rollout(
    pose: tuple[float, float, float], cmd: VelocityCommand, p: DwaParams
) -> list[tuple[float, float, float]]:
    """Unicycle forward simulation of one command held for the horizon.

    Returns ceil(horizon / dt) + 1 poses including the start pose. Position
    integrates with the pre-step yaw, then yaw advances.
    """
    steps = int(math.ceil(p.horizon / p.dt))
    x, y, yaw = pose
    poses = [(x, y, yaw)]
    for _ in range(steps):
        x += cmd.v * math.cos(yaw) * p.dt
        y += cmd.v * math.sin(yaw) * p.dt
        yaw += cmd.omega * p.dt
        poses.append((x, y, yaw))
    return poses


def score_trajectory(
    traj: list[tuple[float, float, float]],
    goal: tuple[float, float],
    grid: OccupancyGrid,
    p: DwaParams,
) -> float | None:
    """Score one rollout in [0, 1]; None means rejected for collision.

    heading: 1 - |final bearing error| / pi.
    clearance: min(1, d_min / d_sat) over all poses (1 on an empty grid).
    velocity: commanded speed over v_max, recovered from the first step.
    """
    d_min = math.inf
    for x, y, _ in traj:
        if grid.occupied_at_world(x, y):
            return None
        d = grid.distance_to_occupied(x, y)
        if d < d_min:
            d_min = d
    fx, fy, fyaw = traj[-1]
    bearing = math.atan2(goal[1] - fy, goal[0] - fx)
    dtheta = abs(_wrap_angle(bearing - fyaw))
    heading = 1.0 - dtheta / math.pi
    clearance = 1.0 if math.isinf(d_min) else min(1.0, d_min / p.d_sat)
    if len(traj) > 1:
        v = math.dist(traj[0][:2], traj[1][:2]) / p.dt
    else:
        v = 0.0
    velocity = min(1.0, v / p.v_max)
    return p.w_heading * heading + p.w_clearance * clearance + p.w_velocity * velocity


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
    best_cmd: VelocityCommand | None = None
    best_score = -1.0
    for v in _samples(v_lo, v_hi, p.samples_v):
        for omega in _samples(w_lo, w_hi, p.samples_omega):
            cmd = VelocityCommand(v, omega)
            score = score_trajectory(rollout(pose, cmd, p), goal, grid, p)
            if score is None:
                continue
            if best_cmd is None or score > best_score or (
                score == best_score and abs(omega) < abs(best_cmd.omega)
            ):
                best_cmd = cmd
                best_score = score
    if best_cmd is None:
        return VelocityCommand(0.0, p.omega_max / 2.0)
    return best_cmd

