"""Mission execution for a robot that drives, morphs, and flies.

The executor mirrors a simple field procedure: drive toward the active
waypoint with a grid cost-to-go field, built once per waypoint, plus
dynamic-window control; when no drivable path exists, assume the waypoint
is reachable by air, morph, fly a takeoff / fixed-altitude cruise /
vertical descent profile to it, morph back, and continue driving.

Each tick runs one of three controllers, picked by phase: the ground
controller, the morph controller (both directions), or the flight
controller, which flies all three air phases and takes its target and
horizontal speed from the phase. Every controller call reads the pose
estimate once; a flight phase that ends hands over within the tick, and the
next phase reads a fresh estimate, so with pose noise on, the order of the
noise draws is part of a seeded mission's outcome.

Each tick is one control period of the dynamic window, `dwa.dt`.

Actuation latency is modeled as a FIFO delay line on all velocity commands:
the vehicle executes the command issued `latency` seconds ago, which is what
produces the altitude overshoot seen when a controller keeps commanding
descent until its (stale) effect catches up.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .costmodel import CostModel, check_fields
from .env import Environment, OccupancyGrid, project_to_grid
from .errors import ConfigError
from .localnav import DwaParams, VelocityCommand, dwa_step
from .planner import CostToGo
from .rng import SplitMix64

# Carrot distance along the descent of the cost-to-go field.
LOOKAHEAD_DIST = 1.2
# Horizontal arrival threshold ending the cruise phase.
CRUISE_ARRIVAL = 0.05
# Max commanded climb rate: a 1.5 thrust-to-weight vehicle has half a g of
# spare lift, which bounds sustained vertical speed commands we accept.
MAX_CLIMB_RATE = 4.9


class LocomotionMode(Enum):
    UGV = "UGV"
    UAS = "UAS"
    MORPHING = "Morphing"


class MissionPhase(Enum):
    GROUND_NAV = "GroundNav"
    MORPH_TO_UAS = "MorphToUas"
    TAKEOFF = "Takeoff"
    CRUISE = "Cruise"
    DESCEND = "Descend"
    MORPH_TO_UGV = "MorphToUgv"
    DONE = "Done"
    FAILED = "Failed"


LEGAL_PHASE_TRANSITIONS: dict[MissionPhase, frozenset[MissionPhase]] = {
    MissionPhase.GROUND_NAV: frozenset(
        {MissionPhase.MORPH_TO_UAS, MissionPhase.DONE, MissionPhase.FAILED}
    ),
    MissionPhase.MORPH_TO_UAS: frozenset({MissionPhase.TAKEOFF, MissionPhase.FAILED}),
    MissionPhase.TAKEOFF: frozenset({MissionPhase.CRUISE, MissionPhase.FAILED}),
    MissionPhase.CRUISE: frozenset({MissionPhase.DESCEND, MissionPhase.FAILED}),
    MissionPhase.DESCEND: frozenset({MissionPhase.MORPH_TO_UGV, MissionPhase.FAILED}),
    MissionPhase.MORPH_TO_UGV: frozenset(
        {MissionPhase.GROUND_NAV, MissionPhase.FAILED}
    ),
    MissionPhase.DONE: frozenset(),
    MissionPhase.FAILED: frozenset(),
}


@dataclass
class RobotState:
    """Pose plus applied velocities. While driving, z is pinned to the
    ground surface; while morphing, both velocities are zero."""

    x: float
    y: float
    z: float
    yaw: float
    v: float = 0.0
    omega: float = 0.0
    mode: LocomotionMode = LocomotionMode.UGV


@dataclass(frozen=True)
class SimConfig:
    """Executor parameters. Times in seconds, distances in meters."""

    goal_tolerance: float = 0.2
    cruise_altitude: float = 1.5
    climb_rate: float = 1.0
    actuation_latency: float = 0.0
    max_mission_time: float = 300.0
    landing_tolerance: float = 0.05
    assume_flyable: bool = True
    pose_noise_sigma: float = 0.0

    def __post_init__(self):
        check_fields(
            self, "sim",
            positive=("goal_tolerance", "cruise_altitude", "max_mission_time"),
            non_negative=("actuation_latency", "landing_tolerance", "pose_noise_sigma"),
        )
        if not 0.0 < self.climb_rate <= MAX_CLIMB_RATE:
            raise ConfigError(f"climb_rate must be in (0, {MAX_CLIMB_RATE}] m/s")


@dataclass
class EnergyLedger:
    """Per-mode energy in joules; the total is the exact bucket sum."""

    ground: float = 0.0
    flight: float = 0.0
    transition: float = 0.0

    @property
    def total(self) -> float:
        return self.ground + self.flight + self.transition


def accumulate_energy(
    ledger: EnergyLedger, state: RobotState, cm: CostModel, dt: float, dz: float = 0.0
) -> None:
    """One tick of energy integration.

    A moving ground vehicle draws drive power; a stationary one draws
    nothing. An airborne vehicle draws hover power plus the potential
    energy of any climb during the tick (descent is not credited back).
    A morphing vehicle draws morph power.
    """
    if state.mode is LocomotionMode.UGV:
        if state.v > 0.0:
            ledger.ground += cm.ground_power * dt
    elif state.mode is LocomotionMode.UAS:
        ledger.flight += cm.flight_power * dt + cm.mass * cm.gravity * max(0.0, dz)
    else:
        ledger.transition += cm.morph_power * dt


class TickRecord(NamedTuple):
    """One row of the trajectory; its fields are trajectory_csv's columns."""

    t: float
    x: float
    y: float
    z: float
    yaw: float
    mode: str
    phase: str
    v: float
    omega: float
    e_ground: float
    e_flight: float
    e_transition: float
    e_total: float
    collided: bool


@dataclass
class MissionResult:
    outcome: str
    reason: str
    records: list[TickRecord]
    ledger: EnergyLedger
    timeline: list[tuple[str, float, float]]
    morph_count: int
    descend_overshoot: float
    waypoints_reached: int
    final_state: RobotState

    @property
    def duration(self) -> float:
        return self.records[-1].t if self.records else 0.0


# -- single-step vehicle models ------------------------------------------------


def step_ugv(state: RobotState, cmd: VelocityCommand, env: Environment, dt: float) -> RobotState:
    """Advance a driving robot one tick under a velocity command.

    Unicycle integration with the pre-step yaw; z stays pinned to the
    ground surface and the pose is clamped inside the arena footprint.
    """
    if state.mode is not LocomotionMode.UGV:
        raise ValueError("step_ugv requires UGV mode")
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    x = min(max(state.x + cmd.v * math.cos(state.yaw) * dt, lo[0]), hi[0])
    y = min(max(state.y + cmd.v * math.sin(state.yaw) * dt, lo[1]), hi[1])
    yaw = state.yaw + cmd.omega * dt
    return RobotState(
        x, y, env.ground_height(x, y), yaw, cmd.v, cmd.omega, LocomotionMode.UGV
    )


def _flight_velocity_toward(
    pos: tuple[float, float, float],
    target: tuple[float, float, float],
    h_speed: float,
    v_speed: float,
    dt: float,
) -> tuple[float, float, float]:
    """Velocity that moves toward target without overshooting in one tick,
    with separate horizontal and vertical speed caps."""
    dx = target[0] - pos[0]
    dy = target[1] - pos[1]
    dz = target[2] - pos[2]
    h_dist = math.hypot(dx, dy)
    if h_dist > 0.0 and h_speed > 0.0:
        scale = min(h_speed, h_dist / dt) / h_dist
        vx, vy = dx * scale, dy * scale
    else:
        vx, vy = 0.0, 0.0
    if dz != 0.0 and v_speed > 0.0:
        vz = math.copysign(min(v_speed, abs(dz) / dt), dz)
    else:
        vz = 0.0
    return vx, vy, vz


def _apply_flight_velocity(
    state: RobotState, vel: tuple[float, float, float], env: Environment, dt: float
) -> RobotState:
    """Integrate a flight velocity; altitude never penetrates the ground
    and the pose is clamped inside the arena."""
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    x = min(max(state.x + vel[0] * dt, lo[0]), hi[0])
    y = min(max(state.y + vel[1] * dt, lo[1]), hi[1])
    z = min(state.z + vel[2] * dt, hi[2])
    z = max(z, env.ground_height(x, y))
    speed = math.sqrt(vel[0] ** 2 + vel[1] ** 2 + vel[2] ** 2)
    return RobotState(x, y, z, state.yaw, speed, 0.0, LocomotionMode.UAS)


# -- mission executor -----------------------------------------------------------


# One actuation command: (v, omega) consumed while driving, (vx, vy, vz)
# while flying. Unused components are zero.
_ZERO_CMD = (0.0, 0.0, 0.0, 0.0, 0.0)


class Mission:
    """Mission executor ticking at `dwa.dt`; run() drives it once to Done or Failed."""

    def __init__(
        self,
        env: Environment,
        waypoints,
        cm: CostModel,
        dwa: DwaParams,
        cfg: SimConfig,
        seed: int = 0,
        start=None,
        start_yaw: float = 0.0,
        grid: OccupancyGrid | None = None,
    ):
        if not waypoints:
            raise ConfigError("waypoint list must not be empty")
        self.env = env
        self.cm = cm
        self.dwa = dwa
        self.cfg = cfg
        self.waypoints: list[tuple[float, float, float]] = [
            env.snap_to_ground(wp, f"waypoint {i}") for i, wp in enumerate(waypoints)
        ]
        if not (env.bounds.min_corner[2] < cfg.cruise_altitude <= env.bounds.max_corner[2]):
            raise ConfigError("cruise_altitude outside bounds z range")
        # The dynamic window allows dwa.dt of acceleration per tick.
        self.dt = dwa.dt
        for name, value in (
            ("sim parameter 'actuation_latency'", cfg.actuation_latency),
            ("sim parameter 'max_mission_time'", cfg.max_mission_time),
            ("cost parameter 'morph_duration'", cm.morph_duration),
        ):
            if not math.isfinite(value / self.dt):
                raise ConfigError(f"{name} is too many ticks of dt {self.dt} s")
        if start is None:
            start = self.waypoints[0]
        sx, sy, sz = env.snap_to_ground(start, "start")
        self.grid = grid if grid is not None else project_to_grid(env)
        self.state = RobotState(sx, sy, sz, float(start_yaw))
        self._rng = SplitMix64(seed)
        self._n_delay = int(round(cfg.actuation_latency / self.dt))
        self._queue: deque[tuple[float, float, float, float, float]] = deque()
        self.phase = MissionPhase.GROUND_NAV
        self.ledger = EnergyLedger()
        self.records: list[TickRecord] = []
        self.timeline: list[tuple[str, float, float]] = []
        self._phase_start_t = 0.0
        self.tick = 0
        self.wp_idx = 0
        self.morph_count = 0
        self.descend_overshoot = 0.0
        self.reason = ""
        self._field: CostToGo | None = None  # of waypoint wp_idx
        # Window reference for the local controller: its own last command,
        # not the delayed plant response, or latency destabilizes the loop.
        self._intent = VelocityCommand(0.0, 0.0)
        self._morph_ticks = 0
        self._morph_ticks_needed = max(1, int(math.ceil(cm.morph_duration / self.dt - 1e-9)))
        self._land_z = 0.0
        collided = env.point_in_collision((sx, sy, sz), 0.0)
        self._record(collided)  # row at t = 0
        # A start or waypoint inside an obstacle fails before the first tick.
        reason = "start position is inside an obstacle" if collided else next(
            (f"waypoint {i} is inside an obstacle"
             for i, wp in enumerate(self.waypoints) if env.point_in_collision(wp, 0.0)),
            "",
        )
        if reason:
            self._fail(reason)
            self.tick = 1
            self._record(collided)

    @property
    def t(self) -> float:
        return self.tick * self.dt

    def _view(self) -> tuple[float, float, float, float]:
        """Controller's pose estimate; optionally noisy, never fed back
        into the true state."""
        s = self.state
        sigma = self.cfg.pose_noise_sigma
        if sigma == 0.0:
            return s.x, s.y, s.z, s.yaw
        return (
            s.x + self._rng.normal(sigma),
            s.y + self._rng.normal(sigma),
            s.z + self._rng.normal(sigma),
            s.yaw + self._rng.normal(sigma),
        )

    def _set_phase(self, phase: MissionPhase) -> None:
        if phase not in LEGAL_PHASE_TRANSITIONS[self.phase]:
            raise AssertionError(f"illegal phase transition {self.phase} -> {phase}")
        self.timeline.append((self.phase.value, self._phase_start_t, self.t))
        self.phase = phase
        self._phase_start_t = self.t

    def _fail(self, reason: str) -> None:
        self.reason = reason
        self._set_phase(MissionPhase.FAILED)

    # -- per-phase control -------------------------------------------------

    def _enter_morph(self, phase: MissionPhase) -> None:
        self._morph_ticks = 0
        self._intent = VelocityCommand(0.0, 0.0)
        self._set_phase(phase)

    def _control_ground_nav(self) -> tuple[float, float, float, float, float]:
        vx, vy, vz, vyaw = self._view()
        wp = self.waypoints[self.wp_idx]
        if math.hypot(wp[0] - vx, wp[1] - vy) <= self.cfg.goal_tolerance:
            self.wp_idx += 1
            self._field = None
            if self.wp_idx >= len(self.waypoints):
                self._set_phase(MissionPhase.DONE)
                return _ZERO_CMD
            wp = self.waypoints[self.wp_idx]
        if self._field is None:
            self._field = CostToGo(self.grid, self.grid.world_to_cell(wp[0], wp[1]))
        cell = self.grid.world_to_cell(vx, vy)
        if math.isinf(self._field.cost(*cell)):
            if self.grid.occupied(*cell):
                self._fail("vehicle inside the inflated obstacle region")
                return _ZERO_CMD
            if not self.cfg.assume_flyable:
                self._fail(f"no drivable path to waypoint {self.wp_idx} and flight disabled")
                return _ZERO_CMD
            self._enter_morph(MissionPhase.MORPH_TO_UAS)
            return _ZERO_CMD
        if math.hypot(wp[0] - vx, wp[1] - vy) <= LOOKAHEAD_DIST:
            carrot = (wp[0], wp[1])
        else:
            ahead = max(1, int(round(LOOKAHEAD_DIST / self.grid.resolution)))
            carrot = self.grid.cell_center(*self._field.descend(cell, ahead)[-1])
        cmd = dwa_step((vx, vy, vyaw), self._intent, carrot, self.grid, self.dwa)
        self._intent = cmd
        return (cmd.v, cmd.omega, 0.0, 0.0, 0.0)

    def _control_morph(self) -> tuple[float, float, float, float, float]:
        if self.state.mode is not LocomotionMode.MORPHING:
            # Settle stage: wait for the delayed actuation to drain so the
            # vehicle is stationary before reconfiguration begins.
            settled = (
                abs(self.state.v) <= 1e-9 and abs(self.state.omega) <= 1e-9
            )
            if settled:
                self.state.mode = LocomotionMode.MORPHING
                self.state.v = 0.0
                self.state.omega = 0.0
            return _ZERO_CMD
        self._morph_ticks += 1
        if self._morph_ticks >= self._morph_ticks_needed:
            self.morph_count += 1
            # Snap the bucket so completed morphs cost exactly C_t each,
            # free of per-tick accumulation dust.
            self.ledger.transition = self.morph_count * self.cm.transition_cost()
            if self.phase is MissionPhase.MORPH_TO_UAS:
                self.state.mode = LocomotionMode.UAS
                self._set_phase(MissionPhase.TAKEOFF)
            else:
                self.state.mode = LocomotionMode.UGV
                self.state.z = self.env.ground_height(self.state.x, self.state.y)
                self._set_phase(MissionPhase.GROUND_NAV)
        return _ZERO_CMD

    def _control_flight(self) -> tuple[float, float, float, float, float]:
        """Takeoff climbs in place to cruise altitude, cruise flies level to
        the waypoint, descent drops in place to the landing height."""
        x, y, z, _ = self._view()
        cfg = self.cfg
        if self.phase is MissionPhase.TAKEOFF:
            if z >= cfg.cruise_altitude - 1e-9:
                self._set_phase(MissionPhase.CRUISE)
                return self._control_flight()
            target, h_speed = (x, y, cfg.cruise_altitude), 0.0
        elif self.phase is MissionPhase.CRUISE:
            wp = self.waypoints[self.wp_idx]
            if math.hypot(wp[0] - x, wp[1] - y) <= CRUISE_ARRIVAL:
                self._land_z = wp[2] + cfg.landing_tolerance
                self._set_phase(MissionPhase.DESCEND)
                return self._control_flight()
            target, h_speed = (wp[0], wp[1], cfg.cruise_altitude), self.cm.flight_speed
        elif z <= self._land_z + 1e-9:
            if self.state.v <= 1e-9:
                # Touched down and the delayed actuation has drained.
                self._enter_morph(MissionPhase.MORPH_TO_UGV)
            return _ZERO_CMD
        else:
            target, h_speed = (x, y, self._land_z), 0.0
        vel = _flight_velocity_toward((x, y, z), target, h_speed, cfg.climb_rate, self.dt)
        return (0.0, 0.0, *vel)

    # -- tick loop -----------------------------------------------------------

    def step(self) -> None:
        """Advance the mission by one control period."""
        if self.phase in (MissionPhase.DONE, MissionPhase.FAILED):
            return
        if self.phase is MissionPhase.GROUND_NAV:
            desired = self._control_ground_nav()
        elif self.phase in (MissionPhase.MORPH_TO_UAS, MissionPhase.MORPH_TO_UGV):
            desired = self._control_morph()
        else:
            desired = self._control_flight()
        # The line fills as ticks run; until it holds more than the delay,
        # the vehicle executes zero commands.
        self._queue.append(desired)
        applied = self._queue.popleft() if len(self._queue) > self._n_delay else _ZERO_CMD

        prev_z = self.state.z
        if self.state.mode is LocomotionMode.UGV:
            self.state = step_ugv(
                self.state, VelocityCommand(applied[0], applied[1]), self.env, self.dt
            )
        elif self.state.mode is LocomotionMode.UAS:
            self.state = _apply_flight_velocity(
                self.state, applied[2:], self.env, self.dt
            )
        # Morphing: stationary by definition.

        accumulate_energy(self.ledger, self.state, self.cm, self.dt, self.state.z - prev_z)
        self.tick += 1

        if self.phase is MissionPhase.DESCEND:
            self.descend_overshoot = max(
                self.descend_overshoot, self._land_z - self.state.z
            )
        s = self.state
        collided = self.env.point_in_collision((s.x, s.y, s.z), 0.0)
        if self.phase not in (MissionPhase.DONE, MissionPhase.FAILED):
            if collided:
                self._fail(f"collision at tick {self.tick} at ({s.x:.3f}, {s.y:.3f}, {s.z:.3f})")
            elif self.t > self.cfg.max_mission_time:
                self._fail("mission time limit exceeded")
        self._record(collided)

    def _record(self, collided: bool) -> None:
        s = self.state
        led = self.ledger
        self.records.append(
            TickRecord(
                self.t,
                s.x,
                s.y,
                s.z,
                s.yaw,
                s.mode.value,
                self.phase.value,
                s.v,
                s.omega,
                led.ground,
                led.flight,
                led.transition,
                led.total,
                collided,
            )
        )

    def run(self) -> MissionResult:
        """Execute the mission to completion; fully deterministic for a given
        argument set. A mission runs once: a later call steps nothing and
        returns a result equal to the first."""
        # step() fails the mission at a collided tick or past max_mission_time.
        while self.phase not in (MissionPhase.DONE, MissionPhase.FAILED):
            self.step()
        return MissionResult(
            outcome="Done" if self.phase is MissionPhase.DONE else "Failed",
            reason=self.reason,
            records=self.records,
            ledger=self.ledger,
            timeline=[*self.timeline, (self.phase.value, self._phase_start_t, self.t)],
            morph_count=self.morph_count,
            descend_overshoot=self.descend_overshoot,
            waypoints_reached=self.wp_idx,
            final_state=self.state,
        )


def _csv_field(value) -> str:
    if isinstance(value, str):
        return value
    return str(int(value)) if isinstance(value, bool) else repr(value)


def trajectory_csv(records) -> str:
    """Render tick records as CSV, a column per TickRecord field: strings as
    they are, the collided flag as 0 or 1, floats by round-trip repr."""
    lines = [",".join(TickRecord._fields)]
    lines.extend(",".join(map(_csv_field, r)) for r in records)
    return "\n".join(lines) + "\n"
