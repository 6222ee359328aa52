"""Mission executor: vehicle steps, phase machine, energy ledger, latency."""

import hashlib
import math

import numpy as np
import pytest

from morphnav import sim
from morphnav.costmodel import CostModel, load_config_file
from morphnav.env import OccupancyGrid, load_environment
from morphnav.errors import ConfigError
from morphnav.localnav import DwaParams, VelocityCommand
from morphnav.sim import (
    LEGAL_PHASE_TRANSITIONS,
    EnergyLedger,
    LocomotionMode,
    Mission,
    MissionPhase,
    RobotState,
    SimConfig,
    accumulate_energy,
    step_ugv,
    trajectory_csv,
)
from reference import ARENA, CM, OPEN_FIELD, open_env, select_like_dwa, walled_env

DWA = DwaParams()


_ARENA_WAYPOINTS = ((4.0, 3.0, 0.0), (6.0, 3.0, 0.0), (10.0, 3.0, 0.0))
_ARENA_CACHE = {}


def _arena_result(latency=0.0):
    """Cross-wall three-waypoint mission, memoized per latency setting."""
    if latency not in _ARENA_CACHE:
        _ARENA_CACHE[latency] = Mission(
            walled_env(),
            _ARENA_WAYPOINTS,
            CM,
            DWA,
            SimConfig(actuation_latency=latency),
            start=(1.0, 3.0, 0.0),
        ).run()
    return _ARENA_CACHE[latency]


# -- single-step vehicle models ---------------------------------------------


def test_step_ugv_axis_aligned():
    env = open_env()
    state = RobotState(1.0, 1.0, 0.0, 0.0)
    nxt = step_ugv(state, VelocityCommand(1.0, 0.0), env, 0.1)
    assert nxt.x == 1.1 and nxt.y == 1.0 and nxt.z == 0.0
    assert nxt.v == 1.0 and nxt.omega == 0.0
    still = step_ugv(state, VelocityCommand(0.0, 0.0), env, 0.1)
    assert (still.x, still.y, still.yaw) == (1.0, 1.0, 0.0)


def test_step_ugv_arc_matches_closed_form():
    # 100 Euler steps of (v=1, w=1); dt small enough that the first-order
    # error stays under a millimeter against the exact circular arc.
    env = open_env()
    dt = 0.002
    state = RobotState(5.0, 5.0, 0.0, 0.0)
    for _ in range(100):
        state = step_ugv(state, VelocityCommand(1.0, 1.0), env, dt)
    t = 100 * dt
    exact = (5.0 + math.sin(t), 5.0 + 1.0 - math.cos(t))
    assert math.hypot(state.x - exact[0], state.y - exact[1]) < 1e-3
    assert state.yaw == pytest.approx(t, abs=1e-12)


def test_step_ugv_pins_z_and_clamps_to_bounds():
    env = open_env(x=2.0, y=2.0)
    state = RobotState(1.95, 1.0, 0.0, 0.0)
    for _ in range(5):
        state = step_ugv(state, VelocityCommand(1.0, 0.0), env, 0.1)
    assert state.x <= 2.0
    assert state.z == 0.0


def test_step_ugv_requires_ground_mode():
    state = RobotState(1.0, 1.0, 1.0, 0.0, mode=LocomotionMode.UAS)
    with pytest.raises(ValueError):
        step_ugv(state, VelocityCommand(0.0, 0.0), open_env(), 0.1)


# -- energy integration --------------------------------------------------------


def test_accumulate_energy_per_mode():
    led = EnergyLedger()
    ugv = RobotState(0, 0, 0, 0, v=1.0)
    accumulate_energy(led, ugv, CM, 0.1)
    assert led.ground == pytest.approx(12.0, abs=1e-12)
    accumulate_energy(led, RobotState(0, 0, 0, 0, v=0.0), CM, 0.1)
    assert led.ground == pytest.approx(12.0, abs=1e-12)  # parked draws nothing
    uas = RobotState(0, 0, 1, 0, mode=LocomotionMode.UAS)
    accumulate_energy(led, uas, CM, 0.1)
    assert led.flight == pytest.approx(60.0, abs=1e-9)
    accumulate_energy(led, uas, CM, 0.1, dz=0.1)
    assert led.flight == pytest.approx(120.0 + 6.0 * 9.81 * 0.1, abs=1e-9)
    accumulate_energy(led, uas, CM, 0.1, dz=-0.5)  # descent is not credited
    assert led.flight == pytest.approx(180.0 + 6.0 * 9.81 * 0.1, abs=1e-9)
    morphing = RobotState(0, 0, 0, 0, mode=LocomotionMode.MORPHING)
    accumulate_energy(led, morphing, CM, 0.1)
    assert led.transition == pytest.approx(5.0, abs=1e-12)
    assert led.total == led.ground + led.flight + led.transition


def test_hover_costs_hover_power():
    led = EnergyLedger()
    uas = RobotState(0, 0, 1.5, 0, mode=LocomotionMode.UAS)
    for _ in range(10):
        accumulate_energy(led, uas, CM, 0.1)
    assert led.total == pytest.approx(600.0, abs=1e-9)


# -- config validation ------------------------------------------------------------


def test_sim_config_validation():
    for kwargs in (
        {"goal_tolerance": 0.0},
        {"cruise_altitude": -1.0},
        {"climb_rate": 0.0},
        {"climb_rate": 5.0},
        {"actuation_latency": -0.1},
        {"landing_tolerance": -0.01},
        {"max_mission_time": 0.0},
        {"pose_noise_sigma": -1.0},
        # Every float is finite.
        {"pose_noise_sigma": math.nan},
        {"landing_tolerance": math.inf},
        {"actuation_latency": math.nan},
        {"actuation_latency": math.inf},
    ):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)
    # The tick is dwa.dt, checked where the controller's parameters are.
    for dt in (0.0, math.nan, 1e-310):
        with pytest.raises(ConfigError):
            DwaParams(dt=dt)
    assert SimConfig(climb_rate=4.9).climb_rate == 4.9


def test_mission_rejects_bad_setup():
    env = walled_env()
    with pytest.raises(ConfigError):
        Mission(env, (), CM, DWA, SimConfig())
    with pytest.raises(ConfigError):
        Mission(env, ((1.0, 3.0, 0.0),), CM, DWA, SimConfig(), start=(-5.0, 3.0, 0.0))
    with pytest.raises(ConfigError):
        Mission(env, ((50.0, 3.0, 0.0),), CM, DWA, SimConfig())
    with pytest.raises(ConfigError):
        Mission(env, ((1.0, 3.0, 0.0),), CM, DWA, SimConfig(cruise_altitude=10.0))
    # The mission ticks at the dynamic window's dwa.dt, so a shorter window
    # step is a shorter tick.
    short = Mission(
        open_env(), ((6.0, 2.0, 0.0),), CM, DwaParams(dt=0.05), SimConfig(), start=(2.0, 2.0, 0.0)
    )
    assert short.dt == 0.05
    assert short.run().outcome == "Done"


def test_mission_refuses_durations_of_too_many_ticks():
    # Every duration counted in ticks of dwa.dt must come to a finite count;
    # each is refused before any tick runs.
    wps, start = ((6.0, 2.0, 0.0),), (2.0, 2.0, 0.0)
    for cm, dwa, cfg, message in (
        (CM, DWA, SimConfig(actuation_latency=1e308),
         "sim parameter 'actuation_latency' is too many ticks of dt 0.1 s"),
        (CM, DWA, SimConfig(max_mission_time=1e308),
         "sim parameter 'max_mission_time' is too many ticks of dt 0.1 s"),
        (CM, DwaParams(dt=1e-307, horizon=1e-307), SimConfig(),
         "sim parameter 'max_mission_time' is too many ticks of dt 1e-307 s"),
        (CostModel(morph_duration=1e306), DwaParams(dt=0.001), SimConfig(),
         "cost parameter 'morph_duration' is too many ticks of dt 0.001 s"),
    ):
        with pytest.raises(ConfigError) as info:
            Mission(open_env(), wps, cm, dwa, cfg, start=start)
        assert str(info.value) == message


# -- missions ----------------------------------------------------------------------


def test_mission_immediate_done():
    result = Mission(
        open_env(), ((2.0, 2.0, 0.0),), CM, DWA, SimConfig(), start=(2.0, 2.0, 0.0)
    ).run()
    assert result.outcome == "Done"
    assert result.waypoints_reached == 1
    assert result.duration <= 0.2
    assert result.ledger.total == 0.0


def test_ground_only_mission():
    result = Mission(
        open_env(), ((6.0, 2.0, 0.0),), CM, DWA, SimConfig(), start=(2.0, 2.0, 0.0)
    ).run()
    assert result.outcome == "Done"
    assert result.morph_count == 0
    assert result.ledger.flight == 0.0 and result.ledger.transition == 0.0
    assert result.ledger.ground > 0.0
    assert all(r.mode == "UGV" for r in result.records)
    assert all(r.z == 0.0 for r in result.records)
    final = result.final_state
    assert math.hypot(final.x - 6.0, final.y - 2.0) <= 0.2 + 1e-9
    assert [p for p, _, _ in result.timeline] == ["GroundNav", "Done"]
    assert result.duration < 30.0


def test_walled_arena_phase_sequence():
    result = _arena_result()
    assert result.outcome == "Done"
    assert [p for p, _, _ in result.timeline] == [
        "GroundNav",
        "MorphToUas",
        "Takeoff",
        "Cruise",
        "Descend",
        "MorphToUgv",
        "GroundNav",
        "Done",
    ]
    assert result.morph_count == 2
    assert result.waypoints_reached == 3
    final = result.final_state
    assert math.hypot(final.x - 10.0, final.y - 3.0) <= 0.2 + 1e-9
    assert final.mode is LocomotionMode.UGV


def test_walled_arena_record_stream_is_consistent():
    result = _arena_result()
    records = result.records
    assert records[0].t == 0.0
    value_to_phase = {p.value: p for p in MissionPhase}
    for i, r in enumerate(records):
        assert r.t == i * 0.1
        assert r.e_total == r.e_ground + r.e_flight + r.e_transition
        assert not r.collided
        assert min(r.e_ground, r.e_flight, r.e_transition) >= 0.0
        if r.mode == "UGV":
            assert r.z == 0.0
        if r.mode == "Morphing":
            assert r.v == 0.0 and r.omega == 0.0
        if r.phase == "Cruise":
            assert abs(r.z - 1.5) <= 1.0 * 0.1 + 1e-9
    for prev, cur in zip(records, records[1:]):
        a = value_to_phase[prev.phase]
        b = value_to_phase[cur.phase]
        assert b is a or b in LEGAL_PHASE_TRANSITIONS[a]
        assert cur.e_total >= prev.e_total - 1e-9


def test_walled_arena_energy_audit():
    # Re-derive every ledger increment from the pose stream: driving costs
    # drive power per moving tick, flying costs hover power plus climb
    # potential, morphing costs morph power, with the per-morph snap to an
    # exact multiple of the transition cost allowed as dust.
    records = _arena_result().records
    for prev, cur in zip(records, records[1:]):
        dg = cur.e_ground - prev.e_ground
        df = cur.e_flight - prev.e_flight
        dtr = cur.e_transition - prev.e_transition
        if cur.mode == "UGV":
            assert df == 0.0 and abs(dtr) < 1e-9
            assert dg == 0.0 or dg == pytest.approx(12.0, abs=1e-9)
        elif cur.mode == "UAS":
            assert dg == 0.0 and abs(dtr) < 1e-9
            want = CM.flight_power * 0.1 + CM.mass * CM.gravity * max(0.0, cur.z - prev.z)
            assert df == pytest.approx(want, abs=1e-9)
        else:
            assert dg == 0.0 and df == 0.0
            assert dtr == pytest.approx(CM.morph_power * 0.1, abs=1e-9)


def test_walled_arena_transition_energy_exact():
    result = _arena_result()
    assert result.ledger.transition == 2 * CM.transition_cost()
    morph_ticks = sum(1 for r in result.records if r.mode == "Morphing")
    assert morph_ticks == 80  # two reconfigurations of 4 s at dt = 0.1
    assert result.ledger.total == pytest.approx(
        result.ledger.ground + result.ledger.flight + result.ledger.transition,
        rel=1e-12,
    )


def test_latency_sweep_overshoot_monotone():
    latencies = (0.0, 0.5, 1.0)
    overshoots = []
    for latency in latencies:
        result = _arena_result(latency)
        assert result.outcome == "Done", (latency, result.reason)
        assert result.descend_overshoot <= SimConfig().landing_tolerance + 1e-9
        overshoots.append(result.descend_overshoot)
    assert overshoots == sorted(overshoots)
    assert overshoots[2] > overshoots[0]


def test_dwa_matches_reference_on_every_tick_of_the_arena_mission(monkeypatch):
    """`simulate --seed 1` on the walled arena, plain and with latency 0.2,
    from the scenario's start yaw 0 and from yaws -2.5, 1.3 and 2.9: on
    every ground tick the batched controller returns exactly the command
    of the one-candidate-at-a-time reference."""
    scenario = load_config_file(ARENA)
    env = load_environment(ARENA)
    dwa_step = sim.dwa_step
    ticks = []

    def checked(pose, current, goal, grid, p):
        cmd = dwa_step(pose, current, goal, grid, p)
        assert cmd == select_like_dwa(pose, current, goal, grid, p), len(ticks)
        ticks.append(cmd)
        return cmd

    monkeypatch.setattr(sim, "dwa_step", checked)
    figures = []
    for latency in (0.0, 0.2):
        for yaw in (0.0, -2.5, 1.3, 2.9):
            res = Mission(
                env, scenario["waypoints"], CM, DWA, SimConfig(actuation_latency=latency),
                seed=1, start=scenario["start"], start_yaw=yaw,
            ).run()
            figures.append((res.outcome, round(res.duration, 1), round(res.ledger.total, 1)))
    # The first of each latency are the figures `simulate` prints.
    assert figures == [
        ("Done", 23.1, 4904.3), ("Done", 24.8, 5060.3),
        ("Done", 23.5, 4904.3), ("Done", 25.5, 5144.3),
        ("Done", 23.5, 5311.1), ("Done", 25.2, 5515.1),
        ("Done", 23.8, 5347.1), ("Done", 29.0, 5851.1),
    ]
    assert len(ticks) > 600


def test_mission_is_deterministic():
    kwargs = dict(start=(1.0, 3.0, 0.0))
    a = Mission(walled_env(), _ARENA_WAYPOINTS, CM, DWA, SimConfig(), **kwargs).run()
    b = Mission(walled_env(), _ARENA_WAYPOINTS, CM, DWA, SimConfig(), **kwargs).run()
    assert a.records == b.records
    assert a.timeline == b.timeline
    assert a.ledger == b.ledger


def test_pose_noise_perturbs_but_completes():
    env = open_env()
    wp = ((8.0, 2.0, 0.0),)
    clean = Mission(env, wp, CM, DWA, SimConfig(), start=(2.0, 2.0, 0.0)).run()
    noisy = Mission(
        env, wp, CM, DWA, SimConfig(pose_noise_sigma=0.02), seed=3, start=(2.0, 2.0, 0.0)
    ).run()
    assert noisy.outcome == "Done"
    assert [r.x for r in noisy.records] != [r.x for r in clean.records]
    again = Mission(
        env, wp, CM, DWA, SimConfig(pose_noise_sigma=0.02), seed=3, start=(2.0, 2.0, 0.0)
    ).run()
    assert again.records == noisy.records


def test_noisy_and_delayed_arena_missions_are_pinned():
    # The seed-1 walled arena as `morphnav simulate` runs it. The noisy run
    # pins the order of the pose-noise draws: each controller call reads
    # the pose estimate, and a flight phase that hands over reads it again.
    # Reading it once per tick instead lands 0.6 s and 467 J later.
    for cfg, records, energy in (
        (SimConfig(pose_noise_sigma=0.03), 239, 5299.0),
        (SimConfig(actuation_latency=0.3), 304, 6253.0),
    ):
        res = Mission(
            walled_env(), _ARENA_WAYPOINTS, CM, DWA, cfg, seed=1, start=(1.0, 3.0, 0.0)
        ).run()
        assert res.outcome == "Done", cfg
        got = (len(res.records), round(res.ledger.total, 1), res.morph_count)
        assert got == (records, energy, 2), cfg


def test_custom_grid_triggers_flight_over_phantom_wall():
    # A grid that claims a wall the 3D world does not have still forces the
    # executor into the air; the mission plans against the grid it is given.
    env = open_env()
    cells = np.zeros((200, 200), dtype=bool)
    cells[:, 50] = True
    grid = OccupancyGrid(0.1, (0.0, 0.0), cells)
    result = Mission(
        env, ((10.0, 2.0, 0.0),), CM, DWA, SimConfig(), start=(2.0, 2.0, 0.0), grid=grid
    ).run()
    assert result.outcome == "Done"
    assert result.morph_count == 2
    assert result.ledger.flight > 0.0


def test_flight_disabled_fails_cleanly():
    env = open_env()
    cells = np.zeros((200, 200), dtype=bool)
    cells[:, 50] = True
    grid = OccupancyGrid(0.1, (0.0, 0.0), cells)
    result = Mission(
        env,
        ((10.0, 2.0, 0.0),),
        CM,
        DWA,
        SimConfig(assume_flyable=False),
        start=(2.0, 2.0, 0.0),
        grid=grid,
    ).run()
    assert result.outcome == "Failed"
    assert "flight disabled" in result.reason


def _spied_mission(monkeypatch, env, waypoints, cfg, start, seed=1):
    """Run a mission, returning its result and the goal cell of every
    cost-to-go field it built, in order."""
    goals = []
    cost_to_go = sim.CostToGo

    def spy(grid, goal_cell):
        goals.append(goal_cell)
        return cost_to_go(grid, goal_cell)

    monkeypatch.setattr(sim, "CostToGo", spy)
    mission = Mission(env, waypoints, CM, DWA, cfg, seed=seed, start=start)
    return mission.run(), goals, [mission.grid.world_to_cell(*wp[:2]) for wp in waypoints]


def _csv_sha256(records):
    return hashlib.sha256(trajectory_csv(records).encode()).hexdigest()


@pytest.mark.parametrize(
    "latency, csv_sha256, ledger, timeline",
    [
        (
            0.0,
            "364309eb553af89948d1556f1a226c2e5159944e8ae6c6cc846b428f6035bc32",
            EnergyLedger(1116.0, 3388.29, 400.0),
            [
                ("GroundNav", 0.0, 4.1000000000000005),
                ("MorphToUas", 4.1000000000000005, 8.200000000000001),
                ("Takeoff", 8.200000000000001, 9.8),
                ("Cruise", 9.8, 12.0),
                ("Descend", 12.0, 13.600000000000001),
                ("MorphToUgv", 13.600000000000001, 17.7),
                ("GroundNav", 17.7, 23.0),
                ("Done", 23.0, 23.1),
            ],
        ),
        (
            0.2,
            "0b34eed0ba6d335a5cc1156ec29921e9b28dd307fd01a607032a44454ee6ae4c",
            EnergyLedger(1044.0, 3867.1499999999996, 400.0),
            [
                ("GroundNav", 0.0, 4.0),
                ("MorphToUas", 4.0, 8.3),
                ("Takeoff", 8.3, 10.100000000000001),
                ("Cruise", 10.100000000000001, 12.4),
                ("Descend", 12.4, 14.4),
                ("MorphToUgv", 14.4, 18.5),
                ("GroundNav", 18.5, 23.400000000000002),
                ("Done", 23.400000000000002, 23.5),
            ],
        ),
    ],
    ids=["latency-0", "latency-0.2"],
)
def test_arena_mission_builds_no_field_for_the_waypoint_across_the_wall(
    monkeypatch, latency, csv_sha256, ledger, timeline
):
    # `simulate --seed 1` on the walled arena. Waypoint 0's field is finite
    # at the robot's cell and infinite at waypoint 1's, so the robot morphs
    # for waypoint 1 without building its field. It lands on waypoint 1,
    # where waypoint 0's field is infinite, so waypoint 2 gets its own field
    # and is driven to. The records are those of a mission that builds all
    # three fields (the golden table's pins of `simulate --seed 1`, with and
    # without `--latency 0.2`).
    scenario = load_config_file(ARENA)
    result, goals, wp_cells = _spied_mission(
        monkeypatch, load_environment(ARENA), scenario["waypoints"],
        SimConfig(actuation_latency=latency), scenario["start"],
    )
    assert goals == [wp_cells[0], wp_cells[2]]
    assert (result.outcome, result.morph_count) == ("Done", 2)
    assert _csv_sha256(result.records) == csv_sha256
    assert result.ledger == ledger
    assert result.timeline == timeline


def test_flight_disabled_arena_mission_fails_after_one_field(monkeypatch):
    # The no-drivable-path branch fails with flight disabled, reached from
    # waypoint 0's field alone; the records are the CLI's flight-disabled pin.
    scenario = load_config_file(ARENA)
    result, goals, wp_cells = _spied_mission(
        monkeypatch, load_environment(ARENA), scenario["waypoints"],
        SimConfig(assume_flyable=False), scenario["start"],
    )
    assert goals == [wp_cells[0]]
    assert (result.outcome, result.reason) == (
        "Failed", "no drivable path to waypoint 1 and flight disabled"
    )
    assert (round(result.duration, 1), round(result.ledger.total, 1), result.morph_count) == (
        4.2, 492.0, 0
    )
    assert _csv_sha256(result.records) == (
        "dbcd9d5cc70c572ae8f0fa8ff5e9d0867358fc4de98b69700b2c67aac4014647"
    )


def test_a_drivable_next_waypoint_gets_its_own_field(monkeypatch):
    # On the open field every free cell is one component: the last field is
    # finite at the next waypoint's cell too, so each waypoint's field is
    # built and driven to, with no morph.
    result, goals, wp_cells = _spied_mission(
        monkeypatch, load_environment(OPEN_FIELD), ((5.0, 2.0, 0.0), (5.0, 5.0, 0.0)),
        SimConfig(), (2.0, 2.0, 0.0),
    )
    assert goals == wp_cells
    assert (result.outcome, result.morph_count, result.waypoints_reached) == ("Done", 0, 2)
    assert [p for p, _, _ in result.timeline] == ["GroundNav", "Done"]


def test_waypoint_inside_obstacle_fails():
    result = Mission(
        walled_env(), ((5.0, 3.0, 0.5),), CM, DWA, SimConfig(), start=(1.0, 3.0, 0.0)
    ).run()
    assert result.outcome == "Failed"
    assert "waypoint 0" in result.reason
    assert len(result.records) >= 2


@pytest.mark.parametrize(
    "start, waypoints, reason, collided",
    [
        ((5.0, 3.0, 0.0), _ARENA_WAYPOINTS, "start position is inside an obstacle", True),
        (
            (1.0, 3.0, 0.0),
            ((4.0, 3.0, 0.0), (5.0, 3.0, 0.5)),
            "waypoint 1 is inside an obstacle",
            False,
        ),
    ],
)
def test_preflight_failure_is_recorded_before_the_first_tick(start, waypoints, reason, collided):
    # A start or waypoint inside the wall fails the mission unticked: the
    # row at t = 0 repeats at dt, both flagged with the start's verdict.
    mission = Mission(walled_env(), waypoints, CM, DWA, SimConfig(), start=start)
    result = mission.run()
    dt = DWA.dt
    assert (result.outcome, result.reason) == ("Failed", reason)
    assert [(r.t, r.phase, r.collided) for r in result.records] == [
        (0.0, "GroundNav", collided),
        (dt, "Failed", collided),
    ]
    assert result.timeline == [("GroundNav", 0.0, 0.0), ("Failed", 0.0, dt)]
    assert mission.run() == result


def test_start_inside_inflated_region_fails():
    # Collision-free in 3D but inside the inflated driving costmap.
    result = Mission(
        walled_env(), ((1.0, 3.0, 0.0),), CM, DWA, SimConfig(), start=(4.7, 3.0, 0.0)
    ).run()
    assert result.outcome == "Failed"
    assert "inflated" in result.reason


def test_time_limit_fails_mission():
    # step() fails the mission at the first tick past max_mission_time;
    # the records are the start and one per tick.
    for max_time, dt, n_records in ((1.0, 0.1, 12), (0.7, 0.05, 15), (1e-3, 0.1, 2)):
        result = Mission(
            walled_env(),
            _ARENA_WAYPOINTS,
            CM,
            DwaParams(dt=dt),
            SimConfig(max_mission_time=max_time),
            start=(1.0, 3.0, 0.0),
        ).run()
        assert result.outcome == "Failed"
        assert "time limit" in result.reason
        assert result.duration <= max_time + dt + 1e-9
        assert len(result.records) == n_records, (max_time, dt)
        assert result.records[-1].t == result.duration == (n_records - 1) * dt


def test_delay_line_fills_as_ticks_run():
    # 1e5 s of latency is 10**6 ticks. The line holds only the commands of
    # the ticks run so far, so the time limit ends the mission at once, and
    # no issued command reaches the vehicle.
    mission = Mission(
        open_env(), ((8.0, 2.0, 0.0),), CM, DWA,
        SimConfig(actuation_latency=1e5, max_mission_time=1.0), start=(2.0, 2.0, 0.0),
    )
    while mission.phase is not MissionPhase.FAILED:
        mission.step()
        assert len(mission._queue) <= mission.tick
    result = mission.run()
    assert (result.outcome, result.reason) == ("Failed", "mission time limit exceeded")
    assert all(r.v == 0.0 for r in result.records)


def test_run_runs_a_mission_once():
    # A second run() steps nothing and appends nothing, so both results
    # are equal and the first is left as it was.
    mission = Mission(
        open_env(), ((4.0, 2.0, 0.0),), CM, DWA, SimConfig(), start=(2.0, 2.0, 0.0)
    )
    first = mission.run()
    timeline = [("GroundNav", 0.0, 3.1), ("Done", 3.1, 3.2)]
    assert first.timeline == timeline
    assert mission.run() == first
    assert first.timeline == timeline


def test_phase_machine_terminal_states():
    assert LEGAL_PHASE_TRANSITIONS[MissionPhase.DONE] == frozenset()
    assert LEGAL_PHASE_TRANSITIONS[MissionPhase.FAILED] == frozenset()
    assert MissionPhase.DONE not in LEGAL_PHASE_TRANSITIONS[MissionPhase.CRUISE]


# -- trajectory export ---------------------------------------------------------------


def test_trajectory_csv_round_trip():
    result = _arena_result()
    csv = trajectory_csv(result.records)
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "t,x,y,z,yaw,mode,phase,v,omega,"
        "e_ground,e_flight,e_transition,e_total,collided"
    )
    assert len(lines) == len(result.records) + 1
    probe = lines[len(lines) // 2].split(",")
    record = result.records[len(lines) // 2 - 1]
    assert float(probe[0]) == record.t  # repr floats survive the round trip
    assert float(probe[3]) == record.z
    assert probe[5] == record.mode and probe[6] == record.phase
    assert probe[13] in ("0", "1")
    assert csv.endswith("\n")
