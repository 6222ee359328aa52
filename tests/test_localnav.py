"""Local controller: dynamic window, rollouts, scoring, command selection."""

import math

import numpy as np
import pytest

from morphnav.costmodel import config_from_dict
from morphnav.env import OccupancyGrid, load_environment, project_to_grid
from morphnav.errors import ConfigError
from morphnav.localnav import (
    DwaParams,
    VelocityCommand,
    _rollouts,
    _samples,
    _saturated_rows,
    _scores,
    dwa_step,
    dynamic_window,
)
from morphnav.rng import SplitMix64
from reference import ARENA, ref_rollout, ref_score, select_like_dwa, uniform

P = DwaParams()


def _rollout(pose, cmd, p):
    """Poses of one command's rollout: the (v, omega) window of size one."""
    xy, yaws = _rollouts(pose, [cmd.v], [cmd.omega], p)
    return list(zip(*xy[:, :, 0, 0].T.tolist(), yaws[:, 0].tolist()))


def _score(traj, goal, grid, p):
    """dwa_step's score of one rollout given as poses; None if it collides."""
    xy = np.array([[[[x]], [[y]]] for x, y, _ in traj])
    score = float(_scores(xy, np.array([traj[-1][2]]), goal, grid, p)[0, 0])
    return None if score == -math.inf else score


def _empty_grid(n=60, res=0.1):
    return OccupancyGrid(res, (0.0, 0.0), np.zeros((n, n), dtype=bool))


def test_default_parameters():
    assert (P.v_max, P.omega_max) == (1.0, 1.5)
    assert (P.accel_v, P.accel_omega) == (1.0, 2.0)
    assert (P.dt, P.horizon) == (0.1, 1.0)
    assert (P.samples_v, P.samples_omega) == (11, 21)
    assert (P.w_heading, P.w_clearance, P.w_velocity) == (0.5, 0.3, 0.2)
    assert P.d_sat == 0.5
    # Against controller freeze: outside d_sat the clearance term saturates,
    # so a stopped robot more than d_sat from the nearest obstacle cannot
    # out-score a moving one on clearance alone.
    assert P.d_sat < P.v_max * P.horizon


def test_weights_normalize_to_one():
    p = DwaParams(w_heading=2.0, w_clearance=1.0, w_velocity=1.0)
    assert (p.w_heading, p.w_clearance, p.w_velocity) == (0.5, 0.25, 0.25)


def test_parameter_validation():
    for kwargs in (
        {"v_max": 0.0},
        {"dt": -0.1},
        {"horizon": 0.0},
        {"d_sat": 0.0},
        {"samples_v": 0},
        {"w_heading": -0.5},
        {"w_heading": 0.0, "w_clearance": 0.0, "w_velocity": 0.0},
        # Every float is finite, and so is the horizon in ticks.
        {"v_max": math.nan},
        {"d_sat": math.inf},
        {"w_velocity": math.nan},
        {"horizon": 1e308},
        # The rollout window is capped; construction refuses it unbuilt.
        {"horizon": 1e5},
        {"samples_v": 10**6},
    ):
        with pytest.raises(ConfigError):
            DwaParams(**kwargs)
    # A 100 s horizon at the default sampling is 231,231 poses, under the cap.
    assert DwaParams(horizon=100.0).horizon == 100.0


# -- dynamic window ---------------------------------------------------------


def test_window_around_cruising_command():
    assert dynamic_window(VelocityCommand(0.5, 0.0), P) == (0.4, 0.6, -0.2, 0.2)


def test_window_clamps_to_limits():
    v_lo, v_hi, w_lo, w_hi = dynamic_window(VelocityCommand(1.0, 1.5), P)
    assert v_hi == 1.0 and w_hi == 1.5
    assert v_lo == pytest.approx(0.9) and w_lo == pytest.approx(1.3)
    v_lo, _, w_lo, w_hi = dynamic_window(VelocityCommand(0.0, -1.5), P)
    assert v_lo == 0.0  # no reverse driving
    assert w_lo == -1.5 and w_hi == pytest.approx(-1.3)


@pytest.mark.parametrize(
    "current, window",
    [
        (VelocityCommand(-1.0, 0.0), (0.0, 0.0, -0.2, 0.2)),
        (VelocityCommand(5.0, 0.0), (1.0, 1.0, -0.2, 0.2)),
        (VelocityCommand(0.0, 5.0), (0.0, 0.1, 1.5, 1.5)),
        (VelocityCommand(math.inf, 0.0), (1.0, 1.0, -0.2, 0.2)),
        (VelocityCommand(1.0, math.inf), (0.9, 1.0, 1.5, 1.5)),
    ],
)
def test_window_beyond_the_limits_is_the_nearest_limit(current, window):
    # A command beyond a limit gets a one-value window at that limit, never
    # an inverted one that would sample reverse or too-fast commands.
    assert dynamic_window(current, P) == window
    cmd = dwa_step((2.0, 2.0, 0.0), current, (5.0, 3.0), _empty_grid(), P)
    assert 0.0 <= cmd.v <= P.v_max and -P.omega_max <= cmd.omega <= P.omega_max


# -- rollout -----------------------------------------------------------------


def test_rollout_pose_count_and_straight_line():
    poses = _rollout((2.0, 3.0, 0.0), VelocityCommand(1.0, 0.0), P)
    assert len(poses) == 11  # ceil(horizon / dt) + 1, start included
    assert poses[0] == (2.0, 3.0, 0.0)
    x, y, yaw = poses[-1]
    assert abs(x - 3.0) < 1e-12 and y == 3.0 and yaw == 0.0


def test_rollout_zero_command_stays_put():
    poses = _rollout((1.0, 1.0, 0.7), VelocityCommand(0.0, 0.0), P)
    assert all(pose == (1.0, 1.0, 0.7) for pose in poses)


def test_rollout_arc_first_order_accuracy():
    # Euler integration of (v=1, w=1): yaw accumulates exactly, position
    # tracks the unit circle with O(dt) error over one horizon.
    poses = _rollout((0.0, 0.0, 0.0), VelocityCommand(1.0, 1.0), P)
    x, y, yaw = poses[-1]
    assert yaw == pytest.approx(1.0, abs=1e-12)
    exact = (math.sin(1.0), 1.0 - math.cos(1.0))
    err = math.hypot(x - exact[0], y - exact[1])
    assert 0.0 < err < 0.06


def test_rollout_turns_positive_omega_left():
    poses = _rollout((0.0, 0.0, 0.0), VelocityCommand(1.0, 0.5), P)
    assert poses[-1][1] > 0.0
    poses = _rollout((0.0, 0.0, 0.0), VelocityCommand(1.0, -0.5), P)
    assert poses[-1][1] < 0.0


# -- scoring ------------------------------------------------------------------


def test_perfect_trajectory_scores_one():
    grid = _empty_grid()
    traj = _rollout((2.0, 2.0, 0.0), VelocityCommand(1.0, 0.0), P)
    score = _score(traj, (10.0, 2.0), grid, P)
    assert score == pytest.approx(1.0, abs=1e-12)


def test_score_rejects_colliding_trajectory():
    cells = np.zeros((60, 60), dtype=bool)
    cells[20, 25:] = True  # wall across the rollout's lane
    grid = OccupancyGrid(0.1, (0.0, 0.0), cells)
    traj = _rollout((2.0, 2.05, 0.0), VelocityCommand(1.0, 0.0), P)
    assert _score(traj, (10.0, 2.05), grid, P) is None


def test_score_components_bounded():
    grid = _empty_grid()
    rng = SplitMix64(31)
    for _ in range(100):
        pose = (uniform(rng, 1.0, 5.0), uniform(rng, 1.0, 5.0), uniform(rng, -3.0, 3.0))
        cmd = VelocityCommand(uniform(rng, 0.0, 1.0), uniform(rng, -1.5, 1.5))
        goal = (uniform(rng, 0.0, 6.0), uniform(rng, 0.0, 6.0))
        score = _score(_rollout(pose, cmd, P), goal, grid, P)
        assert 0.0 <= score <= 1.0 + 1e-12


def test_score_prefers_clearance_inside_saturation_band():
    cells = np.zeros((60, 60), dtype=bool)
    cells[30, 30] = True
    grid = OccupancyGrid(0.1, (0.0, 0.0), cells)
    goal = (1000.0, 3.05)  # far ahead: heading term is ~equal for both

    def lane(y):
        # Straight pass directly alongside the occupied cell's column.
        return [(2.55 + 0.1 * i, y, 0.0) for i in range(10)]

    s_near = _score(lane(3.25), goal, grid, P)  # 0.2 m off the cell
    s_far = _score(lane(3.45), goal, grid, P)  # 0.4 m off
    assert s_far > s_near + 0.05
    # Beyond d_sat more clearance stops mattering.
    very_far = lane(4.45)
    even_farther = lane(5.05)
    sa = _score(very_far, goal, grid, P)
    sb = _score(even_farther, goal, grid, P)
    assert sa == pytest.approx(sb, abs=1e-3)


def test_score_velocity_term_rewards_speed():
    grid = _empty_grid()
    goal = (10.0, 2.0)
    fast = _score(_rollout((2.0, 2.0, 0.0), VelocityCommand(1.0, 0.0), P), goal, grid, P)
    slow = _score(_rollout((2.0, 2.0, 0.0), VelocityCommand(0.4, 0.0), P), goal, grid, P)
    assert fast > slow
    assert fast - slow == pytest.approx(P.w_velocity * 0.6, abs=1e-9)


# -- command selection -----------------------------------------------------------


def test_dwa_drives_straight_at_goal():
    cmd = dwa_step((2.0, 2.0, 0.0), VelocityCommand(1.0, 0.0), (5.0, 2.0), _empty_grid(), P)
    assert cmd == VelocityCommand(1.0, 0.0)


def test_dwa_turns_toward_offset_goal():
    left = dwa_step((2.0, 2.0, 0.0), VelocityCommand(0.5, 0.0), (2.0, 5.0), _empty_grid(), P)
    right = dwa_step((2.0, 2.0, 0.0), VelocityCommand(0.5, 0.0), (2.0, -1.0), _empty_grid(), P)
    assert left.omega > 0.0
    assert right.omega < 0.0


def test_dwa_recovery_when_fully_blocked():
    cells = np.ones((20, 20), dtype=bool)
    grid = OccupancyGrid(0.1, (0.0, 0.0), cells)
    cmd = dwa_step((1.0, 1.0, 0.0), VelocityCommand(0.5, 0.0), (1.9, 1.0), grid, P)
    assert cmd == VelocityCommand(0.0, P.omega_max / 2.0)


def test_dwa_is_deterministic():
    grid = _empty_grid()
    args = ((2.0, 2.0, 0.3), VelocityCommand(0.4, 0.2), (5.0, 4.0), grid, P)
    assert dwa_step(*args) == dwa_step(*args)


def _random_case(rng, i):
    """Random grid, pose, current command, goal and parameters for case i.
    The residues of i pick the edge cases: a fully blocked grid
    (i % 10 == 1), an empty one (i % 4 == 0), a pose on the outer boundary
    (i % 7 == 3) or anywhere, off-grid included (i % 7 == 5), and
    non-default parameters (i % 4 == 1)."""
    n_rows, n_cols = 4 + rng.randint(27), 4 + rng.randint(27)
    density = 1.0 if i % 10 == 1 else (0.0, 0.01, 0.03, 0.1)[i % 4]
    cells = np.array(
        [[rng.random() < density for _ in range(n_cols)] for _ in range(n_rows)]
    )
    res = uniform(rng, 0.05, 0.4)
    grid = OccupancyGrid(res, (uniform(rng, -1.0, 1.0), uniform(rng, -1.0, 1.0)), cells)
    w, h = n_cols * res, n_rows * res
    ox, oy = grid.origin
    free = np.argwhere(~cells)
    if i % 7 == 3:
        # On the outer boundary or within its 1e-9 snap, which maps inward.
        x, y = ox + w + uniform(rng, 0.0, 9e-10), oy + uniform(rng, 0.0, h)
    elif i % 7 == 5 or len(free) == 0:
        x, y = ox + uniform(rng, -0.5, w + 0.5), oy + uniform(rng, -0.5, h + 0.5)
    else:
        row, col = free[rng.randint(len(free))]
        x, y = grid.cell_center(int(row), int(col))
    pose = (x, y, uniform(rng, -math.pi, math.pi))
    current = VelocityCommand(uniform(rng, 0.0, 1.0), uniform(rng, -1.5, 1.5))
    goal = (ox + uniform(rng, -1.0, w + 1.0), oy + uniform(rng, -1.0, h + 1.0))
    p = P
    if i % 4 == 1:
        p = DwaParams(
            samples_v=1 + rng.randint(4) * (i % 8 != 1),
            samples_omega=1 + rng.randint(9) * (i % 8 != 5),
            horizon=(0.05, 0.35, 1.0)[rng.randint(3)],  # 0.05 < dt
            d_sat=uniform(rng, 0.1, 1.0),
            # Without the heading term, candidates of one speed tie on open
            # ground, so the |omega| tie-break decides.
            w_heading=(0.0, 0.5)[rng.randint(2)],
        )
    return grid, pose, current, goal, p


def test_dwa_selection_matches_reference_argmax():
    """The batched controller picks exactly the scalar reference's command,
    and its rollout and score of one candidate match the reference, on
    empty, fully blocked and random grids, off-grid and boundary poses,
    single-sample windows and a horizon shorter than dt. Skipping the
    window's saturated rows changes no score (see _proven_rows)."""
    rng = SplitMix64(77)
    proven = []
    for i in range(300):
        grid, pose, current, goal, p = _random_case(rng, i)
        assert dwa_step(pose, current, goal, grid, p) == select_like_dwa(
            pose, current, goal, grid, p
        ), i
        proven.append(_proven_rows(pose, current, goal, grid, p))
        cmd = VelocityCommand(uniform(rng, 0.0, 1.0), uniform(rng, -1.5, 1.5))
        traj = _rollout(pose, cmd, p)
        assert traj == ref_rollout(pose, cmd, p)
        assert _score(traj, goal, grid, p) == ref_score(traj, goal, grid, p)
    assert proven.count(0) > 0 and max(proven) > 1


def _arena_grid():
    return project_to_grid(load_environment(ARENA))


def _window_scores(pose, current, goal, grid, p):
    """_scores over dwa_step's window, and the reference's exact score of
    each candidate, -inf where it collides."""
    v_lo, v_hi, w_lo, w_hi = dynamic_window(current, p)
    vs, ws = _samples(v_lo, v_hi, p.samples_v), _samples(w_lo, w_hi, p.samples_omega)
    xy, yaws = _rollouts(pose, vs, ws, p)
    got = _scores(xy, yaws[-1], goal, grid, p)
    exact = [
        [ref_score(ref_rollout(pose, VelocityCommand(v, w), p), goal, grid, p) for w in ws]
        for v in vs
    ]
    return got, np.array([[-math.inf if e is None else e for e in row] for row in exact])


@pytest.mark.parametrize(
    "pose, current, goal",
    [
        # Goal dead ahead: +omega and -omega tie exactly on heading.
        ((2.0, 3.0, 0.0), VelocityCommand(0.5, 0.0), (4.0, 3.0)),
        ((2.0, 3.0, 0.0), VelocityCommand(0.0, 0.0), (3.0, 3.0)),
        # Dead ahead, where np.arctan2 puts one tied candidate an ulp short
        # of the best score.
        ((2.0, 1.5, math.pi / 2.0), VelocityCommand(1.0, 0.0), (2.0, 2.0)),
        # Goal dead behind: the bearing is pi, at the wrap.
        ((2.0, 3.0, 0.0), VelocityCommand(0.0, 0.0), (0.5, 3.0)),
        ((3.0, 3.0, math.pi), VelocityCommand(0.3, 0.0), (4.0, 3.0)),
        ((3.0, 3.0, -math.pi), VelocityCommand(0.0, 0.2), (4.0, 3.0)),
        # Goal at the pose: a standing candidate's bearing is atan2(0, 0).
        ((2.0, 3.0, 0.0), VelocityCommand(0.0, 0.0), (2.0, 3.0)),
        ((2.0, 3.0, 1.0), VelocityCommand(0.1, -0.1), (2.0, 3.0)),
        # Poses on cell edges, beside the inflated wall and on the outer
        # boundary.
        ((2.5, 3.0, 0.0), VelocityCommand(0.2, 0.0), (6.0, 3.0)),
        ((4.2, 2.9, 0.0), VelocityCommand(0.4, 0.0), (6.0, 3.0)),
        ((0.0, 0.0, math.pi / 4.0), VelocityCommand(0.0, 0.0), (2.0, 2.0)),
        ((12.0, 6.0, -3.0 * math.pi / 4.0), VelocityCommand(0.0, 0.0), (10.0, 4.0)),
    ],
)
def test_exact_heading_ties(pose, current, goal):
    """Every candidate's score, and so the pick, is the reference's; with
    heading alone, every speed of one omega ties too."""
    for p in (P, DwaParams(w_clearance=0.0, w_velocity=0.0)):
        for grid in (_arena_grid(), _empty_grid(n=130)):
            assert dwa_step(pose, current, goal, grid, p) == select_like_dwa(
                pose, current, goal, grid, p
            )
            got, exact = _window_scores(pose, current, goal, grid, p)
            assert np.array_equal(got, exact)


# -- saturated rows ----------------------------------------------------------------


def _proven_rows(pose, current, goal, grid, p):
    """dwa_step's count of saturated leading rows for this window, after
    checking that every pose of those rows reads at least d_sat and that
    _scores skipping them equals _scores looking up every pose, -inf
    included."""
    v_lo, v_hi, w_lo, w_hi = dynamic_window(current, p)
    vs, ws = _samples(v_lo, v_hi, p.samples_v), _samples(w_lo, w_hi, p.samples_omega)
    xy, yaws = _rollouts(pose, vs, ws, p)
    k = _saturated_rows(pose, vs, xy, grid, p)
    assert 0 <= k <= len(xy)
    if k:
        assert grid.clearances(xy[:k, 0], xy[:k, 1]).min() >= p.d_sat
    full = _scores(xy, yaws[-1], goal, grid, p)
    assert np.array_equal(_scores(xy, yaws[-1], goal, grid, p, k), full)
    return k


def _sweep(start, heading, metres, grid, goal, p=P, speed=1.0):
    """_proven_rows at 1 mm steps from `start` along unit vector `heading`,
    facing it at `speed`; the set of row counts seen."""
    yaw = math.atan2(heading[1], heading[0])
    seen = set()
    for i in range(round(metres * 1000.0) + 1):
        pose = (start[0] + heading[0] * i * 1e-3, start[1] + heading[1] * i * 1e-3, yaw)
        seen.add(_proven_rows(pose, VelocityCommand(speed, 0.0), goal, grid, p))
    return seen


def test_saturated_rows_are_exact_at_the_margin():
    """Stepping a millimetre at a time toward the arena's inflated wall and
    toward the grid's edge, in the arena and on an empty grid, the count of
    skipped rows takes every value from 0 (the whole window looked up) to
    steps + 1 (none), and each window scores as with every pose looked up."""
    every = set(range(int(math.ceil(P.horizon / P.dt)) + 2))
    arena = _arena_grid()
    assert _sweep((2.8, 3.0), (1.0, 0.0), 1.9, arena, (6.0, 3.0)) == every
    assert _sweep((2.8, 2.9), (0.6, 0.8), 2.0, arena, (6.0, 3.0)) == every
    # East of the wall the bottom edge binds, and its last step lies on it.
    assert _sweep((9.0, 1.3), (0.0, -1.0), 1.3, arena, (9.0, -1.0)) == every
    assert _sweep((3.0, 1.3), (0.0, -1.0), 1.3, _empty_grid(), (3.0, -1.0)) == every
    # With d_sat off the 0.1 m lattice and steps shorter than a cell, a
    # pose's cell centre can lie nearer the wall than the start's by more
    # than the pose does: the res * sqrt(2) term keeps those rows at d_sat.
    assert 0 in _sweep((2.8, 3.0), (1.0, 0.0), 1.9, arena, (6.0, 3.0), DwaParams(d_sat=0.43), 0.65)


@pytest.mark.parametrize(
    "pose, current",
    [
        # A nan start yaw makes every pose after the start non-finite, a nan
        # or infinite start coordinate every pose; such poses read 0. (The
        # window itself is always finite: see the limits test above.)
        ((2.0, 3.0, math.nan), VelocityCommand(1.0, 0.0)),
        ((math.nan, 3.0, 0.0), VelocityCommand(1.0, 0.0)),
        ((2.0, math.inf, 0.0), VelocityCommand(1.0, 0.0)),
    ],
)
def test_non_finite_windows_prove_no_row(pose, current):
    """In open space, where a finite window proves every row, a window with
    non-finite poses proves none: every rollout collides and dwa_step
    returns the recovery command, as with every pose looked up."""
    grid = _arena_grid()
    assert _proven_rows(pose, current, (6.0, 3.0), grid, P) == 0
    assert dwa_step(pose, current, (6.0, 3.0), grid, P) == VelocityCommand(0.0, P.omega_max / 2.0)
    finite = (2.0, 3.0, 0.0), VelocityCommand(1.0, 0.0)
    assert _proven_rows(*finite, (6.0, 3.0), grid, P) == int(math.ceil(P.horizon / P.dt)) + 1


def test_saturated_windows_skip_the_raster(monkeypatch):
    """Two metres from the wall a full-speed window reads no pose from the
    raster; beside the inflated wall it reads at least one row of them."""
    grid = _arena_grid()
    looked = []
    lookup = grid.clearances

    def spy(x, y):
        looked.append(np.size(x))
        return lookup(x, y)

    monkeypatch.setattr(grid, "clearances", spy)
    window = P.samples_v * P.samples_omega
    for pose, current, goal, reads in (
        ((2.0, 3.0, 0.0), VelocityCommand(1.0, 0.0), (6.0, 3.0), 0),
        ((4.2, 2.9, 0.0), VelocityCommand(0.4, 0.0), (6.0, 3.0), window),
    ):
        looked.clear()
        cmd = dwa_step(pose, current, goal, grid, P)
        assert cmd == select_like_dwa(pose, current, goal, grid, P)
        assert sum(looked) >= reads if reads else looked == []


# -- config parsing ----------------------------------------------------------------


def test_dwa_params_from_dict():
    p = config_from_dict(DwaParams, {"v_max": 0.8, "samples_v": 7}, "dwa")
    assert p.v_max == 0.8 and p.samples_v == 7
    assert p.omega_max == 1.5
    with pytest.raises(ConfigError):
        config_from_dict(DwaParams, {"warp_speed": 9.0}, "dwa")
