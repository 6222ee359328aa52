"""End-to-end acceptance gate.

Each test checks one releasable guarantee at a pinned tolerance and prints a
single PASS or FAIL line so a full run reads as a checklist:

    pytest tests/test_acceptance.py -v -s

The checks are intentionally heavyweight (hundreds of roadmaps, subprocess
runs of the CLI) and together take on the order of a minute.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import ndimage

from morphnav.env import OccupancyGrid, load_environment, project_to_grid
from morphnav.errors import NoPathError
from morphnav.localnav import DwaParams
from morphnav.planner import CostToGo, astar_multimodal, dijkstra_all_costs, dijkstra_oracle
from morphnav.rng import SplitMix64
from morphnav.roadmap import (
    NODE_MODES, NodeMode, PrmParams, build_roadmap, heuristic_costs, insert_query_nodes
)
from morphnav.sim import Mission, SimConfig
from reference import ARENA, CM, OPEN_FIELD, open_env, run_cli

REL = 1e-9


class _verdict:
    """Context manager that prints one PASS/FAIL line per criterion."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.label}: {status}")
        return False


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


# -- 1: route costs match an exhaustive reference search ---------------------------


def test_route_costs_match_exhaustive_search():
    with _verdict(
        "A* equals Dijkstra on 100 roadmaps x 10 queries (rel 1e-9, under 60 s)"
    ):
        env = open_env()
        t0 = time.perf_counter()
        n_solvable = 0
        for seed in range(1, 101):
            rm = build_roadmap(
                env, CM, PrmParams(seed=seed, n_ground=200, n_air=200, radius=2.0)
            )
            rng = SplitMix64(10_000 + seed)
            for _ in range(10):
                a = rng.randint(len(rm.positions))
                b = rng.randint(len(rm.positions))
                if a == b:
                    continue
                try:
                    fast = astar_multimodal(rm, a, b, CM)
                except NoPathError:
                    fast = None
                try:
                    ref = dijkstra_oracle(rm, a, b, CM)
                except NoPathError:
                    ref = None
                assert (fast is None) == (ref is None)
                if fast is None:
                    continue
                n_solvable += 1
                assert _close(fast.total_cost, ref.total_cost)
                assert fast.expanded <= ref.expanded
        elapsed = time.perf_counter() - t0
        assert n_solvable >= 500
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


# -- 2: heuristic is admissible and consistent --------------------------------------


def test_heuristic_admissible_and_consistent():
    with _verdict(
        "1000 node/goal pairs: zero admissibility or edge-consistency violations"
    ):
        env = open_env()
        pairs = 0
        for seed in range(1, 21):
            rm = build_roadmap(
                env, CM, PrmParams(seed=seed, n_ground=200, n_air=200, radius=2.0)
            )
            rng = SplitMix64(20_000 + seed)
            n = len(rm.positions)
            for _ in range(5):
                g = rng.randint(n)
                h = heuristic_costs(CM, rm.positions, rm.positions[g])
                truth = dijkstra_all_costs(rm, g)
                for _ in range(10):
                    a = rng.randint(n)
                    while a == g:
                        a = rng.randint(n)
                    if math.isfinite(truth[a]):
                        assert h[a] <= truth[a] + REL * max(1.0, truth[a])
                    pairs += 1
                # consistency across every stored edge, both orientations
                ha, hb = h[rm.a], h[rm.b]
                slack = REL * np.maximum(1.0, rm.cost)
                assert (ha <= rm.cost + hb + slack).all()
                assert (hb <= rm.cost + ha + slack).all()
        assert pairs == 1000


# -- 3: the wall forces exactly two mode transitions --------------------------------


def test_wall_forces_exactly_two_transitions():
    with _verdict(
        "walled arena: drive-only blocked, plan flies the wall with 2 "
        "transitions, mission lands within 0.2 m (under 10 s)"
    ):
        t0 = time.perf_counter()
        env = load_environment(ARENA)
        raw = json.loads(Path(ARENA).read_text())
        start = tuple(raw["start"])
        goal = tuple(raw["waypoints"][-1])

        # a purely ground-bound planner cannot cross the wall: the start
        # cell is free, yet its cost to the goal is infinite
        grid = project_to_grid(env)
        start_cell = grid.world_to_cell(*start[:2])
        assert not grid.occupied(*start_cell)
        field = CostToGo(grid, grid.world_to_cell(*goal[:2]))
        assert math.isinf(field.cost(*start_cell))

        params = PrmParams(
            seed=1, n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4
        )
        rm = build_roadmap(env, CM, params)
        rm, sid, gid = insert_query_nodes(rm, start, goal, env, CM, params)
        plan = astar_multimodal(rm, sid, gid, CM)
        assert plan.n_transitions == 2
        # every airborne node on the route clears the wall top plus inflation
        wall_top = 1.0 + 0.35
        for nid in plan.node_ids:
            if NODE_MODES[rm.mode[nid]] is NodeMode.AERIAL:
                assert rm.positions[nid, 2] > wall_top

        res = Mission(
            env, [tuple(w) for w in raw["waypoints"]], CM, DwaParams(),
            SimConfig(), seed=1, start=start,
        ).run()
        assert res.outcome == "Done"
        assert res.morph_count == 2
        final = (res.final_state.x, res.final_state.y, res.final_state.z)
        assert math.dist(final, goal) <= 0.2
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


# -- 4: executed energy tracks the planned cost -------------------------------------


def test_executed_energy_tracks_plan():
    with _verdict(
        "executed energy within 25% of plan; transition ledger exactly 2 "
        "morph costs; totals consistent to 1e-9"
    ):
        env = load_environment(ARENA)
        raw = json.loads(Path(ARENA).read_text())
        start = tuple(raw["start"])
        goal = tuple(raw["waypoints"][-1])
        params = PrmParams(
            seed=1, n_ground=300, n_air=300, radius=2.0, min_air_clearance=1.4
        )
        rm = build_roadmap(env, CM, params)
        rm, sid, gid = insert_query_nodes(rm, start, goal, env, CM, params)
        plan = astar_multimodal(rm, sid, gid, CM)
        assert _close(
            plan.total_cost,
            plan.cost_ground + plan.cost_flight + plan.cost_transition,
        )

        res = Mission(
            env, [tuple(w) for w in raw["waypoints"]], CM, DwaParams(),
            SimConfig(), seed=1, start=start,
        ).run()
        assert res.outcome == "Done"
        led = res.ledger
        for part in (led.ground, led.flight, led.transition):
            assert part >= 0.0
        assert _close(led.total, led.ground + led.flight + led.transition)
        assert led.transition == 2 * CM.transition_cost()
        ratio = led.total / plan.total_cost
        assert ratio <= 1.25, f"executed/planned = {ratio:.3f}"


# -- 5: CLI outputs are byte-for-byte reproducible ----------------------------------


def test_cli_outputs_reproducible(tmp_path):
    with _verdict("roadmap, plan, and simulate reruns are byte-identical"):
        jobs = [
            ("roadmap", ("roadmap.json", "roadmap.svg")),
            ("plan", ("plan.json", "plan_edges.csv", "plan.svg")),
            ("simulate", ("trajectory.csv", "mission.json", "mission.svg")),
        ]
        for command, files in jobs:
            outs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{command}-{attempt}"
                proc = run_cli(command, "--env", ARENA, "--out", out)
                assert proc.returncode == 0, proc.stderr
                outs.append(out)
            for name in files:
                first = (outs[0] / name).read_bytes()
                second = (outs[1] / name).read_bytes()
                assert first == second, f"{command}/{name} differs between runs"


# -- 6: actuation latency degrades the landing, monotonically -----------------------


def test_actuation_latency_degrades_landing():
    with _verdict(
        "descend overshoot non-decreasing over latency 0/0.5/1.0 and worse at 1.0"
    ):
        env = load_environment(ARENA)
        raw = json.loads(Path(ARENA).read_text())
        waypoints = [tuple(w) for w in raw["waypoints"]]
        overshoots = []
        for latency in (0.0, 0.5, 1.0):
            res = Mission(
                env, waypoints, CM, DwaParams(),
                SimConfig(actuation_latency=latency), seed=1,
                start=tuple(raw["start"]),
            ).run()
            assert res.outcome == "Done"
            overshoots.append(res.descend_overshoot)
        assert overshoots == sorted(overshoots)
        assert overshoots[2] > overshoots[0]


# -- 7: grid cost-to-go verdict matches flood fill ---------------------------------


def test_grid_verdict_matches_flood_fill():
    with _verdict(
        "200 random grids: reachability verdict matches flood fill, paths valid"
    ):
        eight = np.ones((3, 3), dtype=bool)
        for i in range(200):
            gen = np.random.default_rng(900 + i)
            rows = int(gen.integers(20, 101))
            cols = int(gen.integers(20, 101))
            cells = gen.random((rows, cols)) < 0.3
            free = np.argwhere(~cells)
            if len(free) < 2:
                continue
            start = tuple(free[int(gen.integers(len(free)))])
            goal = tuple(free[int(gen.integers(len(free)))])
            grid = OccupancyGrid(0.1, (0.0, 0.0), cells)

            labels, _ = ndimage.label(~cells, structure=eight)
            connected = labels[start] == labels[goal]

            field = CostToGo(grid, goal)
            assert math.isfinite(field.cost(*start)) == connected
            if not connected:
                continue
            steps = field.descend(start)
            assert steps[0] == start and steps[-1] == goal
            length = 0.0
            for (r0, c0), (r1, c1) in zip(steps, steps[1:]):
                dr, dc = abs(r1 - r0), abs(c1 - c0)
                assert max(dr, dc) == 1
                assert not cells[r1, c1]
                length += grid.resolution * (math.sqrt(2.0) if dr and dc else 1.0)
            assert not cells[steps[0]]
            assert _close(field.cost(*start), length)


# -- 8: open-field goals are reached without contact --------------------------------


def test_open_field_goals_reached_cleanly():
    with _verdict(
        "5 open-field goals within 10 m reached inside 60 s with zero contact flags"
    ):
        env = load_environment(OPEN_FIELD)
        start = (2.0, 2.0, 0.0)
        rng = SplitMix64(77)
        goals = []
        while len(goals) < 5:
            x = 1.0 + 18.0 * rng.random()
            y = 1.0 + 18.0 * rng.random()
            if 1.0 <= math.dist((x, y), start[:2]) <= 10.0:
                goals.append((x, y, 0.0))
        for goal in goals:
            res = Mission(
                env, [goal], CM, DwaParams(), SimConfig(), seed=5, start=start
            ).run()
            assert res.outcome == "Done", res.reason
            assert res.duration <= 60.0
            assert all(not rec.collided for rec in res.records)
            final = (res.final_state.x, res.final_state.y, res.final_state.z)
            assert math.dist(final, goal) <= 0.2 + 1e-9
