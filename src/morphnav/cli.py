"""Command line front end.

Subcommands:
    roadmap    sample a multi-modal roadmap and export it
    plan       plan a minimum-energy route between two ground points
    simulate   execute a waypoint mission in the scenario world
    oracle     cross-check the planner against a reference search

Exit codes: 0 success, 1 configuration error, 2 no path found,
3 mission failed, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .costmodel import CostModel, config_from_dict, cost_section, load_config_file
from .env import Aabb, Environment, environment_from_dict, point_from_json
from .errors import (
    ConfigError,
    NoPathError,
    QueryNodeIsolatedError,
    SamplingError,
)
from .localnav import DwaParams
from .planner import (
    SegmentKind,
    astar_multimodal,
    dijkstra_all_costs,
    dijkstra_oracle,
    path_to_waypoints,
)
from .render import render_svg
from .rng import SplitMix64
from .roadmap import (
    PrmParams, build_roadmap, edge_dicts, heuristic_costs, insert_query_nodes, node_dicts,
    roadmap_to_dict,
)
from .sim import Mission, SimConfig, trajectory_csv


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as configuration errors so the
    documented exit codes hold."""

    def error(self, message):
        raise ConfigError(message)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_point(text: str, field: str) -> tuple[float, float, float]:
    """'x,y,z' as three finite floats, the rule scenario points follow;
    ConfigError naming `field` otherwise."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected 'x,y,z', got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad coordinate in {text!r}: {exc}") from None
    return point_from_json(values, field)


def _parse_waypoints(text: str) -> list[tuple[float, float, float]]:
    chunks = [chunk for chunk in text.split(";") if chunk.strip()]
    points = [_parse_point(chunk, f"--waypoints[{i}]") for i, chunk in enumerate(chunks)]
    if not points:
        raise ConfigError("waypoint list is empty")
    return points


def _load_scenario(path: str):
    """Scenario file: an environment plus optional 'start', 'waypoints',
    and 'prm' sampling parameters. The 'prm' block may set any PrmParams
    field except the seed, which comes from --seed."""
    raw = load_config_file(path)
    env = environment_from_dict(raw)
    start = point_from_json(raw["start"], "start") if "start" in raw else None
    waypoints = None
    if "waypoints" in raw:
        if not isinstance(raw["waypoints"], list):
            raise ConfigError(f"waypoints must be a list, got {raw['waypoints']!r}")
        waypoints = [point_from_json(p, f"waypoints[{i}]") for i, p in enumerate(raw["waypoints"])]
    prm = raw.get("prm", {})
    params = config_from_dict(PrmParams, prm, "prm")
    if "seed" in prm:
        raise ConfigError("'prm' must not set 'seed'; give --seed")
    return env, start, waypoints, params


def _load_configs(path: str | None):
    """Cost model, local-controller, and executor parameters from one file."""
    if path is None:
        return CostModel(), DwaParams(), SimConfig()
    raw = load_config_file(path)
    return (
        config_from_dict(CostModel, cost_section(raw), "cost"),
        config_from_dict(DwaParams, raw.get("dwa", {}), "dwa"),
        config_from_dict(SimConfig, raw.get("sim", {}), "sim"),
    )


def _prm_params(args, base: PrmParams) -> PrmParams:
    """Sampling parameters: explicit flags beat `base`, the scenario's
    'prm' section over the PrmParams defaults (PrmParams() for `oracle`)."""
    flags = {"n_ground": args.nw, "n_air": args.nf, "radius": args.radius}
    return dataclasses.replace(
        base, seed=args.seed, **{k: v for k, v in flags.items() if v is not None}
    )


# -- subcommands -----------------------------------------------------------------


def cmd_roadmap(args) -> int:
    env, start, waypoints, scn_prm = _load_scenario(args.env)
    cost, _, _ = _load_configs(args.cost_config)
    params = _prm_params(args, scn_prm)
    roadmap = build_roadmap(env, cost, params)
    os.makedirs(args.out, exist_ok=True)
    _write_text(
        os.path.join(args.out, "roadmap.json"), _json_dumps(roadmap_to_dict(roadmap))
    )
    _write_text(
        os.path.join(args.out, "roadmap.svg"),
        render_svg(env, roadmap=roadmap, waypoints=waypoints, start=start),
    )
    indptr = roadmap.csr()[0]
    n_isolated = (indptr[1:] == indptr[:-1]).sum()
    print(
        f"roadmap: {len(roadmap.positions)} nodes, {len(roadmap.a)} edges, "
        f"{n_isolated} isolated"
    )
    return 0


def _plan_leg(env, cost, params, start, goal):
    roadmap = build_roadmap(env, cost, params)
    roadmap, start_id, goal_id = insert_query_nodes(
        roadmap, start, goal, env, cost, params
    )
    plan = astar_multimodal(roadmap, start_id, goal_id, cost)
    return roadmap, plan


def cmd_plan(args) -> int:
    env, scn_start, scn_waypoints, scn_prm = _load_scenario(args.env)
    cost, _, _ = _load_configs(args.cost_config)
    start = _parse_point(args.start, "--start") if args.start else scn_start
    if start is None:
        raise ConfigError("no start point: give --start or put 'start' in the scenario")
    if args.goal:
        goal = _parse_point(args.goal, "--goal")
    elif scn_waypoints:
        goal = scn_waypoints[-1]
    else:
        raise ConfigError("no goal point: give --goal or put 'waypoints' in the scenario")
    params = _prm_params(args, scn_prm)
    roadmap, plan = _plan_leg(env, cost, params, start, goal)

    segments = path_to_waypoints(plan, roadmap)
    nodes = node_dicts(roadmap, list(plan.node_ids))
    plan_doc = {
        "start": nodes[0]["position"],
        "goal": nodes[-1]["position"],
        "total_cost": plan.total_cost,
        "cost_ground": plan.cost_ground,
        "cost_flight": plan.cost_flight,
        "cost_transition": plan.cost_transition,
        "n_transitions": plan.n_transitions,
        "expanded": plan.expanded,
        "node_ids": list(plan.node_ids),
        "nodes": nodes,
        "segments": [
            {
                "kind": seg.kind.value,
                "waypoints": [list(p) for p in seg.waypoints],
            }
            for seg in segments
        ],
    }
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "plan.json"), _json_dumps(plan_doc))
    lines = ["index,a,b,kind,length,cost"]
    for i, e in enumerate(edge_dicts(roadmap, list(plan.edge_ids))):
        lines.append(f"{i},{e['a']},{e['b']},{e['kind']},{e['length']!r},{e['cost']!r}")
    _write_text(os.path.join(args.out, "plan_edges.csv"), "\n".join(lines) + "\n")
    _write_text(
        os.path.join(args.out, "plan.svg"),
        render_svg(
            env,
            roadmap=roadmap,
            plan=plan,
            waypoints=scn_waypoints,
            start=start,
        ),
    )
    print(
        f"plan: cost {plan.total_cost:.3f} J "
        f"(ground {plan.cost_ground:.3f}, flight {plan.cost_flight:.3f}, "
        f"transition {plan.cost_transition:.3f}), "
        f"{plan.n_transitions} transitions, {plan.expanded} expanded"
    )
    return 0


def cmd_simulate(args) -> int:
    env, scn_start, scn_waypoints, scn_prm = _load_scenario(args.env)
    cost, dwa, cfg = _load_configs(args.cost_config)
    if args.latency is not None:
        cfg = dataclasses.replace(cfg, actuation_latency=args.latency)
    start = _parse_point(args.start, "--start") if args.start else scn_start
    waypoints = (
        _parse_waypoints(args.waypoints) if args.waypoints else scn_waypoints
    )
    if not waypoints:
        raise ConfigError(
            "no waypoints: give --waypoints or put 'waypoints' in the scenario"
        )

    if args.pipeline == "mmprm":
        if start is None:
            raise ConfigError("mmprm pipeline needs a start point")
        params = _prm_params(args, scn_prm)
        roadmap, plan = _plan_leg(env, cost, params, start, waypoints[-1])
        segments = path_to_waypoints(plan, roadmap)
        mission_wps: list[tuple[float, float, float]] = []
        for seg in segments:
            if seg.kind in (SegmentKind.DRIVE, SegmentKind.LAND_THEN_MORPH):
                p = seg.waypoints[-1]
                if not mission_wps or math.dist(mission_wps[-1], p) > 1e-9:
                    mission_wps.append(p)
        if not mission_wps:
            mission_wps = [waypoints[-1]]
        waypoints = mission_wps

    result = Mission(env, waypoints, cost, dwa, cfg, seed=args.seed, start=start).run()
    os.makedirs(args.out, exist_ok=True)
    _write_text(
        os.path.join(args.out, "trajectory.csv"), trajectory_csv(result.records)
    )
    mission_doc = {
        "outcome": result.outcome,
        "reason": result.reason,
        "duration": result.duration,
        "energy": {
            "ground": result.ledger.ground,
            "flight": result.ledger.flight,
            "transition": result.ledger.transition,
            "total": result.ledger.total,
        },
        "morph_count": result.morph_count,
        "descend_overshoot": result.descend_overshoot,
        "waypoints_reached": result.waypoints_reached,
        "timeline": [
            {"phase": name, "t_start": t0, "t_end": t1}
            for name, t0, t1 in result.timeline
        ],
        "final_position": [
            result.final_state.x,
            result.final_state.y,
            result.final_state.z,
        ],
    }
    _write_text(os.path.join(args.out, "mission.json"), _json_dumps(mission_doc))
    _write_text(
        os.path.join(args.out, "mission.svg"),
        render_svg(
            env, records=result.records, waypoints=waypoints, start=start
        ),
    )
    print(
        f"mission: {result.outcome} in {result.duration:.1f} s, "
        f"energy {result.ledger.total:.1f} J, {result.morph_count} morphs"
    )
    if result.outcome != "Done":
        print(f"failure: {result.reason}", file=sys.stderr)
        return 3
    return 0


def _oracle_world() -> Environment:
    return Environment(
        bounds=Aabb((0.0, 0.0, 0.0), (20.0, 20.0, 5.0), name="oracle-arena"),
        obstacles=[],
        ground_const=0.0,
    )


def cmd_oracle(args) -> int:
    if args.n <= 0:
        raise ConfigError("--n must be positive")
    if args.queries <= 0:
        raise ConfigError("--queries must be positive")
    if not math.isfinite(args.heuristic_scale):
        raise ConfigError(f"--heuristic-scale must be finite, got {args.heuristic_scale!r}")
    env = _oracle_world()
    cost, _, _ = _load_configs(args.cost_config)
    scale = args.heuristic_scale

    max_rel = 0.0
    mismatches = 0
    admissibility_violations = 0
    expansion_regressions = 0
    n_queries = 0
    pair_rng = SplitMix64(args.seed + 0x5EED)
    params = _prm_params(args, PrmParams())
    if params.n_ground + params.n_air <= 0:
        raise ConfigError("--nw plus --nf must be positive: queries pick roadmap nodes")
    for i in range(args.n):
        roadmap = build_roadmap(env, cost, dataclasses.replace(params, seed=args.seed + i))
        pos = roadmap.positions
        n_nodes = len(pos)
        for _ in range(args.queries):
            a = pair_rng.randint(n_nodes)
            b = pair_rng.randint(n_nodes)
            n_queries += 1
            # The shipped bound, unless scaled on purpose.
            h = None if scale == 1.0 else scale * heuristic_costs(cost, pos, pos[b])
            try:
                fast = astar_multimodal(roadmap, a, b, cost, h)
                fast_cost = fast.total_cost
            except NoPathError:
                fast = None
                fast_cost = None
            try:
                ref = dijkstra_oracle(roadmap, a, b, cost)
                ref_cost = ref.total_cost
            except NoPathError:
                ref = None
                ref_cost = None
            if (fast_cost is None) != (ref_cost is None):
                mismatches += 1
                continue
            if fast_cost is None:
                continue
            rel = abs(fast_cost - ref_cost) / max(1.0, abs(ref_cost))
            max_rel = max(max_rel, rel)
            if rel > 1e-9:
                mismatches += 1
            if fast.expanded > ref.expanded:
                expansion_regressions += 1
        # Admissibility sweep: the heuristic from every node toward a probe
        # goal must lower-bound the true optimal cost to it (unreachable
        # nodes, at inf, never count). Stored edge costs are symmetric, so
        # one-to-all from the goal gives those.
        goal = pair_rng.randint(n_nodes)
        dist = np.array(dijkstra_all_costs(roadmap, goal))
        h = scale * heuristic_costs(cost, pos, pos[goal])
        violated = h > dist + 1e-9 * np.maximum(1.0, dist)
        admissibility_violations += int(np.count_nonzero(violated))

    passed = mismatches == 0 and admissibility_violations == 0
    doc = {
        "n_roadmaps": args.n,
        "queries_per_roadmap": args.queries,
        "n_queries": n_queries,
        "max_rel_cost_discrepancy": max_rel,
        "mismatches": mismatches,
        "admissibility_violations": admissibility_violations,
        "expansion_regressions": expansion_regressions,
        "heuristic_scale": scale,
        "pass": passed,
    }
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "oracle.json"), _json_dumps(doc))
    print(
        f"oracle: {n_queries} queries over {args.n} roadmaps, "
        f"max rel discrepancy {max_rel:.2e}, "
        f"{admissibility_violations} admissibility violations"
    )
    if not passed:
        print("verification failed", file=sys.stderr)
        return 4
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(sp, with_env: bool = True) -> None:
    if with_env:
        sp.add_argument("--env", required=True, help="scenario JSON file")
    sp.add_argument("--cost-config", default=None, help="cost/controller JSON file")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--nw", type=int, default=None, help="ground sample count")
    sp.add_argument("--nf", type=int, default=None, help="aerial sample count")
    sp.add_argument("--radius", type=float, default=None, help="connection radius")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morphnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roadmap", help="build and export a roadmap")
    _add_common(sp)
    sp.set_defaults(func=cmd_roadmap)

    sp = sub.add_parser("plan", help="plan a route on a fresh roadmap")
    _add_common(sp)
    sp.add_argument("--start", default=None, help="override start 'x,y,z'")
    sp.add_argument("--goal", default=None, help="override goal 'x,y,z'")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("simulate", help="execute a waypoint mission")
    _add_common(sp)
    sp.add_argument("--start", default=None, help="override start 'x,y,z'")
    sp.add_argument("--waypoints", default=None, help="override list 'x,y,z;x,y,z;...'")
    sp.add_argument("--latency", type=float, default=None, help="actuation delay (s)")
    sp.add_argument(
        "--pipeline",
        choices=("grid-dwa", "mmprm"),
        default="grid-dwa",
        help="grid-dwa follows scenario waypoints; mmprm derives them from a roadmap plan",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("oracle", help="cross-check planner optimality")
    _add_common(sp, with_env=False)
    sp.add_argument("--n", type=int, default=100, help="number of roadmaps")
    sp.add_argument("--queries", type=int, default=10, help="query pairs per roadmap")
    sp.add_argument(
        "--heuristic-scale",
        type=float,
        default=1.0,
        help="multiply the heuristic; values > 1 break admissibility on purpose",
    )
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NoPathError, QueryNodeIsolatedError) as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
