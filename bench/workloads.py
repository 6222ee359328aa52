"""The three benchmark workloads on scenarios/walled_arena.json.

Each workload has a set-up (timed, repeated by the runner), an endless
stream of operation inputs drawn from the workload seed, one operation (the
only timed call), and an output check that runs outside the timed region.
The checks test invariants, not stored floats, so a physics fix that moves
energies does not count as a failure.

Program entry points are looked up on their modules at call time, so the
traced run sees the wrappers that spans.installed puts there.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list, q in (0, 1)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def call_directly(name, fn, *args, **kwargs):
    """Untraced stand-in for spans.Tracer.span."""
    return fn(*args, **kwargs)


class Scenario:
    """The walled arena as the CLI reads it: world, start, waypoints and
    the scenario's roadmap parameters, with the default cost model."""

    def __init__(self, path: str, prm_override: dict | None = None):
        from morphnav.costmodel import CostModel, load_config_file
        from morphnav.env import environment_from_dict

        raw = load_config_file(path)
        self.env = environment_from_dict(raw)
        self.start = tuple(float(v) for v in raw["start"])
        self.waypoints = [tuple(float(v) for v in wp) for wp in raw["waypoints"]]
        self.prm = {**raw["prm"], **(prm_override or {})}
        self.cm = CostModel()
        # The wall splits the arena in x; ground nodes cannot sit on it.
        self.wall_x = 0.5 * (
            self.env.obstacles[0].min_corner[0] + self.env.obstacles[0].max_corner[0]
        )

    def params(self, seed: int):
        from morphnav.roadmap import PrmParams

        return PrmParams(seed=seed, **self.prm)

    def snapped(self, p):
        return (p[0], p[1], self.env.ground_height(p[0], p[1]))


class Workload:
    name = ""
    unit_name = "operation"

    def __init__(self, scenario_path: str, prm_override: dict | None = None):
        self.scenario_path = scenario_path
        self.prm_override = prm_override

    def setup(self, seed: int):
        return Scenario(self.scenario_path, self.prm_override)

    def setup_signature(self, state):
        return ()

    def setup_counts(self, state) -> dict:
        """Output counts (per-layer metric names) of the set-up's work."""
        return {}

    def inputs(self, state, rng):
        raise NotImplementedError

    def op(self, state, inp, call=call_directly):
        raise NotImplementedError

    def check(self, state, inp, out) -> str | None:
        raise NotImplementedError

    def signature(self, out) -> tuple:
        raise NotImplementedError

    def observe(self, out, acc: dict) -> None:
        """Append a checked output's counts to acc, keyed by per-layer
        metric name."""

    def figures(self, acc: dict, latencies: list, busy_s: float) -> tuple[dict, dict]:
        """Workload-specific (figures, sample counts) for the run record."""
        return {}, {}

    def reference(self) -> dict:
        """The fixed seed-1 line of the run record (not gated)."""
        return {}


class ArenaPlan(Workload):
    """One cold plan per operation, the sequence of `morphnav plan`:
    build_roadmap, insert_query_nodes for the start and the last waypoint,
    then astar_multimodal."""

    name = "arena-plan"
    unit_name = "plan"

    def inputs(self, state, rng):
        while True:
            yield rng.getrandbits(32)

    def op(self, sc, seed, call=call_directly):
        from morphnav import planner, roadmap

        params = sc.params(seed)
        rm = roadmap.build_roadmap(sc.env, sc.cm, params)
        rm, s, g = roadmap.insert_query_nodes(
            rm, sc.start, sc.waypoints[-1], sc.env, sc.cm, params
        )
        return rm, planner.astar_multimodal(rm, s, g, sc.cm)

    def check(self, sc, seed, out):
        from morphnav.planner import dijkstra_oracle

        rm, plan = out
        ref = dijkstra_oracle(rm, plan.node_ids[0], plan.node_ids[-1], sc.cm)
        if abs(plan.total_cost - ref.total_cost) > 1e-9 * max(1.0, abs(ref.total_cost)):
            return f"seed {seed}: A* cost {plan.total_cost!r} != oracle {ref.total_cost!r}"
        if plan.n_transitions != 2:
            return f"seed {seed}: {plan.n_transitions} transitions, expected 2"
        ends = (rm.nodes[plan.node_ids[0]].position, rm.nodes[plan.node_ids[-1]].position)
        if ends != (sc.snapped(sc.start), sc.snapped(sc.waypoints[-1])):
            return f"seed {seed}: plan endpoints {ends} are not the query points"
        return None

    def signature(self, out):
        rm, plan = out
        return (len(rm.nodes), len(rm.edges), plan.total_cost, plan.expanded)

    def observe(self, out, acc):
        rm, plan = out
        acc.setdefault("roadmap.nodes", []).append(len(rm.nodes))
        acc.setdefault("roadmap.edges", []).append(len(rm.edges))
        acc.setdefault("planner.astar.expanded", []).append(plan.expanded)

    def figures(self, acc, latencies, busy_s):
        lat = sorted(latencies)
        return (
            {
                "plan_p50_ms": 1e3 * statistics.median(lat),
                "plans_per_s": len(lat) / busy_s,
            },
            {"plan_p50_ms": len(lat), "plans_per_s": len(lat)},
        )

    def reference(self):
        rm, plan = self.op(self.setup(1), 1)
        return {
            "plan_seed": 1,
            "plan_cost_j": round(plan.total_cost, 3),
            "plan_transitions": plan.n_transitions,
            "plan_expanded": plan.expanded,
            "readme_plan": "4185.968 J, 2 transitions, 329 expanded",
        }


_AIR_PHASES = ("Takeoff", "Cruise", "Descend")
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MORPH_PHASES = ("MorphToUas", "MorphToUgv")


def tick_phases(records) -> dict:
    """Ticks by the phase they started in: ground-nav, air and morph."""
    out = {"ground_nav": 0, "air": 0, "morph": 0}
    for rec in records[:-1]:
        if rec.phase in _AIR_PHASES:
            out["air"] += 1
        elif rec.phase in _MORPH_PHASES:
            out["morph"] += 1
        else:
            out["ground_nav"] += 1
    return out


class ArenaMission(Workload):
    """One three-waypoint walled-arena mission per operation, as
    `morphnav simulate` runs it: Mission builds its own occupancy grid and
    distance transform, then steps DWA until the mission ends. Only the
    start yaw varies, from an offset drawn from the workload seed."""

    name = "arena-mission"
    unit_name = "mission"

    def setup(self, seed):
        from morphnav.localnav import DwaParams
        from morphnav.sim import SimConfig

        sc = super().setup(seed)
        sc.dwa = DwaParams()
        sc.cfg = SimConfig()
        return sc

    def inputs(self, state, rng):
        # Golden-angle steps from a seeded offset spread any run's yaws
        # evenly round the circle, so a run's median does not hinge on
        # which headings it happened to draw.
        yaw = rng.uniform(-math.pi, math.pi)
        while True:
            yield yaw
            yaw = (yaw + _GOLDEN_ANGLE + math.pi) % (2.0 * math.pi) - math.pi

    def op(self, sc, yaw, call=call_directly):
        from morphnav import sim

        return call("sim.run", self._run, sim, sc, yaw)

    @staticmethod
    def _run(sim, sc, yaw):
        mission = sim.Mission(
            sc.env, sc.waypoints, sc.cm, sc.dwa, sc.cfg, seed=1,
            start=sc.start, start_yaw=yaw,
        )
        step = mission.step
        tick_s = []

        def timed_step():
            t0 = perf_counter()
            step()
            tick_s.append(perf_counter() - t0)

        mission.step = timed_step
        return mission.run(), tick_s

    def check(self, sc, yaw, out):
        res, _ = out
        if res.outcome != "Done":
            return f"yaw {yaw!r}: outcome {res.outcome} ({res.reason})"
        if res.morph_count != 2:
            return f"yaw {yaw!r}: {res.morph_count} morphs, expected 2"
        if res.waypoints_reached != 3:
            return f"yaw {yaw!r}: {res.waypoints_reached} waypoints reached, expected 3"
        if any(r.collided for r in res.records):
            return f"yaw {yaw!r}: a tick collided"
        return None

    def signature(self, out):
        res, _ = out
        led = res.ledger
        return (len(res.records), led.ground, led.flight, led.transition, res.duration)

    def observe(self, out, acc):
        res, tick_s = out
        acc.setdefault("tick_s", []).extend(tick_s)
        acc["sim_s"] = acc.get("sim_s", 0.0) + res.duration
        for phase, n in tick_phases(res.records).items():
            acc.setdefault("sim.ticks." + phase, []).append(n)

    def figures(self, acc, latencies, busy_s):
        lat = sorted(latencies)
        ticks = sorted(acc.get("tick_s", []))
        figs = {
            "mission_p50_s": statistics.median(lat),
            "sim_rtf": acc.get("sim_s", 0.0) / busy_s,
        }
        counts = {"mission_p50_s": len(lat), "sim_rtf": len(lat)}
        if ticks:
            figs["tick_p99_ms"] = 1e3 * nearest_rank(ticks, 0.99)
            counts["tick_p99_ms"] = len(ticks)
        return figs, counts

    def reference(self):
        from morphnav import sim

        res, _ = self._run(sim, self.setup(1), 0.0)
        return {
            "mission_yaw": 0.0,
            "mission_outcome": res.outcome,
            "mission_energy_j": round(res.ledger.total, 1),
            "mission_morphs": res.morph_count,
            "mission_records": len(res.records),
            "readme_mission": "Done, 4892.3 J, 2 morphs, 231 ticks",
        }


class ArenaQueries(Workload):
    """Build one roadmap in set-up, then a long stream of A* queries between
    its ground nodes. Two queries in three cross the wall (two transitions,
    a loose heuristic, ~300 expansions); the third stays on one side, where
    the heuristic is tight. The fixed mix keeps the median inside the
    crossing population instead of on the edge between the two."""

    name = "arena-queries"
    unit_name = "query"

    # The workload seed draws the query pairs; the roadmap is always the
    # seed-1 roadmap that `morphnav plan` builds by default. Between roadmap
    # seeds the median query time differs by up to ~20%, which would hide
    # the run-to-run comparison this workload exists for.
    ROADMAP_SEED = 1

    def setup(self, seed):
        from morphnav import roadmap

        sc = super().setup(seed)
        sc.roadmap = roadmap.build_roadmap(sc.env, sc.cm, sc.params(self.ROADMAP_SEED))
        return sc

    def setup_signature(self, sc):
        rm = sc.roadmap
        return (len(rm.nodes), len(rm.edges), sum(e.cost for e in rm.edges))

    def setup_counts(self, sc):
        return {"roadmap.nodes": len(sc.roadmap.nodes), "roadmap.edges": len(sc.roadmap.edges)}

    def inputs(self, sc, rng):
        from morphnav.roadmap import NodeMode

        rm = sc.roadmap
        # Queries run inside the component holding most ground nodes, so
        # every query has an answer.
        comp = [-1] * len(rm.nodes)
        for root in range(len(rm.nodes)):
            if comp[root] >= 0:
                continue
            comp[root] = root
            stack = [root]
            while stack:
                u = stack.pop()
                for idx in rm.adjacency[u]:
                    v = rm.other_end(idx, u)
                    if comp[v] < 0:
                        comp[v] = root
                        stack.append(v)
        ground = [n.id for n in rm.nodes if n.mode is NodeMode.GROUND]
        sizes: dict[int, int] = {}
        for nid in ground:
            sizes[comp[nid]] = sizes.get(comp[nid], 0) + 1
        main = max(sizes, key=lambda c: (sizes[c], -c))
        west = [n for n in ground if comp[n] == main and rm.nodes[n].position[0] < sc.wall_x]
        east = [n for n in ground if comp[n] == main and rm.nodes[n].position[0] > sc.wall_x]
        i = 0
        while True:
            if i % 3 == 2:
                side = west if rng.random() < len(west) / (len(west) + len(east)) else east
                a, b = rng.sample(side, 2)
            else:
                a, b = rng.choice(west), rng.choice(east)
                if rng.random() < 0.5:
                    a, b = b, a
            i += 1
            yield a, b

    def op(self, sc, pair, call=call_directly):
        from morphnav import planner

        return planner.astar_multimodal(sc.roadmap, pair[0], pair[1], sc.cm)

    def crosses(self, sc, pair) -> bool:
        xa = sc.roadmap.nodes[pair[0]].position[0]
        xb = sc.roadmap.nodes[pair[1]].position[0]
        return (xa < sc.wall_x) != (xb < sc.wall_x)

    def check(self, sc, pair, plan):
        if plan.node_ids[0] != pair[0] or plan.node_ids[-1] != pair[1]:
            return f"query {pair}: plan runs {plan.node_ids[0]} -> {plan.node_ids[-1]}"
        if self.crosses(sc, pair) and plan.n_transitions != 2:
            return f"query {pair} crosses the wall with {plan.n_transitions} transitions"
        return None

    def signature(self, plan):
        return (plan.node_ids, plan.total_cost, plan.expanded)

    def observe(self, plan, acc):
        acc.setdefault("planner.astar.expanded", []).append(plan.expanded)

    def figures(self, acc, latencies, busy_s):
        lat = sorted(latencies)
        return (
            {
                "query_p50_ms": 1e3 * statistics.median(lat),
                "query_p99_ms": 1e3 * nearest_rank(lat, 0.99),
                "queries_per_s": len(lat) / busy_s,
            },
            {"query_p50_ms": len(lat), "query_p99_ms": len(lat), "queries_per_s": len(lat)},
        )


WORKLOADS = {wl.name: wl for wl in (ArenaPlan, ArenaMission, ArenaQueries)}
