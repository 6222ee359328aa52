"""Per-layer spans for the traced benchmark run.

The benchmark installs timing wrappers on public attributes of the program,
runs the workload, and removes them again. Each wrapper is installed where
the caller looks the name up: `morphnav.sim` imports `dwa_step`, `grid_plan`
and `project_to_grid` by name, so those are patched on `morphnav.sim`, not on
the module that defines them.

Spans are aggregated per name as they close (calls, inclusive time, time
covered by child spans), so a mission's ~234k clearance look-ups cost no
memory. A span's self time is its inclusive time minus its children's.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module or class, attribute, span name). Resolved lazily so importing this
# file does not import the program.
TRACED = (
    ("morphnav.env:Environment", "segment_in_collision", "env.segment_in_collision"),
    ("morphnav.env:Environment", "segment_on_ground", "env.segment_on_ground"),
    ("morphnav.env:Environment", "point_in_collision", "env.point_in_collision"),
    ("morphnav.env:OccupancyGrid", "distance_to_occupied", "env.distance_to_occupied"),
    ("morphnav.sim", "project_to_grid", "env.project_to_grid"),
    ("morphnav.costmodel:CostModel", "heuristic", "costmodel.heuristic"),
    ("morphnav.costmodel:CostModel", "ground_edge_cost", "costmodel.edge_cost"),
    ("morphnav.costmodel:CostModel", "flight_edge_cost", "costmodel.edge_cost"),
    ("morphnav.costmodel:CostModel", "transition_cost", "costmodel.edge_cost"),
    ("morphnav.rng:SplitMix64", "uniform", "rng.uniform"),
    ("morphnav.roadmap", "sample_ground_node", "roadmap.sample"),
    ("morphnav.roadmap", "sample_air_node", "roadmap.sample"),
    ("morphnav.roadmap", "build_roadmap", "roadmap.build"),
    ("morphnav.roadmap", "insert_query_nodes", "roadmap.insert"),
    ("morphnav.planner", "astar_multimodal", "planner.astar"),
    ("morphnav.sim", "grid_plan", "planner.grid_plan"),
    ("morphnav.sim", "dwa_step", "localnav.dwa_step"),
    ("morphnav.localnav", "rollout", "localnav.rollout"),
    ("morphnav.localnav", "score_trajectory", "localnav.score_trajectory"),
    ("morphnav.sim:Mission", "step", "sim.step"),
)

LAYERS = ("env", "costmodel", "roadmap", "planner", "localnav", "sim", "rng")


class Tracer:
    """Aggregated span statistics: name -> [calls, inclusive_s, child_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # child time accumulated per open span

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += child

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark."""
        return self.wrap(fn, name)(*args, **kwargs)

    def since(self, mark: dict[str, list]) -> "Tracer":
        """Statistics of the spans closed after `mark` (from `mark()`)."""
        out = Tracer()
        for name, (calls, incl, child) in self.stats.items():
            c0, i0, ch0 = mark.get(name, (0, 0.0, 0.0))
            out.stats[name] = [calls - c0, incl - i0, child - ch0]
        return out

    def mark(self) -> dict[str, list]:
        return {name: list(rec) for name, rec in self.stats.items()}

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] - rec[2] if rec else 0.0

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.stats:
            out[name.split(".", 1)[0]] += self.self_seconds(name)
        return out


def _resolve(target: str):
    import importlib

    module_name, _, attr = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, attr, None) if attr else obj


class installed:
    """Context manager: every TRACED attribute wrapped by `tracer` inside
    the block, the original restored on exit, even after an error.

    An attribute the program no longer has is skipped and listed in
    `missing`; its span then reads zero calls.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for target, attr, name in TRACED:
            owner = _resolve(target)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{target}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
