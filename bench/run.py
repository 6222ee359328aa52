"""morphnav benchmark.

    python3 bench/run.py --workload arena-plan --seed 1 --seconds 35 --trace 0

One process, one caller, closed loop: each operation finishes before the next
starts, as every morphnav entry point is a library call its caller waits on.
Inputs come from --seed. Set-up is timed (several times, median) before the
timed loop; the loop runs operations for --seconds and checks every output
outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same inputs
untraced for half the time and then with timing wrappers on the program's
layers for the other half, and prints the per-layer metrics, the layer
shares and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run record (versions, host, sample counts, workload figures, the seed-1
reference line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "walled_arena.json"

# Cold set-ups per run; setup_s is their median.
SETUP_REPEATS = {"arena-plan": 5, "arena-mission": 5, "arena-queries": 3}

# Per-layer metrics. Span counts and times are per operation; work done in
# set-up (the arena-queries roadmap) is added once.
SPAN_CALLS = (
    "env.segment_in_collision", "env.segment_on_ground", "env.point_in_collision",
    "env.distance_to_occupied", "costmodel.heuristic", "planner.grid_plan",
    "localnav.dwa_step", "localnav.rollout", "localnav.score_trajectory", "rng.uniform",
)
SPAN_SECONDS = (
    "env.segment_in_collision", "env.segment_on_ground", "env.point_in_collision",
    "env.distance_to_occupied", "env.project_to_grid", "roadmap.sample",
    "roadmap.build", "roadmap.insert", "planner.astar", "planner.grid_plan",
    "localnav.dwa_step",
)
SPAN_SELF_SECONDS = ("sim.step",)
OUTPUT_COUNTS = (
    "roadmap.nodes", "roadmap.edges", "planner.astar.expanded",
    "sim.ticks.ground_nav", "sim.ticks.air", "sim.ticks.morph",
)


class CheckoutError(Exception):
    """The program or its scenario is missing from this checkout."""


def load_program():
    """Import morphnav from this checkout's src/, never from elsewhere."""
    if not (SRC / "morphnav" / "__init__.py").is_file() or not SCENARIO.is_file():
        raise CheckoutError(f"no morphnav sources or scenario under {ROOT}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import morphnav

    if Path(morphnav.__file__).resolve().parent != SRC / "morphnav":
        raise CheckoutError(f"imported morphnav from {morphnav.__file__}, not {SRC}")


def timed_loop(wl, state, seed: int, seconds: float, call=None) -> dict:
    """Run operations for `seconds`; time each one, check it afterwards.
    `latency_s` is wall-clock; `scaled_s` is scaled to the reference host."""
    from hostspeed import HostSpeed
    from workloads import call_directly

    call = call or call_directly
    host = HostSpeed()
    inputs = wl.inputs(state, random.Random(seed))
    run = {"latency_s": [], "signatures": [], "failures": [], "acc": {}}
    t_start = perf_counter()
    while perf_counter() - t_start < seconds or not run["latency_s"]:
        inp = next(inputs)
        host.before_op()
        t0 = perf_counter()
        try:
            out = wl.op(state, inp, call)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        run["latency_s"].append(perf_counter() - t0)
        host.add(run["latency_s"][-1])
        if error is None:
            try:
                error = wl.check(state, inp, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            wl.observe(out, run["acc"])
            run["signatures"].append(wl.signature(out))
        else:
            run["failures"].append(error)
            run["signatures"].append(None)
    run["busy_s"] = sum(run["latency_s"])
    run["scaled_s"] = host.finish()
    run["host_speed"] = statistics.median(host.factors)
    return run


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_record(wl, seed, seconds, trace) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
        "loop": "closed",
    }


def cold_setup_s(wl, seed, prm_override) -> float:
    """Wall time of a fresh interpreter that imports morphnav from this
    checkout and sets the workload up, as each `morphnav` command does."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        f"run.load_program(); from workloads import WORKLOADS; "
        f"WORKLOADS[{wl.name!r}]({str(SCENARIO)!r}, {prm_override!r}).setup({seed!r})"
    )
    t0 = perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], check=True, timeout=170)
    return perf_counter() - t0


def end_to_end(wl, seed, seconds, setup_repeats) -> tuple[dict, dict]:
    from hostspeed import HostSpeed

    host = HostSpeed(interval_s=0.0)
    setup_wall = []
    for _ in range(setup_repeats):
        host.before_op()
        setup_wall.append(cold_setup_s(wl, seed, wl.prm_override))
        host.add(setup_wall[-1])
    setup_scaled = host.finish()
    state = wl.setup(seed)
    run = timed_loop(wl, state, seed, seconds)
    lat, scaled = run["latency_s"], run["scaled_s"]
    metrics = {
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "op_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
        "ops_per_s": _metric(len(scaled) / sum(scaled), "1/s"),
    }
    figures, counts = wl.figures(run["acc"], lat, run["busy_s"])
    record = {
        "operation": wl.unit_name,
        "samples": {
            "setup_s": len(setup_scaled),
            "op_p50_ms": len(lat),
            "ops_per_s": len(lat),
            **counts,
        },
        "host_speed": {"setup": statistics.median(host.factors), "loop": run["host_speed"]},
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "ops_per_s": len(lat) / run["busy_s"],
            **figures,
        },
        "failures": run["failures"][:5],
    }
    return metrics, {"run": run, "record": record}


def per_layer(wl, seed, seconds) -> tuple[dict, dict]:
    from spans import LAYERS, Tracer, installed

    state = wl.setup(seed)
    plain = timed_loop(wl, state, seed, seconds / 2.0)
    tracer = Tracer()
    with installed(tracer) as wrappers:
        traced_state = wl.setup(seed)
        mark = tracer.mark()
        traced = timed_loop(wl, traced_state, seed, seconds / 2.0, tracer.span)
    setup_t = Tracer()
    setup_t.stats = mark
    ops_t = tracer.since(mark)
    n = len(traced["latency_s"])

    failures = plain["failures"] + traced["failures"]
    if wl.setup_signature(traced_state) != wl.setup_signature(state):
        failures.append("traced set-up differs from the untraced one")
    common = min(len(plain["signatures"]), n)
    for i in range(common):
        if traced["signatures"][i] != plain["signatures"][i]:
            failures.append(f"traced operation {i} differs from the untraced one")

    counts = wl.setup_counts(traced_state)
    acc = traced["acc"]
    metrics = {}
    for name in SPAN_CALLS:
        metrics[name + ".calls"] = _metric(setup_t.calls(name) + ops_t.calls(name) / n, "count")
    for name in SPAN_SECONDS:
        metrics[name + ".s"] = _metric(setup_t.seconds(name) + ops_t.seconds(name) / n, "s")
    for name in SPAN_SELF_SECONDS:
        metrics[name + ".self_s"] = _metric(
            setup_t.self_seconds(name) + ops_t.self_seconds(name) / n, "s"
        )
    for name in OUTPUT_COUNTS:
        metrics[name] = _metric(counts.get(name, 0) + sum(acc.get(name, [])) / n, "count")
    checks = metrics["env.segment_in_collision.calls"]["value"]
    metrics["roadmap.edge_yield"] = _metric(
        metrics["roadmap.edges"]["value"] / checks if checks else 0.0, "ratio"
    )
    layer_s = ops_t.layer_self_seconds()
    busy = traced["busy_s"]
    shares = {layer: 100.0 * layer_s[layer] / busy for layer in LAYERS}
    shares["other"] = 100.0 - sum(shares.values())
    for layer, share in shares.items():
        metrics["share." + layer] = _metric(share, "%")
    overhead = 100.0 * (
        statistics.median(traced["scaled_s"][:common])
        / statistics.median(plain["scaled_s"][:common])
        - 1.0
    )
    metrics["trace.overhead"] = _metric(overhead, "%")

    with open(BENCH_DIR / "predictions.json") as fh:
        predictions = json.load(fh)
    record = {
        "operation": wl.unit_name,
        "samples": {"untraced_ops": len(plain["latency_s"]), "traced_ops": n},
        "layer_share_pct": {k: round(v, 2) for k, v in shares.items()},
        "span_share_pct": {
            name: round(100.0 * ops_t.seconds(name) / busy, 2)
            for name in sorted(ops_t.stats)
            if ops_t.calls(name)
        },
        "intended_layer": predictions["intended_layer"][wl.name],
        "untraced_attributes": wrappers.missing,
        "failures": failures[:5],
    }
    run = {
        "latency_s": plain["latency_s"] + traced["latency_s"],
        "failures": failures,
    }
    return metrics, {"run": run, "record": record}


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    wl=None,
    prm_override: dict | None = None,
    setup_repeats: int | None = None,
    reference: bool = True,
) -> tuple[dict, dict]:
    """Run one workload; return (result, record). `wl` replaces the named
    workload (tests pass a tiny or a corrupted one)."""
    from workloads import WORKLOADS

    if wl is None:
        wl = WORKLOADS[workload](str(SCENARIO), prm_override)
    if trace:
        metrics, out = per_layer(wl, seed, seconds)
    else:
        repeats = setup_repeats or SETUP_REPEATS[wl.name]
        metrics, out = end_to_end(wl, seed, seconds, repeats)
    run = out["run"]
    attempted = len(run["latency_s"])
    failed = len(run["failures"])
    record = run_record(wl, seed, seconds, int(trace))
    record.update(out["record"])
    record["error_rate"] = failed / attempted
    if reference:
        record["reference"] = wl.reference()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("arena-plan", "arena-mission", "arena-queries"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (CheckoutError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
