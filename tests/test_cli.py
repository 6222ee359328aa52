"""Subprocess-level checks of the command line interface.

Tests shell out to ``python -m morphnav.cli`` so the documented exit codes,
output files, and determinism guarantees are checked exactly the way a user
would hit them. The bad-config sweep runs most of its cases in process
through ``cli.main``, which the entry point wraps in ``sys.exit``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from morphnav import cli
from reference import ARENA, CM, OPEN_FIELD, REPO, run_cli

DEFAULT_COSTS = str(REPO / "scenarios" / "default_costs.json")
README = REPO / "README.md"


def read_json(out_dir, name):
    with open(Path(out_dir) / name) as fh:
        return json.load(fh)


def read_bytes(out_dir, name):
    return (Path(out_dir) / name).read_bytes()


# -- help and argument errors ------------------------------------------------------


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_usage_problems_exit_one():
    # argparse failures are reported as config errors, not raw usage dumps
    cases = [
        ((), "config error"),
        (("plan", "--env", "/does/not/exist.json"), "cannot read config"),
        (("simulate", "--env", ARENA, "--waypoints", "garbage"), "expected 'x,y,z'"),
        (("roadmap", "--env", ARENA, "--nw", "-5"), "non-negative"),
    ]
    for args, fragment in cases:
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        assert fragment in proc.stderr, args


@pytest.mark.filterwarnings("error")
def test_bad_config_files_exit_one(tmp_path, capsys):
    # bad keys and values in a cost config, a scenario prm block or the
    # scenario's own keys are config errors, never tracebacks or silently
    # dropped settings
    scenario = json.loads(Path(ARENA).read_text())
    bounds = scenario["bounds"]
    wall = scenario["obstacles"][0]
    flat = {"origin": [0, 0], "resolution": 6.0, "rows": 2, "cols": 3, "data": [0] * 6}

    def heightmap(**patch):
        return {"ground": {"heightmap": {**flat, **patch}}}

    cases = [
        ("cost", {"sim": {"bogus": 1}}, "unknown sim parameter(s): ['bogus']"),
        ("cost", {"sim": {"dt": "fast"}}, "sim parameter 'dt' must be a number"),
        ("cost", {"flight_pwr": 900}, "unknown cost parameter(s): ['flight_pwr']"),
        ("cost", {"sim": {"dt": 0.05}}, "dwa dt (0.1) must equal sim dt (0.05)"),
        ("cost", {"sim": {"replan_interval": 1.0}}, "unknown sim parameter(s)"),
        ("prm", {"n_ground": "300"}, "prm parameter 'n_ground' must be an integer"),
        ("prm", {"seed": 3}, "'prm' must not set 'seed'"),
        ("top", {"start": "abc"}, "start must be a list of three numbers"),
        ("top", {"start": 5}, "start must be a list of three numbers"),
        ("top", {"start": [1, "x", 0]}, "start[1] must be a number"),
        ("top", {"start": [1, 3]}, "start must be a list of three numbers"),
        ("top", {"waypoints": 5}, "waypoints must be a list"),
        ("top", {"waypoints": [[4, "q", 0]]}, "waypoints[0][1] must be a number"),
        ("top", {"obstacles": 5}, "obstacles must be a list"),
        ("top", {"ground": {"const": "x"}}, "ground const must be a number"),
        (
            "top",
            {"bounds": {**bounds, "min": [0, "a", 0]}},
            "bounds min[1] must be a number",
        ),
        (
            "top",
            {"obstacles": [{**wall, "max": [5, "b", 2]}]},
            "obstacle 0 max[1] must be a number",
        ),
        ("top", heightmap(origin=[0]), "heightmap origin must be a list of two numbers"),
        ("top", heightmap(rows=2.7), "heightmap rows must be an integer >= 1"),
        ("top", heightmap(rows=True, cols=6), "heightmap rows must be an integer >= 1"),
        ("top", heightmap(resolution=True), "heightmap resolution must be a number"),
        ("top", heightmap(data=[0] * 5 + ["nan"]), "heightmap data[5] must be a number"),
        ("top", heightmap(resolution=1e309), "heightmap resolution must be finite"),
        # json.load reads NaN and Infinity; every non-finite number is refused.
        ("prm", {"clearance": math.nan}, "prm parameter 'clearance' must be finite, got nan"),
        ("prm", {"radius": math.nan}, "prm parameter 'radius' must be finite, got nan"),
        ("prm", {"z_max": math.inf}, "prm parameter 'z_max' must be finite, got inf"),
        ("cost", {"flight_power": math.nan}, "cost parameter 'flight_power' must be finite"),
        ("cost", {"mass": math.nan}, "cost parameter 'mass' must be finite, got nan"),
        ("cost", {"ground_speed": -math.inf}, "cost parameter 'ground_speed' must be finite"),
        ("cost", {"dwa": {"d_sat": math.nan}}, "dwa parameter 'd_sat' must be finite, got nan"),
        ("cost", {"sim": {"dt": math.inf}}, "sim parameter 'dt' must be finite, got inf"),
        # Finite times whose tick counts overflow.
        (
            "cost",
            {"sim": {"max_mission_time": 1e308}},
            "sim parameter 'max_mission_time' is too many ticks",
        ),
        ("cost", {"dwa": {"horizon": 1e308}}, "dwa parameter 'horizon' is too many ticks"),
        (
            "cost",
            {"morph_duration": 1e306, "sim": {"dt": 0.001}, "dwa": {"dt": 0.001}},
            "cost parameter 'morph_duration' is too many ticks of dt 0.001 s",
        ),
        # Finite parameters whose products overflow (m*g = inf prices as NaN).
        ("cost", {"mass": 1e308}, "cost product 'mass * gravity' must be finite, got inf"),
        (
            "cost",
            {"morph_power": 1e308, "morph_duration": 10},
            "cost product 'morph_power * morph_duration' must be finite, got inf",
        ),
        # Finite parameters whose edge prices overflow in the arena.
        (
            "plan-cost",
            {"flight_power": 1e308, "mass": 1e307},
            "cost model overflows pricing a 13.7477 m edge climbing 3 m",
        ),
        ("latency", "nan", "sim parameter 'actuation_latency' must be finite, got nan"),
        ("latency", "inf", "sim parameter 'actuation_latency' must be finite, got inf"),
        ("latency", "1e308", "sim parameter 'actuation_latency' is too many ticks"),
        # A rollout window over the cap, refused before it is built.
        ("cost", {"dwa": {"horizon": 1e5}}, "dwa rollout window of 231000231 poses exceeds"),
        ("cost", {"dwa": {"samples_v": 10**6}}, "dwa rollout window of 231000000 poses exceeds"),
        ("oracle", ("--heuristic-scale", "nan"), "--heuristic-scale must be finite, got nan"),
        ("oracle", ("--heuristic-scale", "inf"), "--heuristic-scale must be finite, got inf"),
        # Zero queries would compare no A* result and still report a pass.
        ("oracle", ("--queries", 0), "--queries must be positive"),
        ("oracle", ("--queries", -5), "--queries must be positive"),
        # Queries pick random nodes, so an empty roadmap has none to pick.
        ("oracle", ("--nw", 0, "--nf", 0), "--nw plus --nf must be positive"),
    ]
    for i, (kind, patch, fragment) in enumerate(cases):
        path = tmp_path / f"{kind}{i}.json"
        if kind == "latency":
            args = ("simulate", "--env", ARENA, "--latency", patch)
        elif kind == "oracle":
            args = ("oracle", "--n", 1, "--queries", 1, *patch)
        elif kind in ("cost", "plan-cost"):
            path.write_text(json.dumps(patch))
            command = "simulate" if kind == "cost" else "plan"
            args = (command, "--env", ARENA, "--cost-config", path)
        elif kind == "prm":
            path.write_text(json.dumps({**scenario, "prm": {**scenario["prm"], **patch}}))
            args = ("roadmap", "--env", path)
        else:
            path.write_text(json.dumps({**scenario, **patch}))
            args = ("plan", "--env", path)
        argv = [str(a) for a in (*args, "--out", tmp_path / "out")]
        if i == 0:
            # One case through the installed entry point's sys.exit(main()).
            proc = run_cli(*argv)
            code, stderr = proc.returncode, proc.stderr
        else:
            # The rest in process: a warning raises here, so it fails the test.
            code, stderr = cli.main(argv), capsys.readouterr().err
        assert code == 1, patch
        assert f"config error: {fragment}" in stderr, (patch, stderr)
        assert "Traceback" not in stderr, patch
        assert "Warning" not in stderr, patch


def test_huge_finite_radius_plans(tmp_path):
    # A finite radius whose square overflows connects every pair in reach.
    proc = run_cli(
        "plan", "--env", ARENA, "--nw", 5, "--nf", 5, "--radius", 1e308, "--out", tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path, "plan.json")["n_transitions"] == 2


def test_isolated_query_exits_two(tmp_path):
    proc = run_cli(
        "plan", "--env", ARENA, "--nw", 40, "--nf", 40,
        "--radius", 0.05, "--out", tmp_path,
    )
    assert proc.returncode == 2
    assert "no path" in proc.stderr


def test_failed_mission_exits_three(tmp_path):
    # a waypoint buried in the wall is a runtime failure, not a config error
    proc = run_cli(
        "simulate", "--env", ARENA, "--waypoints", "5.0,3.0,0.5",
        "--out", tmp_path,
    )
    assert proc.returncode == 3
    assert "failure:" in proc.stderr
    doc = read_json(tmp_path, "mission.json")
    assert doc["outcome"] == "Failed"
    assert "waypoint 0" in doc["reason"]


# -- roadmap command ---------------------------------------------------------------


def test_roadmap_outputs(tmp_path):
    proc = run_cli(
        "roadmap", "--env", ARENA, "--nw", 50, "--nf", 30, "--out", tmp_path
    )
    assert proc.returncode == 0
    assert "roadmap: 80 nodes" in proc.stdout
    doc = read_json(tmp_path, "roadmap.json")
    assert len(doc["nodes"]) == 80
    modes = [n["mode"] for n in doc["nodes"]]
    assert modes.count("Ground") == 50
    assert modes.count("Aerial") == 30
    svg = read_bytes(tmp_path, "roadmap.svg")
    assert svg.startswith(b"<svg")


def test_roadmap_param_precedence(tmp_path):
    # flags beat the scenario prm block, which beats the built-in defaults
    proc = run_cli(
        "roadmap", "--env", ARENA, "--nw", 12, "--nf", 8,
        "--out", tmp_path / "flags",
    )
    assert proc.returncode == 0
    assert len(read_json(tmp_path / "flags", "roadmap.json")["nodes"]) == 20

    proc = run_cli("roadmap", "--env", ARENA, "--out", tmp_path / "scn")
    assert proc.returncode == 0
    # walled_arena.json carries prm: n_ground 300, n_air 300
    assert len(read_json(tmp_path / "scn", "roadmap.json")["nodes"]) == 600

    proc = run_cli("roadmap", "--env", OPEN_FIELD, "--out", tmp_path / "open")
    assert proc.returncode == 0
    # open_field.json carries prm: n_ground 300, n_air 300
    assert len(read_json(tmp_path / "open", "roadmap.json")["nodes"]) == 600


def test_roadmap_without_prm_block_uses_library_defaults(tmp_path):
    # A scenario with no prm block samples the PrmParams() sizes, as
    # build_roadmap does in the library.
    from morphnav.env import environment_from_dict
    from morphnav.roadmap import PrmParams, build_roadmap, roadmap_to_dict

    scenario = json.loads(Path(OPEN_FIELD).read_text())
    del scenario["prm"]
    path = tmp_path / "no_prm.json"
    path.write_text(json.dumps(scenario))
    proc = run_cli("roadmap", "--env", path, "--seed", 5, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    built = build_roadmap(environment_from_dict(scenario), CM, PrmParams(seed=5))
    assert len(built.positions) == 400
    assert proc.stdout.startswith("roadmap: 400 nodes, ")
    assert read_json(tmp_path, "roadmap.json") == json.loads(json.dumps(roadmap_to_dict(built)))


def test_roadmap_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        proc = run_cli(
            "roadmap", "--env", ARENA, "--nw", 60, "--nf", 60,
            "--out", tmp_path / sub,
        )
        assert proc.returncode == 0
    for name in ("roadmap.json", "roadmap.svg"):
        assert read_bytes(tmp_path / "a", name) == read_bytes(tmp_path / "b", name)


# -- plan command ------------------------------------------------------------------

PLAN_KEYS = [
    "cost_flight",
    "cost_ground",
    "cost_transition",
    "expanded",
    "goal",
    "n_transitions",
    "node_ids",
    "nodes",
    "segments",
    "start",
    "total_cost",
]


def test_plan_document_shape(tmp_path):
    proc = run_cli(
        "plan", "--env", ARENA, "--nw", 150, "--nf", 150, "--out", tmp_path
    )
    assert proc.returncode == 0
    assert "plan: cost" in proc.stdout
    assert "2 transitions" in proc.stdout

    doc = read_json(tmp_path, "plan.json")
    assert sorted(doc) == PLAN_KEYS
    assert doc["start"] == [1.0, 3.0, 0.0]
    assert doc["goal"] == [10.0, 3.0, 0.0]
    assert doc["n_transitions"] == 2
    total = doc["cost_ground"] + doc["cost_flight"] + doc["cost_transition"]
    assert math.isclose(doc["total_cost"], total, rel_tol=1e-9)
    assert len(doc["nodes"]) == len(doc["node_ids"])
    assert doc["nodes"][0]["position"] == doc["start"]
    assert doc["nodes"][-1]["position"] == doc["goal"]
    kinds = {s["kind"] for s in doc["segments"]}
    assert kinds <= {"Drive", "MorphThenFly", "Fly", "LandThenMorph"}
    assert "MorphThenFly" in kinds and "LandThenMorph" in kinds


def test_plan_edges_csv(tmp_path):
    proc = run_cli(
        "plan", "--env", ARENA, "--nw", 150, "--nf", 150, "--out", tmp_path
    )
    assert proc.returncode == 0
    doc = read_json(tmp_path, "plan.json")
    lines = (Path(tmp_path) / "plan_edges.csv").read_text().splitlines()
    assert lines[0] == "index,a,b,kind,length,cost"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(doc["node_ids"]) - 1
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert {r[3] for r in rows} <= {"Ground", "Flight", "Transition"}
    # full-precision costs in the CSV reproduce the plan total exactly
    assert math.isclose(
        sum(float(r[5]) for r in rows), doc["total_cost"], rel_tol=1e-9
    )
    svg = read_bytes(tmp_path, "plan.svg")
    assert svg.startswith(b"<svg")


def test_plan_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        proc = run_cli(
            "plan", "--env", ARENA, "--nw", 150, "--nf", 150,
            "--out", tmp_path / sub,
        )
        assert proc.returncode == 0
    for name in ("plan.json", "plan_edges.csv", "plan.svg"):
        assert read_bytes(tmp_path / "a", name) == read_bytes(tmp_path / "b", name)


def test_plan_seed_changes_roadmap(tmp_path):
    for seed in (1, 2):
        proc = run_cli(
            "plan", "--env", ARENA, "--nw", 150, "--nf", 150,
            "--seed", seed, "--out", tmp_path / str(seed),
        )
        assert proc.returncode == 0
    assert read_bytes(tmp_path / "1", "plan.json") != read_bytes(
        tmp_path / "2", "plan.json"
    )


def test_plan_ground_only_with_overrides(tmp_path):
    proc = run_cli(
        "plan", "--env", OPEN_FIELD, "--nw", 150, "--nf", 0,
        "--radius", 3.5, "--start", "2,2,0", "--goal", "18,18,0",
        "--out", tmp_path,
    )
    assert proc.returncode == 0
    doc = read_json(tmp_path, "plan.json")
    assert doc["start"] == [2.0, 2.0, 0.0]
    assert doc["goal"] == [18.0, 18.0, 0.0]
    assert doc["n_transitions"] == 0
    assert doc["cost_flight"] == 0.0
    assert doc["cost_transition"] == 0.0
    assert {s["kind"] for s in doc["segments"]} == {"Drive"}


# -- simulate command --------------------------------------------------------------

MISSION_KEYS = [
    "descend_overshoot",
    "duration",
    "energy",
    "final_position",
    "morph_count",
    "outcome",
    "reason",
    "timeline",
    "waypoints_reached",
]

TRAJECTORY_HEADER = (
    "t,x,y,z,yaw,mode,phase,v,omega,e_ground,e_flight,e_transition,e_total,collided"
)


def test_simulate_mission_document(tmp_path):
    proc = run_cli("simulate", "--env", ARENA, "--out", tmp_path)
    assert proc.returncode == 0
    assert "mission: Done" in proc.stdout

    doc = read_json(tmp_path, "mission.json")
    assert sorted(doc) == MISSION_KEYS
    assert doc["outcome"] == "Done"
    assert doc["morph_count"] == 2
    assert doc["waypoints_reached"] == 3
    energy = doc["energy"]
    assert sorted(energy) == ["flight", "ground", "total", "transition"]
    parts = energy["ground"] + energy["flight"] + energy["transition"]
    assert math.isclose(energy["total"], parts, rel_tol=1e-9)
    assert doc["timeline"][0]["phase"] == "GroundNav"
    assert doc["timeline"][-1]["phase"] == "Done"
    fx, fy, fz = doc["final_position"]
    assert math.dist((fx, fy, fz), (10.0, 3.0, 0.0)) <= 0.2

    lines = (Path(tmp_path) / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) - 1 == round(doc["duration"] / 0.1) + 1
    assert read_bytes(tmp_path, "mission.svg").startswith(b"<svg")


def test_simulate_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        proc = run_cli("simulate", "--env", ARENA, "--out", tmp_path / sub)
        assert proc.returncode == 0
    for name in ("trajectory.csv", "mission.json", "mission.svg"):
        assert read_bytes(tmp_path / "a", name) == read_bytes(tmp_path / "b", name)


def test_simulate_latency_flag(tmp_path):
    proc = run_cli(
        "simulate", "--env", ARENA, "--latency", 1.0, "--out", tmp_path
    )
    assert proc.returncode == 0
    doc = read_json(tmp_path, "mission.json")
    assert doc["outcome"] == "Done"
    assert doc["descend_overshoot"] > 0.0


def test_simulate_mmprm_pipeline(tmp_path):
    proc = run_cli(
        "simulate", "--env", ARENA, "--pipeline", "mmprm", "--out", tmp_path
    )
    assert proc.returncode == 0
    doc = read_json(tmp_path, "mission.json")
    assert doc["outcome"] == "Done"
    assert doc["morph_count"] == 2
    assert doc["energy"]["flight"] > 0.0


def test_simulate_explicit_cost_config(tmp_path):
    proc = run_cli(
        "simulate", "--env", ARENA, "--cost-config", DEFAULT_COSTS,
        "--out", tmp_path / "cfg",
    )
    assert proc.returncode == 0
    base = run_cli("simulate", "--env", ARENA, "--out", tmp_path / "plain")
    assert base.returncode == 0
    # the shipped config file restates the defaults, so outputs agree
    assert read_bytes(tmp_path / "cfg", "mission.json") == read_bytes(
        tmp_path / "plain", "mission.json"
    )


# -- oracle command ----------------------------------------------------------------

ORACLE_KEYS = [
    "admissibility_violations",
    "expansion_regressions",
    "heuristic_scale",
    "max_rel_cost_discrepancy",
    "mismatches",
    "n_queries",
    "n_roadmaps",
    "pass",
    "queries_per_roadmap",
]


def test_oracle_passes_on_small_batch(tmp_path):
    proc = run_cli(
        "oracle", "--n", 2, "--nw", 60, "--nf", 60, "--queries", 4,
        "--out", tmp_path,
    )
    assert proc.returncode == 0
    doc = read_json(tmp_path, "oracle.json")
    assert sorted(doc) == ORACLE_KEYS
    assert doc["pass"] is True
    assert doc["mismatches"] == 0
    assert doc["admissibility_violations"] == 0
    assert doc["n_roadmaps"] == 2
    assert doc["queries_per_roadmap"] == 4


def test_oracle_detects_inflated_heuristic(tmp_path):
    # scaling the heuristic above 1 must trip the admissibility check
    proc = run_cli(
        "oracle", "--n", 2, "--nw", 60, "--nf", 60, "--queries", 10,
        "--heuristic-scale", 10.0, "--out", tmp_path,
    )
    assert proc.returncode == 4
    doc = read_json(tmp_path, "oracle.json")
    assert doc["pass"] is False
    assert doc["admissibility_violations"] > 0
    assert doc["heuristic_scale"] == 10.0


# -- console entry point -----------------------------------------------------------


def test_console_script_available():
    exe = shutil.which("morphnav")
    if exe is None:
        import pytest

        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_runtime_path_does_not_import_scipy(tmp_path):
    # scipy is a test-only dependency. Importing it costs tens of MB and a
    # large share of a cold start, so no subcommand may pull it in.
    commands = [
        ["roadmap", "--env", ARENA],
        ["plan", "--env", ARENA],
        ["simulate", "--env", ARENA],
        ["oracle", "--n", "2", "--queries", "3"],
    ]
    code = (
        "import sys\n"
        "import morphnav.cli\n"
        f"for argv in {commands!r}:\n"
        f"    rc = morphnav.cli.main(argv + ['--out', {str(tmp_path)!r}])\n"
        "    assert rc == 0, (argv, rc)\n"
        "    assert 'scipy' not in sys.modules, ('scipy was imported', argv)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("roadmap.json", "plan.json", "mission.json", "oracle.json"):
        assert (tmp_path / name).exists(), name


def test_commands_read_no_roadmap_record_view(tmp_path):
    # Every command reads the roadmap's columns. The record views and
    # other_end remain for the benchmark alone; any access here fails.
    commands = [
        ["roadmap", "--env", ARENA],
        ["plan", "--env", ARENA],
        ["simulate", "--env", ARENA, "--pipeline", "mmprm"],
        ["oracle", "--n", "2", "--queries", "3"],
    ]
    code = (
        "import morphnav.cli\n"
        "from morphnav.roadmap import Roadmap\n"
        "def refuse(self):\n"
        "    raise AssertionError('record view read')\n"
        "for name in ('nodes', 'edges', 'adjacency', 'other_end', '_node', '_edge', '_incident'):\n"
        "    setattr(Roadmap, name, property(refuse))\n"
        f"for argv in {commands!r}:\n"
        f"    rc = morphnav.cli.main(argv + ['--out', {str(tmp_path)!r}])\n"
        "    assert rc == 0, (argv, rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_output(tmp_path):
    # The quick start shows what `plan` and `simulate` print, as comment
    # lines under each command; the commands must print exactly that.
    block = README.read_text().split("## Quick start", 1)[1]
    lines = block.split("```sh", 1)[1].split("```", 1)[0].splitlines()
    checked = []
    for i, line in enumerate(lines):
        if not line.startswith(("morphnav plan ", "morphnav simulate ")):
            continue
        shown = []
        for nxt in lines[i + 1 :]:
            if not nxt.startswith("# "):
                break
            shown.append(nxt[2:])
        args = line.split()[1:]
        args[args.index("--out") + 1] = str(tmp_path)
        proc = run_cli(*args)
        assert proc.returncode == 0, (line, proc.stderr)
        assert proc.stdout == " ".join(shown) + "\n", line
        checked.append(args[0])
    assert checked == ["plan", "simulate"]


def test_readme_library_example_runs():
    # The Library block runs as written from the repo root, gives the plan
    # and mission figures its comments show, and never imports scipy.
    block = README.read_text().split("## Library", 1)[1]
    code = block.split("```python", 1)[1].split("```", 1)[0]
    assert "# 4185.97 J, 2 transitions" in code and "# Done 4904.29" in code
    code += (
        "import sys\n"
        "print(round(plan.total_cost, 2), plan.n_transitions, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Done 4904.29", "4185.97 2 False"]
