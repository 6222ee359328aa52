"""The golden outputs: one table of pinned command-line runs.

Each row is one `morphnav` command, run from the repository root with its
outputs in a fresh directory: its exit code, its exact stdout line ("" for
none), a substring of its stderr, the sha256 of named output files, and
whether a rerun in a fresh interpreter must give byte-identical outputs. A
change that moves a pinned value edits the rows it moves, by hand, and says
why; nothing rewrites this table.

tests/test_golden.py runs every row in-process through `cli.main`, and so
does this module, which needs neither pytest nor scipy:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from morphnav import cli

REPO = Path(__file__).resolve().parents[1]


class Row(NamedTuple):
    argv: str  # "{out}" in an argument is the run's output directory
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    files: dict = {}  # output file -> sha256
    rerun: bool = False
    inputs: dict = {}  # file written into the output directory first -> its text


_arena = json.loads((REPO / "scenarios" / "walled_arena.json").read_text())
MISSION = "mission: Done in 23.1 s, energy 4904.3 J, 2 morphs"
MISSION_FILES = {
    "trajectory.csv": "364309eb553af89948d1556f1a226c2e5159944e8ae6c6cc846b428f6035bc32",
    "mission.json": "5579525d6aacd68b5a8026ed751afedc31b05423016a74eae35ef7f01c85581b",
}
CHEAP_FLIGHT = {"cheap_flight.json": '{"flight_power": 150}'}

ROWS = [
    # The README's walled-arena commands: a build change that moves one edge,
    # a search change that moves a cost or an expansion count, or a
    # controller change that moves one pick, and so one float of the
    # records, fails here.
    Row("roadmap --env scenarios/walled_arena.json --seed 1",
        stdout="roadmap: 600 nodes, 13006 edges, 0 isolated", rerun=True,
        files={"roadmap.json": "56869e67a3831e9bb6ce51d765eef78a3e8ddd67592debb943cbd78f945bbb1e"}),
    Row("plan --env scenarios/walled_arena.json --seed 1", rerun=True,
        stdout="plan: cost 4185.968 J (ground 1075.968, flight 2710.000, transition 400.000), "
        "2 transitions, 329 expanded",
        files={"plan.json": "30a7bf74f1f31a303558da5b713438265dcca060c9c9067b9949190c27cbc37f",
               "plan_edges.csv": "ea967d34200550515d7915b80dd1bae65d0959ebdc15bf5ee297e6f0aec1b7e8"}),
    Row("simulate --env scenarios/walled_arena.json --seed 1",
        stdout=MISSION, files=MISSION_FILES, rerun=True),
    Row("simulate --env scenarios/walled_arena.json --seed 1 --latency 0.2", rerun=True,
        stdout="mission: Done in 23.5 s, energy 5311.1 J, 2 morphs",
        files={"trajectory.csv": "0b34eed0ba6d335a5cc1156ec29921e9b28dd307fd01a607032a44454ee6ae4c",
               "mission.json": "187eaaffbc17716455189f6e2b46c9ff9703e1924866af4c3f6e8a28db2d5516"}),
    # The shipped config restates every default, so the mission is the plain one.
    Row("simulate --env scenarios/walled_arena.json --seed 1 "
        "--cost-config scenarios/default_costs.json", stdout=MISSION, files=MISSION_FILES),
    Row("simulate --env scenarios/walled_arena.json --seed 1 --pipeline mmprm",
        stdout="mission: Done in 25.5 s, energy 4952.3 J, 2 morphs",
        files={"trajectory.csv": "47fa184fa36ee69dc18c8a3dcec9de730220dc3ef8d1f330ad058ba2edb6b9e5",
               "mission.json": "da23bc4bbcccd9698f57ef108d7b63646e2be86026b2430c92a233c506f20adb"}),
    # A known defect, ROADMAP item 4's DWA freeze: the robot stalls at an
    # inflated corner until the mission's time limit. Its fix edits this row.
    Row("simulate --env scenarios/walled_arena.json --seed 1 --pipeline mmprm --latency 0.3",
        code=3, stdout="mission: Failed in 300.1 s, energy 4993.3 J, 2 morphs",
        stderr="failure: mission time limit exceeded"),
    # A start inside the wall fails the mission before its first tick.
    Row("simulate --env scenarios/walled_arena.json --seed 1 --start 5,3,0",
        code=3, stdout="mission: Failed in 0.1 s, energy 0.0 J, 0 morphs",
        files={"trajectory.csv": "0a2a25334186810eeb49dbec8d385f8926e02f9012071474f3a88d897ef1a3ff",
               "mission.json": "fc69971030fe792285170bceb8eafb4527db0584b52da909fa977d39b8684819"}),
    # With flight disabled the robot stops at the wall: the no-drivable-path
    # branch for waypoint 1 fails the mission.
    Row("simulate --env scenarios/walled_arena.json --seed 1 --cost-config {out}/no_flight.json",
        code=3, stdout="mission: Failed in 4.2 s, energy 492.0 J, 0 morphs",
        files={"trajectory.csv": "dbcd9d5cc70c572ae8f0fa8ff5e9d0867358fc4de98b69700b2c67aac4014647",
               "mission.json": "df1a83fd44f5b8995bfc1f5267a671e7580eabda7d30f24002c7a14db4649112"},
        inputs={"no_flight.json": '{"sim": {"assume_flyable": false}}'}),
    Row("oracle --n 2", stdout="oracle: 20 queries over 2 roadmaps, "
        "max rel discrepancy 0.00e+00, 0 admissibility violations"),
    # The open field from its own prm sizes, then the worlds of tests/worlds.py:
    # a build change that moves one edge among 100 overlapping or touching
    # boxes, on either heightmap (ground verdicts, or both narrow passes), or
    # across the many sweep rectangles of a larger world fails here.
    Row("roadmap --env scenarios/open_field.json --seed 3",
        stdout="roadmap: 600 nodes, 2556 edges, 5 isolated",
        files={"roadmap.json": "9767f44feb5b17cd2450edb6856af0b4143d3c4c67db4669b5b938816e8f6c34"}),
    Row("roadmap --env scenarios/cluttered_boxes.json --seed 1",
        stdout="roadmap: 800 nodes, 8417 edges, 0 isolated",
        files={"roadmap.json": "7831872807124f71672a2013b29390244fe4b84814544602af9336bf1b00b791"}),
    Row("roadmap --env scenarios/stepped_heightmap.json --seed 1",
        stdout="roadmap: 400 nodes, 5911 edges, 0 isolated",
        files={"roadmap.json": "6ae625bf9b98289b6b108d34da575564d0092d44ca590ae73121e891a7f36b8b"}),
    Row("roadmap --env scenarios/sinusoid_heightmap.json --seed 1",
        stdout="roadmap: 600 nodes, 9577 edges, 0 isolated",
        files={"roadmap.json": "d1048215e15f9cb44e2e44d93e184963f2389ca8134514dc142ad1b2f951fb88"}),
    Row("roadmap --env scenarios/tiled_arena.json --seed 7",
        stdout="roadmap: 2400 nodes, 59238 edges, 0 isolated",
        files={"roadmap.json": "366db3d4da0b252b2dae261e90e1af6642da41a97c216b87476d41f26ec1a8c2"}),
    Row("simulate --env scenarios/open_field.json --seed 1",
        stdout="mission: Done in 12.7 s, energy 1512.0 J, 0 morphs"),
    Row("plan --env scenarios/open_field.json --seed 1", stdout="plan: cost 1383.551 J "
        "(ground 1383.551, flight 0.000, transition 0.000), 0 transitions, 12 expanded"),
    # 100 ground nodes leave the start with no edge at the 2 m build radius
    # and five at the doubled 4 m retry radius.
    Row("plan --env scenarios/open_field.json --nw 100 --nf 0 --seed 8", stdout="plan: cost "
        "1633.272 J (ground 1633.272, flight 0.000, transition 0.000), 0 transitions, 17 expanded",
        files={"plan.json": "f2b39c9ca3efe6d9bd53606d64a03798e949c2815c1b2c64c344f4d66346cabf",
               "plan_edges.csv": "dc355b4fab8e8497a3187051ea900aa2a5a7fdfe149fa409fab5655b82a895c8"}),
    Row("oracle --n 1 --queries 0", code=1),
    Row("oracle --n 1 --nw 0 --nf 0", code=1),
    Row("roadmap --env scenarios/walled_arena.json --nw 5 --nf 5 --radius 1e308",
        stdout="roadmap: 10 nodes, 33 edges, 0 isolated"),
    # The exact swept test takes any non-negative clearance; at 1e-300 the
    # plan must still fly over the arena's wall, not drive through it.
    Row("plan --env {out}/tiny_clearance.json --seed 1", stdout="plan: cost 3559.550 J "
        "(ground 933.966, flight 2225.584, transition 400.000), 2 transitions, 295 expanded",
        inputs={"tiny_clearance.json": json.dumps(
            {**_arena, "prm": {**_arena["prm"], "clearance": 1e-300}})}),
    Row("roadmap --env {out}/infinite_bounds.json", code=1,
        inputs={"infinite_bounds.json": '{"bounds": {"min": [0, 0, 0], "max": [Infinity, 6, 3]}}'}),
    # Cost configs refused before any work: m*g overflows, edge prices
    # overflow, a flight rate below hypot(G, 2 * m * g) J/m leaves the A*
    # bound inconsistent, a morph lasts too many ticks. stderr names the
    # cause, or any other config error would pass.
    Row("plan --env scenarios/walled_arena.json --cost-config {out}/overflow_costs.json", code=1,
        inputs={"overflow_costs.json": '{"mass": 1e308}'}),
    Row("plan --env scenarios/walled_arena.json --cost-config {out}/overflow_prices.json", code=1,
        stderr="overflows pricing", inputs={"overflow_prices.json": '{"flight_power": 5e307}'}),
    Row("plan --env scenarios/walled_arena.json --cost-config {out}/cheap_flight.json", code=1,
        stderr="flight_power/flight_speed = 150 J/m", inputs=CHEAP_FLIGHT),
    Row("oracle --n 1 --cost-config {out}/cheap_flight.json", code=1,
        stderr="flight_power/flight_speed = 150 J/m", inputs=CHEAP_FLIGHT),
    Row("simulate --env scenarios/walled_arena.json --cost-config {out}/slow_morph.json", code=1,
        stderr="morph_duration",
        inputs={"slow_morph.json": '{"morph_duration": 1e306, "dwa": {"dt": 0.001}}'}),
]


def run(row, out, fresh=False):
    """(exit code, stdout, stderr, {file: bytes}) of the row, run from the
    repository root into `out`: in-process, or in a fresh interpreter."""
    out.mkdir(parents=True)
    for name, text in row.inputs.items():
        (out / name).write_text(text)
    argv = [a.format(out=out) for a in row.argv.split()] + ["--out", str(out)]
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "morphnav.cli", *argv],
                              cwd=REPO, capture_output=True, text=True)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    else:
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(REPO)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
    return code, stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def check(row, tmp):
    """What in the row does not hold, run under the directory `tmp`."""
    first = code, stdout, stderr, files = run(row, tmp / "run")
    want = row.stdout + "\n" if row.stdout else ""
    problems = []
    if code != row.code:
        problems.append(f"exit code {code}, want {row.code}")
    if stdout != want:
        problems.append(f"stdout {stdout!r}, want {want!r}")
    if row.stderr not in stderr:
        problems.append(f"stderr {stderr!r} lacks {row.stderr!r}")
    for name, digest in row.files.items():
        got = hashlib.sha256(files[name]).hexdigest() if name in files else "missing"
        if got != digest:
            problems.append(f"{name} sha256 {got}, want {digest}")
    if row.rerun and run(row, tmp / "rerun", fresh=True) != first:
        problems.append("a rerun in a fresh interpreter differs")
    return problems


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(ROWS):
            problems = check(row, Path(tmp) / str(i))
            print(("FAIL " if problems else "ok   ") + row.argv, *problems, sep="\n     ")
            failed += bool(problems)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
