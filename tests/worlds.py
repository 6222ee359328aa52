"""Writes the committed test worlds under scenarios/.

    PYTHONPATH=src python tests/worlds.py

Each maker returns a scenario dict; `render` is the file's exact text, so a
tier-1 test can check that the committed files are this module's output.
"""

import json
import math
import re
from pathlib import Path

from morphnav.rng import SplitMix64

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def cluttered_boxes():
    """100 SplitMix64(100) boxes in a 20 x 12 x 3 m world, some overlapping,
    every fourth touching the +x face of the box before it."""
    r = SplitMix64(100)
    boxes = []
    for i in range(100):
        lo = [r.random() * 19.0, r.random() * 11.0, r.random() * 2.5]
        if i % 4 == 3:
            lo = [boxes[-1]["max"][0], boxes[-1]["min"][1], boxes[-1]["min"][2]]
        boxes.append({"min": lo, "max": [v + 0.1 + r.random() for v in lo]})
    return {"bounds": {"min": [0, 0, 0], "max": [20, 12, 3]}, "obstacles": boxes,
            "prm": {"n_ground": 400, "n_air": 400, "radius": 2.0}}


def stepped_heightmap():
    """Plateaus at 0, 0.5 and 1 m joined by one-lattice-cell ramps, one box."""
    row = [0, 0, 0, 0.5, 0.5, 0.5, 1, 1]
    return {"bounds": {"min": [0, 0, 0], "max": [10.5, 6, 4]},
            "obstacles": [{"min": [2, 2, 0], "max": [2.5, 4, 2]}],
            "ground": {"heightmap": {"origin": [0, 0], "resolution": 1.5,
                                     "rows": 5, "cols": 8, "data": row * 5}}}


def sinusoid_heightmap():
    """A sinusoid heightmap under seven boxes, so most candidate segments
    are tested against both the ground and a box."""
    data = [0.3 * math.sin(0.5 * j) * math.cos(0.5 * i) + 0.3 for i in range(7) for j in range(13)]
    boxes = [{"min": [1 + 1.5 * k, 0.5 + 0.6 * k, 0],
              "max": [1.8 + 1.5 * k, 1.5 + 0.6 * k, 1 + 0.3 * k]} for k in range(7)]
    return {"bounds": {"min": [0, 0, 0], "max": [12, 6, 3]}, "obstacles": boxes,
            "ground": {"heightmap": {"origin": [0, 0], "resolution": 1.0,
                                     "rows": 7, "cols": 13, "data": data}},
            "prm": {"n_ground": 300, "n_air": 300, "radius": 2.0, "min_air_clearance": 0.4}}


def tiled_arena():
    """The walled arena tiled 2 x 2 at its node density: a 1 m wall every 12 m."""
    return {"bounds": {"min": [0, 0, 0], "max": [24, 12, 3]},
            "obstacles": [{"min": [4.9, 0, 0], "max": [5.1, 12, 1]},
                          {"min": [16.9, 0, 0], "max": [17.1, 12, 1]}],
            "prm": {"n_ground": 1200, "n_air": 1200, "radius": 2.0, "min_air_clearance": 1.4}}


WORLDS = {
    "cluttered_boxes.json": cluttered_boxes,
    "stepped_heightmap.json": stepped_heightmap,
    "sinusoid_heightmap.json": sinusoid_heightmap,
    "tiled_arena.json": tiled_arena,
}


def render(scenario):
    """Indented JSON with each list of numbers on one line."""
    text = json.dumps(scenario, indent=2)
    flat = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text)
    return flat + "\n"


if __name__ == "__main__":
    for name, make in WORLDS.items():
        (SCENARIOS / name).write_text(render(make()))
