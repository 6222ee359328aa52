"""Smoke tests of the benchmark itself, at tiny size.

    python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
TINY = {"n_ground": 60, "n_air": 60}


@pytest.fixture(scope="module", autouse=True)
def program():
    run.load_program()


def tiny_run(workload, trace, wl=None):
    return run.run_benchmark(
        workload, seed=1, seconds=0.01, trace=trace, wl=wl,
        prm_override=TINY, setup_repeats=1, reference=False,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, record = tiny_run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0.0
    for key in ("python", "numpy", "scipy", "nproc", "seed", "samples"):
        assert key in record
    if trace:
        assert record["samples"]["traced_ops"] >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_plan(out):
    rm, plan = out
    return rm, dataclasses.replace(plan, total_cost=plan.total_cost * 1.001)


def _corrupt_mission(out):
    res, tick_s = out
    res.morph_count += 1
    return res, tick_s


def _corrupt_query(plan):
    return dataclasses.replace(plan, node_ids=plan.node_ids[::-1])


CORRUPTIONS = {
    "arena-plan": _corrupt_plan,
    "arena-mission": _corrupt_mission,
    "arena-queries": _corrupt_query,
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(workload):
    from workloads import WORKLOADS

    base = WORKLOADS[workload]
    corrupt = CORRUPTIONS[workload]

    class Corrupted(base):
        def op(self, state, inp, *call):
            return corrupt(base.op(self, state, inp, *call))

    result, record = tiny_run(workload, False, Corrupted(str(run.SCENARIO), TINY))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["error_rate"] == 1.0
    assert record["failures"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "arena-plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
