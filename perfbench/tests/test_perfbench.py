"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They run every workload briefly, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must repeat exactly between two traced runs:
#: every count and cache hit ratio, except the lint searches that stopped
#: on their wall-clock budget.
REPEATING = sorted(
    m["name"] for m in SPEC["per_layer"]
    if (m["unit"] == "count" or m["name"].endswith("cache_hit_ratio"))
    and m["name"] != "lint.verify_time_stops"
)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.fixture(scope="module")
def program():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import importlib

    return {w: importlib.import_module(f"perfbench.{w}") for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_request_list_digest_is_a_function_of_the_seed(program, workload):
    from perfbench.harness import digest

    module = program[workload]

    def list_digest(seed: int) -> str:
        return digest(module.generate(seed, 1).describe())

    assert list_digest(5) == list_digest(5)
    assert list_digest(5) != list_digest(6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    out = result(run(workload, seed=3, trace=0))
    assert out["correct"] is True
    assert out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, value in out["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_repeat_their_counts(workload):
    first, second = (result(run(workload, seed=4, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in (first, second):
        assert out["correct"] is True
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name in REPEATING:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run("simulate", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
