"""The benchmark's own test: every workload at a tiny size.

    python3 -m pytest perfbench -q

Checks that each run reports exactly the metrics BENCHMARK.json lists,
with their units; that no op fails; that traced and untraced runs at one
seed produce the same output digest; and that every count repeats
exactly across two traced runs at one seed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SEED = 7


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _reported(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _is_count(name: str) -> bool:
    """Counts repeat exactly; times, and ratios of times, do not."""
    return not (name.endswith(".self_s") or name.startswith("trace."))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload):
    plain, plain_info = run.run_benchmark(workload, SEED, 0, trace=0, tiny=True)
    assert _reported(plain) == _units("end_to_end")
    assert plain["correct"] and plain["failed"] == 0, plain_info["errors"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [run.run_benchmark(workload, SEED, 0, trace=1, tiny=True) for _ in range(2)]
    for result, info in traced:
        assert _reported(result) == _units("per_layer")
        assert result["correct"] and result["metrics"]["fail_rate"]["value"] == 0, info["errors"]
        assert info["digest"] == plain_info["digest"]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if _is_count(k)} for r, _ in traced]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package():
    bare = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "split-h2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
