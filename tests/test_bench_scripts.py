"""Smoke runs of the benchmark scripts that read the package's internals.

Each script runs once, from the checkout as documented, and only the shape
of its output is checked: which rows it prints, never their timings.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import COVERS, HUGE_N, MULTI, SPLIT_DENSE, SPLIT_H2, _label  # noqa: E402


def _run(script: str, *args: str) -> list[str]:
    """The output lines of `benchmarks/<script>`, which finds `src/` itself."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_src_size_lists_every_module_and_totals_the_columns():
    header, *rows = map(str.split, _run("src_size.py"))
    assert header == ["module", "lines", "stmts"]
    modules = sorted(p.name for p in (ROOT / "src" / "hypfactor").glob("*.py"))
    assert [name for name, _, _ in rows] == modules + ["total"]
    *counts, total = [(int(lines), int(stmts)) for _, lines, stmts in rows]
    assert total == tuple(map(sum, zip(*counts)))


def test_bench_moves_prints_one_line_per_split_workload():
    lines = _run("bench_moves.py", "--passes", "1")
    assert [line.split()[0] for line in lines] == ["split-h2", "split-dense"]


def test_bench_verify_prints_one_line_per_input():
    lines = _run("bench_verify.py", "--passes", "1")
    docs = ([f"cover n={n} h={h} lam={lam}" for n, h, lam in COVERS] + [_label(*spec) for spec in MULTI]
            + ["dropped edge", "repeated vertex", "moved edge", f"declared n={HUGE_N}, no edges"])
    built = [f"{name} n={spec[0]} h={spec[1]} k={len(spec[3])}"
             for name, specs in (("split-h2", SPLIT_H2), ("split-dense", SPLIT_DENSE)) for spec in specs]
    assert [line[:34].rstrip() for line in lines] == docs + built
