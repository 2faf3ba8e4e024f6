"""Smoke runs of the benchmark scripts that read the package's internals.

Each script runs once, from the checkout as documented, and only the shape
of its output is checked: which rows it prints, never their timings.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_construct import checkout_labels, src_tree_id  # noqa: E402
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


def test_src_tree_id_is_the_git_tree_of_src_without_a_checkout(tmp_path):
    # git stores the unignored files of `src/`; a copy without `.git`, as
    # `git archive` makes, must give the same tree id from its files alone
    files = {"pkg/__init__.py": "", "pkg/sub/mod.py": "x = 1\n", "pkg/run.sh": "#!/bin/sh\n",
             "pkg/__pycache__/x.pyc": "cached", "pkg/ext.so": "built", "pkg.egg-info/PKG-INFO": "meta"}
    for name, text in files.items():
        (tmp_path / "src" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "src" / name).write_text(text)
    (tmp_path / "src" / "pkg" / "run.sh").chmod(0o755)
    shutil.copy(ROOT / ".gitignore", tmp_path / ".gitignore")
    for args in (["init", "-q"], ["add", "src"]):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True)
    tree = subprocess.run(["git", "-C", str(tmp_path), "write-tree", "--prefix=src/"],
                          capture_output=True, text=True, check=True).stdout.strip()
    shutil.copytree(tmp_path / "src", tmp_path / "copy" / "src")
    assert src_tree_id(str(tmp_path / "copy")) == tree


def test_checkout_labels_leave_src_modified_unknown_without_a_checkout(tmp_path, monkeypatch):
    # a `git archive` copy has no `.git`: its rows name no commit and say
    # nothing of whether `src/` differs from one; in a checkout they do
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no enclosing checkout is found
    copy, repo = tmp_path / "copy", tmp_path / "repo"
    for root in (copy, repo):
        (root / "src").mkdir(parents=True)
        (root / "src" / "mod.py").write_text("x = 1\n")
    assert checkout_labels(str(copy)) == {"commit": "unknown", "src_modified": None,
                                          "src_tree": src_tree_id(str(copy))}
    ident = ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    for args in (["init", "-q"], ["add", "src"], [*ident, "commit", "-q", "-m", "src"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True)
    labels = checkout_labels(str(repo))
    assert labels["commit"] != "unknown" and labels["src_modified"] is False
    (repo / "src" / "mod.py").write_text("x = 2\n")
    assert checkout_labels(str(repo))["src_modified"] is True
