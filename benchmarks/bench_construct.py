"""Wall time, CPU time and peak memory of `construct` on a fixed ladder of instances.

Times `construct(p, seed=1, check_mode="off")` on each instance and keeps
the best of a few runs, by wall time (`wall_s`) and by the process's CPU
time (`cpu_s`, `time.process_time()`), which other load on the host
moves less.  For instances of at most 5,000 edges it also
keeps the best of as many runs with `check_mode="full"` (`full_wall_s`:
the construction plus `verify_stage` at every stage and the final check)
and takes the tracemalloc peak of one more unchecked run (tracemalloc
slows a run several times over, so larger instances skip it).  Prints
one line per instance and appends one row per instance to
BENCH_construct.json at the root of the checkout, so the file keeps the
rows of every measured commit.  Each row records the commit checked out,
whether `src/` differed from it, the Python version, the CPU count and
`src_tree`: the git tree id of `src/` as measured, computed from the
files.  It equals `git rev-parse C:src` for every commit C that holds the
same code, so rows measured on an uncommitted change name the commit
that later holds it.

The package is imported from `src/` of the checkout this script sits in.

Usage: python3 benchmarks/bench_construct.py [--repeat N]
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypfactor.detach import Params, construct  # noqa: E402

# (label of r, Params): the roadmap's baseline table, many and few
# factors at h = 2, 3, 4, one instance with lambda = 2, and two with few
# colors, where few types move per stage but many types share a group
LADDER = [
    ("(2,)*19+(1,)", Params(40, 2, 1, (2,) * 19 + (1,))),
    ("(2,)*39+(1,)", Params(80, 2, 1, (2,) * 39 + (1,))),
    ("(2,)*79+(1,)", Params(160, 2, 1, (2,) * 79 + (1,))),
    ("(319,)", Params(320, 2, 1, (319,))),
    ("(2,)*159+(1,)", Params(320, 2, 1, (2,) * 159 + (1,))),
    ("(3,)*45+(1,)", Params(18, 3, 1, (3,) * 45 + (1,))),
    ("(3,)*135+(1,)", Params(30, 3, 1, (3,) * 135 + (1,))),
    ("(4,)*71+(2,)", Params(14, 4, 1, (4,) * 71 + (2,))),
    ("(4,)*170", Params(18, 4, 1, (4,) * 170)),
    ("(2,)*39", Params(40, 2, 2, (2,) * 39)),
    ("(455,)", Params(16, 4, 1, (455,))),
    ("(55,)*3", Params(12, 4, 1, (55,) * 3)),
]
MEMORY_MAX_EDGES = 5000
SEED = 1
OUT = os.path.join(ROOT, "BENCH_construct.json")


def git(*args) -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return ""
    return out.stdout.strip()


def src_tree_id() -> str:
    """Git tree id of `src/` from its tracked and unignored files on disk."""
    listed = git("ls-files", "-co", "--exclude-standard", "--", "src")
    if not listed:
        return "unknown"
    root: dict = {}
    for path in listed.splitlines():
        if os.path.isfile(os.path.join(ROOT, path)):  # skip tracked files deleted on disk
            node = root
            *dirs, name = path.split("/")
            for d in dirs:
                node = node.setdefault(d, {})
            node[name] = path

    def obj(kind: bytes, body: bytes) -> bytes:
        return hashlib.sha1(b"%s %d\0%s" % (kind, len(body), body)).digest()

    def tree(node: dict) -> bytes:
        entries = []
        for name, sub in node.items():
            if isinstance(sub, dict):  # git orders a directory as its name plus "/"
                entries.append((name + "/", b"40000", tree(sub)))
            else:
                full = os.path.join(ROOT, sub)
                mode = b"100755" if os.access(full, os.X_OK) else b"100644"
                with open(full, "rb") as fh:
                    entries.append((name, mode, obj(b"blob", fh.read())))
        entries.sort(key=lambda e: e[0].encode())
        return obj(b"tree", b"".join(m + b" " + n.rstrip("/").encode() + b"\0" + h
                                     for n, m, h in entries))

    return tree(root["src"]).hex()


def best_times(p: Params, repeat: int, check_mode: str = "off") -> tuple[float, float]:
    """The best wall time and the best process CPU time over `repeat` runs."""
    wall = cpu = math.inf
    for _ in range(repeat):
        t0, c0 = time.perf_counter(), time.process_time()
        construct(p, seed=SEED, check_mode=check_mode)
        wall = min(wall, time.perf_counter() - t0)
        cpu = min(cpu, time.process_time() - c0)
    return wall, cpu


def tracemalloc_peak_mib(p: Params) -> float:
    tracemalloc.start()
    try:
        construct(p, seed=SEED, check_mode="off")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time construct on a fixed ladder")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed runs per instance, best kept (default 3)")
    args = ap.parse_args(argv)

    common = {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "src_tree": src_tree_id(),
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    rows = []
    print(f"{'instance':<34}  {'edges':>6}  {'construct':>10}  {'cpu':>10}  {'checked':>10}"
          f"  {'peak MiB':>8}")
    for r_label, p in LADDER:
        edges = p.lam * math.comb(p.n, p.h)
        wall, cpu = best_times(p, args.repeat)
        small = edges <= MEMORY_MAX_EDGES
        full = best_times(p, args.repeat, "full")[0] if small else None
        peak = tracemalloc_peak_mib(p) if small else None
        label = f"n={p.n} h={p.h} lam={p.lam} r={r_label}"
        rows.append({**common, "instance": label, "edges": edges, "repeat": args.repeat,
                     "wall_s": round(wall, 4), "cpu_s": round(cpu, 4),
                     "full_wall_s": None if full is None else round(full, 4),
                     "tracemalloc_peak_mib": None if peak is None else round(peak, 3)})
        full_text = "-" if full is None else f"{full:.3f}s"
        peak_text = "-" if peak is None else f"{peak:.2f}"
        print(f"{label:<34}  {edges:>6}  {wall:>9.3f}s  {cpu:>9.3f}s  {full_text:>10}"
              f"  {peak_text:>8}", flush=True)

    old = []
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            old = json.load(fh)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in old + rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
