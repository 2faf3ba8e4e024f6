"""The four benchmark workloads: inputs made from a seed, timed ops, gates.

Every op has a timed part (`run`) and an untimed correctness gate
(`check`).  The gate returns the op's canonical output text, which feeds
the pass digest, and an error message or None.  Ops reach the package
only through module attributes looked up at call time, so the layer
tracer's patches take effect without touching `src/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

WORKLOADS = ("split-h2", "split-dense", "checked-grid", "verify-docs")

# (n, h, lam, r) ladders.  split-h2 gives nearly every hinge an edge type
# of its own, alternating many 2-factors with one Hamiltonian factor;
# split-dense repeats edge types heavily, with both many small factors and
# a few large ones.  No op takes much over 2 s here, so a run repeats
# each op and can take per-op medians.
SPLIT_H2 = [
    (32, 2, 1, (2,) * 15 + (1,)),
    (40, 2, 1, (39,)),
    (48, 2, 1, (2,) * 23 + (1,)),
]
SPLIT_DENSE = [
    (18, 3, 1, (8,) * 17),
    (16, 3, 2, (3,) * 70),
    (14, 4, 2, (26,) * 22),
    (12, 4, 1, (55,) * 3),
    (16, 4, 1, (455,)),
]
# closed-form single-factor full covers (n, h, lam) for verify-docs
COVERS = [(24, 5, 1), (30, 4, 1), (40, 3, 2), (200, 2, 1)]
# multi-factor documents that verify-docs builds with construct in setup
MULTI = [
    (20, 2, 1, (2,) * 9 + (1,)),
    (10, 3, 1, (3,) * 12),
    (9, 4, 1, (4,) * 14),
]
# declared n of the edgeless document; ROADMAP reports that n = 10**8
# exhausts 2 GB, so the benchmark stays at 10**6
HUGE_N = 10**6

# the same shapes at a size the benchmark's own test runs in seconds
TINY = {
    "split-h2": [(8, 2, 1, (2, 2, 2, 1)), (10, 2, 1, (9,))],
    "split-dense": [(7, 3, 1, (3,) * 5), (6, 4, 2, (10, 10))],
    "grid_max_n": 5,
    "covers": [(9, 3, 1), (12, 2, 1)],
    "multi": [(6, 2, 1, (2, 2, 1))],
    "huge_n": 10**4,
}

# one small op per workload family, run once in every set-up
WARMUP = {
    "split-h2": (20, 2, 1, (2,) * 9 + (1,)),
    "split-dense": (10, 3, 1, (3,) * 12),
}

# the traced run takes the tracemalloc peak of one op: the largest
# construction of at most this many edges (tracemalloc slows it about 5x)
MEMORY_OP_MAX_EDGES = 1000


@dataclass
class Op:
    label: str
    edges: int  # lam * C(n, h) of the construction the op runs, 0 if none
    run: Callable[[], object]
    check: Callable[[object], tuple[str, Optional[str]]]


@dataclass
class Workload:
    ops: list
    warmup: Op

    def memory_op(self) -> Optional[Op]:
        fits = [op for op in self.ops if 0 < op.edges <= MEMORY_OP_MAX_EDGES]
        return max(fits, key=lambda op: op.edges) if fits else None


def derived_seed(workload: str, seed: int, index: int) -> int:
    """The construction seed of op `index`; string seeding is hash-free."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(2**31)


def _edges(n, h, lam) -> int:
    return lam * math.comb(n, h)


def _label(n, h, lam, r) -> str:
    return f"n={n} h={h} lam={lam} k={len(r)}"


# -- construction ops ----------------------------------------------------


def construct_op(pkg, spec, seed: int) -> Op:
    p = pkg.detach.Params(*spec)

    def run():
        return pkg.detach.construct(p, seed, check_mode="off")

    def check(f):
        text = pkg.cli.dumps_canonical(pkg.cli.factorization_to_doc(f))
        rep = pkg.verify.verify_factorization(f)
        if not rep.overall:
            return text, f"final verify failed: {[c.name for c in rep.failures()]}"
        return text, None

    return Op(_label(*spec), _edges(*spec[:3]), run, check)


def split_workload(pkg, name: str, seed: int, tiny: bool) -> Workload:
    specs = TINY[name] if tiny else (SPLIT_H2 if name == "split-h2" else SPLIT_DENSE)
    ops = [construct_op(pkg, s, derived_seed(name, seed, i)) for i, s in enumerate(specs)]
    return Workload(ops, construct_op(pkg, WARMUP[name], derived_seed(name, seed, -1)))


# -- in-process CLI ops --------------------------------------------------


def call_cli(pkg, argv) -> tuple[int, str]:
    """Run `hypfactor.cli.main` in process; exit code and captured output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def _fixture_vectors(n: int, h: int, lam: int) -> list:
    """Degree vectors of the acceptance construction grid, infeasible included."""
    S = lam * math.comb(n - 1, h - 1)
    d = h // math.gcd(h, n)
    vecs = []
    for v in ((S,), (d,) * (S // d), (S - d, d)):
        v = tuple(sorted(v, reverse=True))
        if v and min(v) >= 1 and v not in vecs:
            vecs.append(v)
    for probe in ((S + 1,), (1,) * (S + 1), (S, 1)):
        if len(vecs) >= 3:
            break
        if probe not in vecs:
            vecs.append(probe)
    return vecs


def grid_specs(pkg, max_n: int = 10) -> list:
    specs = []
    for h in (2, 3, 4):
        for n in range(h + 1, max_n + 1):
            for lam in (1, 2):
                for r in _fixture_vectors(n, h, lam):
                    if pkg.detach.check_feasibility(pkg.detach.Params(n, h, lam, r)).ok:
                        specs.append((n, h, lam, r))
    return specs


def generate_op(pkg, spec, seed: int, path: str) -> Op:
    n, h, lam, r = spec
    gen = ["generate", "--n", str(n), "--h", str(h), "--lambda", str(lam),
           "--r", ",".join(map(str, r)), "--seed", str(seed), "-o", path]
    ver = ["verify", path]

    def run():
        return call_cli(pkg, gen), call_cli(pkg, ver)

    def check(res):
        (gcode, gout), (vcode, vout) = res
        if gcode != 0:
            return "", f"generate exited {gcode}: {gout.strip()[-200:]}"
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if vcode != 0 or "overall: valid" not in vout:
            return text, f"verify exited {vcode}: {vout.strip()[-200:]}"
        return text, None

    return Op(_label(*spec), _edges(n, h, lam), run, check)


def grid_workload(pkg, seed: int, tiny: bool, workdir: str) -> Workload:
    specs = grid_specs(pkg, TINY["grid_max_n"] if tiny else 10)
    path = os.path.join(workdir, "generated.json")
    ops = []
    for copy in range(2):
        for i, s in enumerate(specs):
            ops.append(generate_op(pkg, s, derived_seed("checked-grid", seed, copy * len(specs) + i), path))
    return Workload(ops, generate_op(pkg, specs[-1], derived_seed("checked-grid", seed, -1), path))


def verify_op(pkg, label: str, path: str, expect_fail: Optional[str]) -> Op:
    """CLI verify of one document; `expect_fail` names the check that must fail."""

    def run():
        return call_cli(pkg, ["verify", path])

    def check(res):
        code, out = res
        if expect_fail is None:
            if code != 0 or "overall: valid" not in out:
                return out, f"{label}: want a valid verdict, got exit {code}"
        elif code != 1 or f"{expect_fail}: fail" not in out:
            return out, f"{label}: want exit 1 naming {expect_fail}, got exit {code}"
        return out, None

    return Op(label, 0, run, check)


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cover_doc(n, h, lam, rng) -> dict:
    """All h-subsets lam times as one factor, shuffled inside and across edges."""
    edges = []
    for subset in combinations(range(1, n + 1), h):
        for _ in range(lam):
            e = list(subset)
            rng.shuffle(e)
            edges.append(e)
    rng.shuffle(edges)
    return {"n": n, "h": h, "lambda": lam, "r": [lam * math.comb(n - 1, h - 1)], "factors": [edges]}


def docs_workload(pkg, seed: int, tiny: bool, workdir: str) -> Workload:
    rng = random.Random(f"verify-docs/{seed}")
    covers = TINY["covers"] if tiny else COVERS
    multis = TINY["multi"] if tiny else MULTI
    ops = []

    def add(label, doc, expect_fail=None):
        path = os.path.join(workdir, f"doc{len(ops)}.json")
        _write(path, doc)
        ops.append(verify_op(pkg, label, path, expect_fail))

    cover_docs = []
    for n, h, lam in covers:
        doc = _cover_doc(n, h, lam, rng)
        cover_docs.append(doc)
        add(f"cover n={n} h={h} lam={lam}", doc)
    multi_docs = []
    for i, spec in enumerate(multis):
        f = pkg.detach.construct(pkg.detach.Params(*spec), derived_seed("verify-docs", seed, i), check_mode="off")
        doc = pkg.cli.factorization_to_doc(f)
        multi_docs.append(doc)
        add(_label(*spec), doc)

    dropped = json.loads(json.dumps(cover_docs[1 % len(cover_docs)]))
    dropped["factors"][0].pop(rng.randrange(len(dropped["factors"][0])))
    add("dropped edge", dropped, "cover-multiplicity")

    repeated = json.loads(json.dumps(cover_docs[-1]))
    e = repeated["factors"][0][rng.randrange(len(repeated["factors"][0]))]
    e[1] = e[0]
    add("repeated vertex", repeated, "edge-shapes")

    moved = json.loads(json.dumps(multi_docs[0]))
    src = moved["factors"][0]
    moved["factors"][1].append(src.pop(rng.randrange(len(src))))
    add("moved edge", moved, "regularity")

    huge_n = TINY["huge_n"] if tiny else HUGE_N
    add(f"declared n={huge_n}, no edges",
        {"n": huge_n, "h": 2, "lambda": 1, "r": [2], "factors": [[]]}, "cover-multiplicity")

    warm_path = os.path.join(workdir, "warmup.json")
    _write(warm_path, multi_docs[-1])
    return Workload(ops, verify_op(pkg, "warm-up", warm_path, None))


def make_workload(pkg, name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    if name in ("split-h2", "split-dense"):
        return split_workload(pkg, name, seed, tiny)
    if name == "checked-grid":
        return grid_workload(pkg, seed, tiny, workdir)
    if name == "verify-docs":
        return docs_workload(pkg, seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
