"""Independent verification of pipeline stages and finished factorizations.

Everything is recomputed from the explicit edge list: `verify_stage`
recounts `G.edges()` by type (color, verts) and reads no count, union-find
or other state of the construction.  Each report has one entry per check
with a small witness for the first violation found (an edge is named by
the first id of its type), in the JSON shape the command line emits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .hypercore import ColoredMultiHypergraph, UnionFind, binom
from .wings import is_connected


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: passed True/False, or None when skipped."""

    name: str
    passed: Optional[bool]
    witness: Optional[tuple] = None

    @property
    def status(self) -> str:
        return "skipped" if self.passed is None else ("pass" if self.passed else "fail")


@dataclass(frozen=True)
class VerificationReport:
    stage: object  # stage number, or "final"
    checks: tuple
    overall: bool

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "status": c.status, "witness": _jsonable(c.witness)}
                for c in self.checks
            ],
        }


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    return x


def _finish(stage, checks) -> VerificationReport:
    overall = all(c.passed is not False for c in checks)
    return VerificationReport(stage, tuple(checks), overall)


def _class_wings(types, alpha, split_verts) -> tuple[bool, int]:
    """Connectivity and `delta` of one color class given as (verts, count) types.

    The wings are the components of the ordinary vertices, plus one per loop
    edge; connected iff every component meets the amalgam (vacuous if none).
    """
    uf, loops, ends = UnionFind({v: v for v in split_verts}), 0, []
    for verts, c in types:
        rest = [v for v in verts if v != alpha]
        q = len(verts) - len(rest)
        if rest:
            for v in rest[1:]:
                uf.union(v, rest[0])
            ends.append((rest[0], c * q))
        elif q >= 2:
            loops += c * q
    hinges = Counter()
    for u, x in ends:
        hinges[uf.find(u)] += x
    connected = all(hinges[uf.find(v)] for v in list(uf.parent))
    return connected, loops + sum(x for x in hinges.values() if x >= 2)


def verify_stage(G: ColoredMultiHypergraph, ell: int, p) -> VerificationReport:
    """Check the stage-`ell` invariants of the splitting pipeline.

    `G` must be the intermediate object with `ell` vertices; `p` supplies
    (n, h, lam, r).  Checks: per-color degrees, shape multiplicities over
    every cell including forced-zero ones, per-edge amalgam bound,
    connectivity of classes with r_i >= 2, and the multi-hinge wing
    balance.  Connectivity-flavored checks are skipped for h = 1, where
    no spanning connected 1-uniform hypergraph on 2+ vertices exists.
    """
    n, h, lam, r = p.n, p.h, p.lam, p.r
    alpha = G.alpha
    m = n - ell + 1
    checks: list[CheckResult] = []

    # one pass over the explicit edges: each type (color, verts) with its
    # count; its first edge id is the witness when a check fails on the type
    ids: dict[tuple, list] = {}
    for e in G.edges():
        ids.setdefault((e.color, e.verts), []).append(e.id)
    types = {key: len(v) for key, v in ids.items()}
    classes: dict[int, list] = {i: [] for i in range(1, G.k + 1)}
    deg = Counter()
    for (color, verts), c in types.items():
        classes[color].append((verts, c))
        for v in verts:
            deg[color, v] += c

    # degrees: amalgam carries r_i * m, every split vertex exactly r_i
    want = {u: m if u == alpha else 1 for u in sorted(G.vertices)}
    bad = next(
        ((i, u, deg[i, u], r[i - 1] * w) for i in range(1, G.k + 1)
         for u, w in want.items() if deg[i, u] != r[i - 1] * w),
        None,
    )
    checks.append(CheckResult("degrees", bad is None, bad))

    # shape multiplicities: m(alpha^q, U) = lam * C(m, q) for every cell
    split_verts = sorted(G.vertices - {alpha})
    shape = Counter()
    bad = None
    for (color, verts), c in types.items():
        rest = tuple(v for v in verts if v != alpha)
        if len(set(rest)) != len(rest):
            bad = ("repeated ordinary vertex", ids[color, verts][0], verts)
            break
        shape[(len(verts) - len(rest), rest)] += c
    if bad is None:
        for q in range(0, h + 1):
            if h - q > len(split_verts):
                continue
            want = lam * binom(m, q)
            for U in combinations(split_verts, h - q):
                got = shape.get((q, U), 0)
                if got != want:
                    bad = ("cell", q, U, got, want)
                    break
            if bad:
                break
    checks.append(CheckResult("multiplicities", bad is None, bad))

    # no edge may hold more amalgam occurrences than splits remaining + 1
    bad = next(((ids[k][0], k[1].count(alpha), m) for k in types if k[1].count(alpha) > m), None)
    checks.append(CheckResult("edge-amalgam-bound", bad is None, bad))

    # connectivity of every class that must stay connected
    if h == 1:
        checks.append(CheckResult("connectivity", None, ("h=1",)))
        checks.append(CheckResult("wing-balance", None, ("h=1",)))
    else:
        needed = [i for i in range(1, G.k + 1) if r[i - 1] >= 2]
        wings = {i: _class_wings(classes[i], alpha, split_verts) for i in needed}
        bad = next(((i,) for i in needed if not wings[i][0]), None)
        checks.append(CheckResult("connectivity", bad is None, bad))

        if ell <= n - 1:
            deltas = ((i, wings[i][1]) for i in needed)
            bad = next(((i, d, r[i - 1] * m) for i, d in deltas if d != r[i - 1] * m), None)
            checks.append(CheckResult("wing-balance", bad is None, bad))
        else:
            checks.append(CheckResult("wing-balance", None, ("final stage",)))

    return _finish(ell, checks)


def verify_factorization(f) -> VerificationReport:
    """Full independent check of a finished factorization.

    `f` supplies (n, h, lam, r, factors) where factors[i] is a sequence
    of vertex tuples.  Five checks: edge shapes, cover multiplicity,
    per-factor regularity, connectivity of factors with r_i >= 2 (for
    h >= 2), and the declared degree sum.  Cover and regularity are
    skipped when shapes fail, since their counts are meaningless over
    malformed edges.
    """
    n, h, lam, r = f.n, f.h, f.lam, f.r
    factors = f.factors
    checks: list[CheckResult] = []

    bad = None
    if len(factors) != len(r):
        bad = ("factor count", len(factors), len(r))
    else:
        for i, factor in enumerate(factors, start=1):
            for e in factor:
                vs = tuple(e)
                if (
                    len(vs) != h
                    or len(set(vs)) != h
                    or any(not 1 <= v <= n for v in vs)
                ):
                    bad = (i, vs)
                    break
            if bad:
                break
    shapes_ok = bad is None
    checks.append(CheckResult("edge-shapes", shapes_ok, bad))

    if not shapes_ok:
        checks.append(CheckResult("cover-multiplicity", None, ("shapes failed",)))
        checks.append(CheckResult("regularity", None, ("shapes failed",)))
    else:
        cover = Counter()
        for factor in factors:
            for e in factor:
                cover[tuple(sorted(e))] += 1
        bad = None
        for U in combinations(range(1, n + 1), h):
            got = cover.get(U, 0)
            if got != lam:
                bad = (U, got, lam)
                break
        checks.append(CheckResult("cover-multiplicity", bad is None, bad))

        bad = None
        for i, factor in enumerate(factors, start=1):
            deg = Counter()
            for e in factor:
                for v in e:
                    deg[v] += 1
            for v in range(1, n + 1):
                if deg.get(v, 0) != r[i - 1]:
                    bad = (i, v, deg.get(v, 0), r[i - 1])
                    break
            if bad:
                break
        checks.append(CheckResult("regularity", bad is None, bad))

    if h == 1:
        checks.append(CheckResult("connectivity", None, ("h=1",)))
    else:
        bad = None
        for i, factor in enumerate(factors, start=1):
            if i <= len(r) and r[i - 1] >= 2:
                if not is_connected(range(1, n + 1), factor):
                    bad = (i,)
                    break
        checks.append(CheckResult("connectivity", bad is None, bad))

    want = lam * binom(n - 1, h - 1)
    got = sum(r)
    checks.append(
        CheckResult("degree-sum", got == want, None if got == want else (got, want))
    )

    return _finish("final", checks)
