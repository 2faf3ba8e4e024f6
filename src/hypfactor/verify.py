"""Independent verification of pipeline stages and finished factorizations.

Everything is recomputed from the explicit edge list: `verify_stage`
counts `G.edges()` once by type (color, verts), reads no state of the
construction, and walks the types or edges only to name the witness of
a failed check.  Each report has one entry per check with a small
witness for the first violation found (an edge is named by its position
in `G.edges()`, the first of its type), in the JSON shape the command
line emits.

`verify_factorization` reads the factors as given and never changes
them, and neither the order of the edges nor that of the vertices inside
an edge decides a verdict or a witness: a malformed edge is named as the
least one, with its vertices sorted, of the first factor that holds one.
Edges of h strictly increasing vertices, as `construct` returns them and
`hypfactor verify` hands them over after sorting each parsed edge in
place, are their own cover keys; only other input is counted by sorted
copies.  It costs O(E * h) time and memory for E edges of size h, up to
the log factor of sorting each edge of such input, whatever n, h and
lambda the document declares: it builds nothing per declared vertex and
never walks 1..n, so a 60-byte document declaring n = 10**8 is rejected
in milliseconds; an edgeless document's cover witness (1, ..., h) is a
`LeastSubset`.  The binomials C(n, h) and C(n - 1, h - 1) are computed
exactly only up to an estimated `hypercore.BINOMIAL_BITS` bits; past
that, `binom_passes` builds C(N, j) for j = 1, 2, ... only until it
passes the count the document holds, which proves the equality false at
a cost that follows the document.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, filterfalse, islice
from operator import ge, indexOf, itemgetter, not_, or_
from typing import Optional

from .hypercore import ColoredMultiHypergraph, binom, binom_passes
from .wings import joins


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


class LeastSubset:
    """The h-subset (1, ..., h), equal to that tuple but never built."""

    def __init__(self, h: int):
        self.h = h

    def __iter__(self):
        return iter(range(1, self.h + 1))

    def __eq__(self, other):
        if isinstance(other, LeastSubset):
            return self.h == other.h
        return isinstance(other, tuple) and len(other) == self.h and tuple(self) == other


def _jsonable(x):
    if isinstance(x, (list, tuple, LeastSubset)):
        return [_jsonable(v) for v in x]
    return x


def _finish(stage, checks) -> VerificationReport:
    overall = all(c.passed is not False for c in checks)
    return VerificationReport(stage, tuple(checks), overall)


def _wings(ends, nodes: int) -> tuple[bool, int]:
    """Connectivity and non-loop `delta` of one class.

    The class has `nodes` split and ordinary vertices, and `ends` holds
    (ordinary vertices, amalgam occurrences) of each of its types.  Unions
    along them leave nodes - joins components, the wings; the class is
    connected iff each carries a hinge.
    """
    parent, joins = {}, 0  # non-roots only
    for rest, _ in ends:
        a = rest[0]
        while a in parent:
            a = parent[a]
        for v in rest[1:]:
            while v in parent:
                v = parent[v]
            if v != a:
                parent[v] = a
                joins += 1
    hinges: dict = {}
    for rest, x in ends:
        if x:
            a = rest[0]
            while a in parent:
                a = parent[a]
            hinges[a] = hinges.get(a, 0) + x
    return len(hinges) == nodes - joins, sum(x for x in hinges.values() if x >= 2)


def verify_stage(G: ColoredMultiHypergraph, ell: int, p) -> VerificationReport:
    """Check the stage-`ell` invariants of the splitting pipeline.

    `G` must be the intermediate object with `ell` vertices; `p` supplies
    (n, h, lam, r).  Checks: per-color degrees, shape multiplicities over
    every cell including forced-zero ones (a shape outside every cell,
    such as an edge on an undeclared vertex, fails), per-edge amalgam
    bound, connectivity of classes with r_i >= 2, and the multi-hinge wing
    balance.  Connectivity-flavored checks are skipped for h = 1, where
    no spanning connected 1-uniform hypergraph on 2+ vertices exists.

    One count of the edges by type feeds every check, and each verdict
    compares whole dicts; a walk names the witness once a check fails.
    """
    n, h, lam, r = p.n, p.h, p.lam, p.r
    alpha = G.alpha
    m = n - ell + 1
    split_verts = sorted(G.vertices - {alpha})
    checks: list[CheckResult] = []

    # first-seen order: the first edge of the first bad type is the first
    # bad edge; one pass over the types gives degrees, shapes and wings
    types = Counter(G.edges())
    degs: dict[int, dict] = {i: {} for i in range(1, G.k + 1)}
    ends: dict[int, list] = {i: [] for i in degs}
    loops = dict.fromkeys(degs, 0)
    shape: dict[tuple, int] = {}
    for (color, verts), c in types.items():
        deg = degs[color]
        for v in verts:
            deg[v] = deg.get(v, 0) + c
        q = verts.count(alpha)
        rest = tuple(filter(alpha.__ne__, verts)) if q else verts
        shape[q, rest] = shape.get((q, rest), 0) + c
        if rest:
            ends[color].append((rest, c * q))
        elif q >= 2:
            loops[color] += c * q

    # degrees: amalgam carries r_i * m, every split vertex exactly r_i
    bad = None
    for i, deg in degs.items():
        want = {**dict.fromkeys(split_verts, r[i - 1]), alpha: r[i - 1] * m}
        if deg != want:
            bad = next(((i, u, deg.get(u, 0), w) for u, w in sorted(want.items())
                        if deg.get(u, 0) != w), None)
            if bad:
                break
    checks.append(CheckResult("degrees", bad is None, bad))

    # shape multiplicities: m(alpha^q, U) = lam * C(m, q) for every cell;
    # a repeated ordinary vertex makes a shape outside every cell
    wants = [lam * binom(m, q) for q in range(h + 1)]
    cells = {(q, U): w for q, w in enumerate(wants) if w for U in combinations(split_verts, h - q)}
    bad = None
    if shape != cells:  # name the first repeat, else missed cell, else stray shape
        repeats = (("repeated ordinary vertex", indexOf(G.edges(), (color, vs)), vs)
                   for color, vs in types if len(set(vs) - {alpha}) < len(vs) - vs.count(alpha))
        misses = (("cell", q, U, shape.get((q, U), 0), w) for q, w in enumerate(wants)
                  for U in combinations(split_verts, h - q) if shape.get((q, U), 0) != w)
        strays = (("cell", q, U, shape[q, U], 0) for q, U in sorted(shape.keys() - cells.keys()))
        bad = next(chain(repeats, misses, strays))
    checks.append(CheckResult("multiplicities", bad is None, bad))

    # no edge may hold more amalgam occurrences than splits remaining + 1
    bad = None
    if max(map(itemgetter(0), shape), default=0) > m:
        bad = next((indexOf(G.edges(), (color, vs)), vs.count(alpha), m) for color, vs in types
                   if vs.count(alpha) > m)
    checks.append(CheckResult("edge-amalgam-bound", bad is None, bad))

    # connectivity of every class that must stay connected
    if h == 1:
        checks.append(CheckResult("connectivity", None, ("h=1",)))
        checks.append(CheckResult("wing-balance", None, ("h=1",)))
    else:
        # a class spans the declared vertices and those its edges use
        needed = [i for i in range(1, G.k + 1) if r[i - 1] >= 2]
        wings = {i: _wings(ends[i], len(G.vertices.union(degs[i])) - 1) for i in needed}
        bad = next(((i,) for i in needed if not wings[i][0]), None)
        checks.append(CheckResult("connectivity", bad is None, bad))

        if ell <= n - 1:
            deltas = ((i, loops[i] + wings[i][1]) for i in needed)
            bad = next(((i, d, r[i - 1] * m) for i, d in deltas if d != r[i - 1] * m), None)
            checks.append(CheckResult("wing-balance", bad is None, bad))
        else:
            checks.append(CheckResult("wing-balance", None, ("final stage",)))

    return _finish(ell, checks)


def _malformed(edges, h: int, n: int) -> list:
    """Per edge, whether it is not h distinct vertices of 1..n; the range test runs per distinct vertex."""
    shapes = map(or_, map(h.__ne__, map(len, edges)), map(h.__ne__, map(len, map(set, edges))))
    outside = {v for v in set(chain.from_iterable(edges)) if not 1 <= v <= n}
    return [*map(or_, shapes, map(not_, map(outside.isdisjoint, edges)))] if outside else [*shapes]


def _strictly_increasing(keys, h: int) -> bool:
    """Whether every key, a sequence of length h, is strictly increasing.

    A sorted key holds h distinct vertices iff it is, and an edge that is
    strictly increasing is its own sorted key.  With the keys laid
    end to end, position j of every key is the slice flat[j::h], so the
    test is h - 1 C-level passes and builds no set per key.
    """
    flat = [*chain.from_iterable(keys)]
    return not any(any(map(ge, flat[j::h], flat[j + 1::h])) for j in range(h - 1))


def _first_bad_edge(factors, h, n) -> tuple:
    """(factor, edge) naming a malformed edge, one that is not h distinct vertices of 1..n.

    The factor is the first that holds one, the edge its least, with its
    vertices sorted, so the witness does not depend on the input order.
    The caller has found a malformed key, so some factor holds one.
    """
    marked = ([*compress(factor, _malformed(factor, h, n))] for factor in factors)
    i, bad = next((i, b) for i, b in enumerate(marked, start=1) if b)
    return (i, min(map(tuple, map(sorted, bad))))


def _least_unseen(seen, n: int, count: int) -> list:
    """The `count` smallest of 1..n missing from `seen`, in O(|seen| + count) steps."""
    return list(islice(filterfalse(seen.__contains__, range(1, n + 1)), count))


def _connected(factor, seen, n: int) -> bool:
    """Whether the vertices 1..n and every vertex an edge uses form one component.

    `seen` holds the vertices the factor's edges use.  A declared vertex
    that no edge uses is isolated, so the unions run only when every one
    of 1..n is seen.
    """
    if _least_unseen(seen, n, 1):
        return n == 1 and not seen
    return joins(factor, len(seen) - 1)


def verify_factorization(f) -> VerificationReport:
    """Full independent check of a finished factorization.

    `f` supplies (n, h, lam, r, factors) where factors[i] is a sequence
    of edges, each a sequence of vertices, in any order; none is changed.
    When every edge holds h strictly increasing vertices, the edges are
    their own cover keys (tuples are counted as they are, lists copied
    once), and otherwise each key is a sorted copy.  Five checks:
    edge shapes, cover multiplicity, per-factor regularity, connectivity
    of factors with r_i >= 2 (for h >= 2), and the declared degree sum.
    Cover and regularity are skipped when shapes fail, since their counts
    are meaningless over malformed edges.

    Each verdict comes from counts over the edges given (C-level passes);
    a per-edge or per-subset walk runs only on failure, to name the
    witness.  A vertex of 1..n that no edge uses is a witness by itself,
    and the least one is found by scanning past the seen vertices, so
    nothing is built or visited per declared vertex (see the module
    docstring for the bound).
    """
    n, h, lam, r = f.n, f.h, f.lam, f.r
    factors = f.factors
    checks: list[CheckResult] = []
    # the vertex degrees of each factor, read by regularity and connectivity
    degs = [Counter(chain.from_iterable(factor)) for factor in factors]

    if len(factors) != len(r):
        bad = ("factor count", len(factors), len(r))
    else:
        # every edge maps to its key, so the shapes hold iff every key is
        # h distinct vertices of 1..n; edges of h strictly increasing
        # vertices are their own keys, and only other input is sorted
        edges = [*chain.from_iterable(factors)]
        canonical = set(map(len, edges)) == {h} and _strictly_increasing(edges, h)
        cover = Counter(map(tuple, edges if canonical else map(sorted, edges)))
        seen = set().union(*degs)
        keys_ok = not cover or (
            (canonical or (set(map(len, cover)) == {h} and _strictly_increasing(cover, h)))
            and 1 <= min(seen, default=1)
            and max(seen, default=n) <= n
        )
        bad = None if keys_ok else _first_bad_edge(factors, h, n)
    shapes_ok = bad is None
    checks.append(CheckResult("edge-shapes", shapes_ok, bad))

    if not shapes_ok:
        checks.append(CheckResult("cover-multiplicity", None, ("shapes failed",)))
        checks.append(CheckResult("regularity", None, ("shapes failed",)))
    else:
        bad = None
        if lam == 0:
            # every key is a miss and every absent subset a hit
            U = min(cover, default=None)
            bad = None if U is None else (U, cover[U], lam)
        elif not cover and h <= n:
            bad = (LeastSubset(h), 0, lam)  # the first h-subset is a miss
        elif (
            binom_passes(n, h, len(cover))
            or len(cover) != binom(n, h)
            or not set(cover.values()) <= {lam}
        ):
            # the first miss in lexicographic order uses only seen vertices
            # and the h least unseen ones: trading an unseen vertex for a
            # smaller unseen one gives another miss, and an earlier one.
            # Each subset the walk passes is a key, so it visits at most
            # len(cover) + 1 of them.
            pool = sorted(seen.union(_least_unseen(seen, n, h)))
            bad = next(
                ((U, cover.get(U, 0), lam) for U in combinations(pool, h)
                 if cover.get(U, 0) != lam),
                None,
            )
        checks.append(CheckResult("cover-multiplicity", bad is None, bad))

        bad = None
        for i, (deg, ri) in enumerate(zip(degs, r), start=1):
            if set(deg.values()) <= {ri} and (ri == 0 or len(deg) == n):
                continue
            # the least vertex of wrong degree, seen or (unless r_i = 0) unseen
            wrong = [v for v, d in deg.items() if d != ri]
            if ri != 0:
                wrong += _least_unseen(deg, n, 1)
            v = min(wrong)
            bad = (i, v, deg.get(v, 0), ri)
            break
        checks.append(CheckResult("regularity", bad is None, bad))

    if h == 1:
        checks.append(CheckResult("connectivity", None, ("h=1",)))
    else:
        bad = next(
            ((i,) for i, (factor, deg, ri) in enumerate(zip(factors, degs, r), start=1)
             if ri >= 2 and not _connected(factor, deg, n)),
            None,
        )
        checks.append(CheckResult("connectivity", bad is None, bad))

    # lambda * C(n - 1, h - 1) == got forces C(n - 1, h - 1) == got // lambda
    got = sum(r)
    j = binom_passes(n - 1, h - 1, got // lam) if lam else None
    if j is not None:
        bad = (got, f"C(n - 1, h - 1) >= C(n - 1, {j}) > sum(r) // lambda")
    else:
        want = lam * binom(n - 1, h - 1)
        bad = None if got == want else (got, want)
    checks.append(CheckResult("degree-sum", bad is None, bad))

    return _finish("final", checks)
