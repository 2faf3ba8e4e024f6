"""Independent brute-force oracles for cross-checking the pipeline.

Two oracles live here.  `brute_force_factorize` decides small instances
by backtracking over color assignments in one restart loop: capped
attempts in reshuffled edge orders find a witness, and the last attempt,
an uncapped scan in the canonical order, refutes.  It is entirely
separate from the splitting pipeline: it shares no code path with
`construct` beyond the result container and the final verifier.
`exhaustive_select` enumerates every selection satisfying the
floor/ceiling bounds of two laminar families over arbitrary elements,
used to check that the flow-based selector only ever returns members of
that space.

The backtracking search (`solve`) walks edges in the order it is given
and tries colors in ascending order, so equal inputs always give the
same coloring and the same node count.  Pruning is exact counting plus
canonical orderings.  A color is tried on an edge when its class still
has room (class sizes are forced by regularity) and every vertex of the
edge still has residual degree in that color; an assignment is rejected
outright when some vertex still needs more edges of that color than the
class has slots left, since an edge meets a vertex at most once and
later edges could never repair the deficit.  Classes that must end
connected are additionally vetted on every assignment by a union-find
completability test (see `_class_completable`).

Three symmetry rules discard only relabelings of assignments the search
still sees, so they are sound under any edge order:

- identical duplicate edges (lam >= 2, adjacent in the order) take
  non-decreasing colors;
- among adjacent equal-degree colors a class may only receive its first
  edge once its predecessor has one: any coloring can be relabeled
  within each equal-degree run to open classes in index order (and then
  have duplicate copies sorted) without disturbing sizes, degrees or
  connectivity;
- the first edge may only take the lowest color of each distinct degree
  value, since swapping two equal-degree classes moves it into the
  lower one.  This is not a case of the adjacent rule, which never
  compares equal-degree colors that another degree separates: for
  r = (2, 1, 2) it bars color 3 at the first edge, where the adjacent
  rule does not.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

from .detach import Factorization, Params
from .errors import InternalInvariantError, ParameterError
from .hypercore import binom, binom_over
from .laminar import LaminarFamily, Selection, bounds_for
from .verify import VerificationReport, verify_factorization


def search_backend() -> str:
    """Name of the search kernel, as reported by `hypfactor oracle`."""
    return "pure-python"


MAX_ORACLE_EDGES = 40
MAX_EXHAUSTIVE_GROUND = 20

# Number of restart attempts and the node cap per attempt.  Attempt 0
# uses the canonical lexicographic edge order; later attempts reshuffle
# the distinct edges with a fixed per-attempt seed, and attempt
# FINDER_RESTARTS, the last, is the uncapped scan in canonical order.
# Restarts attack the heavy-tailed runtime of depth-first search on the
# few balanced instances (e.g. n=7, h=4, five 4-regular classes) where
# one fixed order can wander for billions of nodes before a witness.
FINDER_RESTARTS = 120
FINDER_NODE_CAP = 250_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive search; exceeding either yields 'unknown'."""

    max_nodes: int = 500_000_000
    time_limit: float = 120.0

    def __post_init__(self):
        _check_time_limit(self.time_limit)
        if min(self.max_nodes, self.time_limit) < 0:
            raise ParameterError(f"search budget must be nonnegative, got {self}")


def _check_time_limit(time_limit: float) -> None:
    if math.isnan(time_limit):  # a NaN deadline would never expire
        raise ParameterError("time limit must be a number of seconds, got NaN")


@dataclass(frozen=True)
class OracleResult:
    status: str  # "found" | "none" | "unknown"
    factorization: Optional[Factorization] = None
    nodes: int = 0
    reason: Optional[str] = None


def _class_completable(edges, color, pos, c, n, h, rc, slots):
    """Can the partial class still end as one connected spanning piece?

    Union-find over the vertices of edges colored c, edge `pos` included.
    Future edges of the class may only touch vertices with positive
    residual, so a component whose vertices are all saturated can never
    merge again: one such frozen fragment next to any other piece is
    fatal.  Each future edge joins at most h pieces, so the live pieces
    (components holding an unsaturated vertex, plus every untouched
    vertex that still needs degree) must be mergeable within the slots
    the class has left.  With no slots left this degenerates to an exact
    spanning-connectivity test.
    """
    parent = list(range(n + 1))
    touched = [False] * (n + 1)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(pos + 1):
        if i == pos or color[i] == c:
            e = edges[i]
            ra = find(e[0])
            for vb in e:
                touched[vb] = True
                rb = find(vb)
                if ra != rb:
                    parent[rb] = ra
    comp = open_comp = untouched_needy = 0
    state = [0] * (n + 1)  # per root: 1 seen, 2 seen with residual
    for v in range(1, n + 1):
        if touched[v]:
            rv = find(v)
            if state[rv] == 0:
                state[rv] = 1
                comp += 1
            if rc[v] > 0 and state[rv] == 1:
                state[rv] = 2
                open_comp += 1
        elif rc[v] > 0:
            untouched_needy += 1
    pieces = comp + untouched_needy
    if comp > open_comp and pieces >= 2:
        return False
    return open_comp + untouched_needy - 1 <= slots * (h - 1)


def solve(p: Params, edges: list, connected: bool, max_nodes: int, time_limit: float) -> tuple:
    """Exhaustive color assignment over `edges` in the given order.

    Returns (status, colors, nodes): status is "found", "none" or
    "unknown" (over `max_nodes` nodes or `time_limit` seconds), and
    colors gives a 0-based color per edge when status is "found", None
    otherwise.  `connected` demands connectivity of every class with
    r_i >= 2 when h >= 2.
    """
    _check_time_limit(time_limit)
    n, h, k, r = p.n, p.h, p.k, p.r
    E = len(edges)
    sizes = [ri * n // h for ri in r]
    conn = [connected and h >= 2 and ri >= 2 for ri in r]
    first_ok = [r.index(ri) == c for c, ri in enumerate(r)]
    same_prev = [c > 0 and r[c] == r[c - 1] for c in range(k)]
    dup_prev = [i > 0 and edges[i] == edges[i - 1] for i in range(E)]
    # residual degree per color and vertex; index 0 names no vertex and
    # holds 0, so max(rc) is the largest residual of class c
    res = [[0] + [ri] * n for ri in r]
    cnt = [0] * k
    color = [0] * E
    nodes = 0
    deadline = time.monotonic() + time_limit

    def release(c, e):
        cnt[c] -= 1
        rc = res[c]
        for v in e:
            rc[v] += 1

    pos = c = 0  # c: the next color to try at pos
    while True:
        if pos == E:
            return "found", color, nodes
        if dup_prev[pos] and c < color[pos - 1]:
            c = color[pos - 1]
        e = edges[pos]
        while c < k:
            nodes += 1
            if nodes > max_nodes or (nodes % 65536 == 0 and time.monotonic() > deadline):
                return "unknown", None, nodes
            if ((pos or first_ok[c]) and cnt[c] < sizes[c]
                    and (cnt[c] or not same_prev[c] or cnt[c - 1])
                    and all(map(res[c].__getitem__, e))):
                cnt[c] += 1
                rc = res[c]
                for v in e:
                    rc[v] -= 1
                slots = sizes[c] - cnt[c]
                if max(rc) > slots or (
                    conn[c] and not _class_completable(edges, color, pos, c, n, h, rc, slots)
                ):
                    release(c, e)
                else:
                    color[pos] = c
                    pos += 1
                    c = 0
                    break
            c += 1
        else:  # no color fits: undo the previous edge and try its next color
            pos -= 1
            if pos < 0:
                return "none", None, nodes
            release(color[pos], edges[pos])
            c = color[pos] + 1


def _witness(p: Params, edges: list, colors: list) -> tuple[Factorization, VerificationReport]:
    """The factorization a search coloring describes, with its full verification."""
    factors = [[] for _ in range(p.k)]
    for e, c in zip(edges, colors):
        factors[c].append(e)
    f = Factorization.canonical(p.n, p.h, p.lam, p.r, factors)
    return f, verify_factorization(f)


def brute_force_factorize(
    p: Params,
    require_connected: bool = False,
    budget: Optional[SearchBudget] = None,
) -> OracleResult:
    """Decide an instance by backtracking search over edge colorings.

    Instances over lam * C(n, h) = 40 edges return 'unknown' immediately.
    One loop of FINDER_RESTARTS + 1 attempts shares the budget.  Each
    restart (canonical lexicographic order first, then reshuffled orders
    under fixed seeds) is capped at FINDER_NODE_CAP nodes and demands
    connectivity of every class with r_i >= 2, so that any witness passes
    the full final verification, and a witness that fails it raises.  The
    last attempt scans the canonical order with the remaining budget,
    pruning connectivity only when `require_connected` asks for it, so its
    exhaustion refutes exactly the question posed; its witness that fails
    the full verification gives 'unknown'.  Every certificate is verified
    before 'found' is returned.

    'none' is only ever returned on sound grounds: either a counting
    refutation at the root (a class size r_i * n / h that is not an
    integer, or class sizes that do not sum to the edge count) or an
    exhausted search tree.
    """
    if budget is None:
        budget = SearchBudget()
    n, h, lam, r = p.n, p.h, p.lam, p.r
    over = binom_over(lam, n, h, MAX_ORACLE_EDGES)
    if over:
        return OracleResult(
            "unknown", reason=f"instance has {over} edges, guard is {MAX_ORACLE_EDGES}"
        )
    total = lam * binom(n, h)

    # root refutations by degree counting
    for i, ri in enumerate(r, start=1):
        if (ri * n) % h != 0:
            return OracleResult(
                "none", reason=f"class size r_{i}*n/h = {ri * n}/{h} not integral"
            )
    size_sum = sum(ri * n // h for ri in r)
    if size_sum != total:
        return OracleResult(
            "none",
            reason=f"class sizes sum to {size_sum}, instance has {total} edges",
        )

    distinct = list(combinations(range(1, n + 1), h))
    deadline = time.monotonic() + budget.time_limit
    nodes_used = 0

    # restarts ask for the strong (connected) witness, which exists
    # whenever any factorization does
    for attempt in range(FINDER_RESTARTS + 1):
        last = attempt == FINDER_RESTARTS
        time_left = deadline - time.monotonic()
        if nodes_used >= budget.max_nodes or time_left <= 0:
            return OracleResult("unknown", nodes=nodes_used, reason="budget exhausted")
        order = distinct[:]
        if 0 < attempt < FINDER_RESTARTS:
            random.Random(attempt).shuffle(order)
        edges = [e for e in order for _ in range(lam)]
        cap = budget.max_nodes - nodes_used
        status, colors, nodes = solve(p, edges, require_connected or not last,
                                      cap if last else min(FINDER_NODE_CAP, cap), time_left)
        nodes_used += nodes
        if status == "found":
            f, report = _witness(p, edges, colors)
            if report.overall:
                return OracleResult("found", f, nodes_used)
            if not last:
                raise InternalInvariantError(
                    "search witness failed verification",
                    witness=[c.name for c in report.failures()],
                )
            return OracleResult(
                "unknown", nodes=nodes_used,
                reason="witness exists but fails the connected-strength checks",
            )
        if last:
            return OracleResult(status, nodes=nodes_used,
                                reason="search exhausted" if status == "none" else "budget exhausted")


def exhaustive_select(
    ground,
    famA: LaminarFamily,
    famB: LaminarFamily,
    m: int,
) -> list[Selection]:
    """Every subset of `ground` meeting all floor/ceiling bounds.

    Bounds cover each member and each `solo` element of both families
    plus the ground set, the same constraint set the flow selector
    enforces.  Refuses weighted elements, read as (c, p) off the families'
    records, and grounds over MAX_EXHAUSTIVE_GROUND elements.  Returns
    selections in a deterministic order.
    """
    for x, (c, p, *_) in chain(famA.inner.items(), famB.inner.items()):
        if (c, p) != (1, 1):
            raise ParameterError(f"exhaustive selection takes unit elements; {x!r} weighs {(c, p)}")
    items = sorted(ground)
    g = len(items)
    if g > MAX_EXHAUSTIVE_GROUND:
        raise ParameterError(
            f"exhaustive selection over {g} elements refused (cap {MAX_EXHAUSTIVE_GROUND})"
        )
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    index = {x: i for i, x in enumerate(items)}
    constraints = []
    for fam in (famA, famB):
        for xs in chain((mb.elements for mb in fam.members), ([x] for x in fam.solo)):
            mask = 0
            for x in xs:
                mask |= 1 << index[x]
            lo, hi = bounds_for(len(xs), m)
            constraints.append((mask, lo, hi))
    lo_g, hi_g = bounds_for(g, m)

    out = []
    for size in range(lo_g, hi_g + 1):
        for combo in combinations(range(g), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(lo <= (mask & cm).bit_count() <= hi for cm, lo, hi in constraints):
                out.append(Selection(dict.fromkeys((items[i] for i in combo), 1), m))
    return out
