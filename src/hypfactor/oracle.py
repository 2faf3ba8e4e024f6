"""Independent brute-force oracles for cross-checking the pipeline.

Two oracles live here.  `brute_force_factorize` decides small instances
by backtracking over color assignments (restart attempts to find a
witness, then an exhaustive scan to refute), entirely separate from the
splitting pipeline: it shares no code path with `construct` beyond the
result container and the final verifier.  `exhaustive_select` enumerates
every selection satisfying the floor/ceiling bounds of two laminar
families over arbitrary elements, used to check that the flow-based
selector only ever returns members of that space.

The backtracking inner loop is the kernel in `_search_py`; `kernel_inputs`
turns an edge order into its arguments.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from ._search_py import FOUND, NONE, UNKNOWN, solve
from .detach import Factorization, Params
from .errors import InternalInvariantError, ParameterError
from .hypercore import binom
from .laminar import LaminarFamily, Selection, bounds_for
from .verify import VerificationReport, verify_factorization


def search_backend() -> str:
    """Name of the search kernel, as reported by `hypfactor oracle`."""
    return "pure-python"


MAX_ORACLE_EDGES = 40
MAX_EXHAUSTIVE_GROUND = 20

# Witness-finding phase: number of restart attempts and the node cap per
# attempt.  Attempt 0 uses the canonical lexicographic edge order; later
# attempts reshuffle the distinct edges with a fixed per-attempt seed.
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


@dataclass(frozen=True)
class OracleResult:
    status: str  # "found" | "none" | "unknown"
    factorization: Optional[Factorization] = None
    nodes: int = 0
    reason: Optional[str] = None


def kernel_inputs(p: Params, edges: list, connected: bool) -> tuple:
    """Kernel arguments, short of the budget, for one edge order.

    Duplicate copies (adjacent in `edges`) are forced into non-decreasing
    colors and the first edge may only take the lowest color index of each
    distinct degree value.  Both rules discard only color-permuted replays
    of assignments the search sees anyway, so they are sound under any
    edge order.  `connected` demands connectivity of every class with
    r_i >= 2 when h >= 2.
    """
    n, h, k, r = p.n, p.h, p.k, p.r
    ev = [v for e in edges for v in e]
    dup_prev = [1 if i > 0 and edges[i] == edges[i - 1] else 0 for i in range(len(edges))]
    first_ok = [False] * (k + 1)
    seen_degrees = set()
    for i in range(1, k + 1):
        if r[i - 1] not in seen_degrees:
            seen_degrees.add(r[i - 1])
            first_ok[i] = True
    sizes = [0] + [ri * n // h for ri in r]
    conn = [False] + [connected and h >= 2 and ri >= 2 for ri in r]
    return n, h, ev, dup_prev, first_ok, k, [0] + list(r), sizes, conn


def _witness(p: Params, edges: list, colors: list) -> tuple[Factorization, VerificationReport]:
    """The factorization a kernel coloring describes, with its full verification."""
    factors = [[] for _ in range(p.k)]
    for e, c in zip(edges, colors):
        factors[c - 1].append(e)
    f = Factorization.canonical(p.n, p.h, p.lam, p.r, factors)
    return f, verify_factorization(f)


def brute_force_factorize(
    p: Params,
    require_connected: bool = False,
    budget: Optional[SearchBudget] = None,
) -> OracleResult:
    """Decide an instance by backtracking search over edge colorings.

    Instances over lam * C(n, h) = 40 edges return 'unknown' immediately.
    Two phases share the budget.  A finder phase runs restart attempts
    (canonical lexicographic order first, then reshuffled orders under
    fixed seeds, each capped at FINDER_NODE_CAP nodes) with connectivity
    demanded of every class with r_i >= 2, so that any witness passes the
    full final verification; the certificate is checked before 'found' is
    returned.  If no attempt lands a witness, an exhaustive scan in the
    canonical order spends the remaining budget, with connectivity pruned
    only when `require_connected` asks for it, so its exhaustion refutes
    exactly the question posed.

    'none' is only ever returned on sound grounds: either a counting
    refutation at the root (a class size r_i * n / h that is not an
    integer, or class sizes that do not sum to the edge count) or an
    exhausted search tree.
    """
    if budget is None:
        budget = SearchBudget()
    n, h, lam, r = p.n, p.h, p.lam, p.r
    total = lam * binom(n, h)
    if total > MAX_ORACLE_EDGES:
        return OracleResult(
            "unknown", reason=f"instance has {total} edges, guard is {MAX_ORACLE_EDGES}"
        )

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
    nodes_left = budget.max_nodes
    nodes_used = 0

    # finder phase: always ask for the strong (connected) witness, which
    # exists whenever any factorization does
    for attempt in range(FINDER_RESTARTS):
        time_left = deadline - time.monotonic()
        if nodes_left <= 0 or time_left <= 0:
            break
        order = distinct
        if attempt > 0:
            order = distinct[:]
            random.Random(attempt).shuffle(order)
        edges = [e for e in order for _ in range(lam)]
        status, colors, nodes = solve(
            *kernel_inputs(p, edges, connected=True),
            min(FINDER_NODE_CAP, nodes_left), time_left,
        )
        nodes_used += nodes
        nodes_left -= nodes
        if status == FOUND:
            f, report = _witness(p, edges, colors)
            if not report.overall:
                raise InternalInvariantError(
                    "search witness failed verification",
                    witness=[c.name for c in report.failures()],
                )
            return OracleResult("found", f, nodes_used)

    # exhaustive phase in canonical order
    time_left = deadline - time.monotonic()
    if nodes_left <= 0 or time_left <= 0:
        return OracleResult("unknown", nodes=nodes_used, reason="budget exhausted")
    edges = [e for e in distinct for _ in range(lam)]
    status, colors, nodes = solve(
        *kernel_inputs(p, edges, connected=require_connected), nodes_left, time_left,
    )
    nodes_used += nodes
    if status == UNKNOWN:
        return OracleResult("unknown", nodes=nodes_used, reason="budget exhausted")
    if status == NONE:
        return OracleResult("none", nodes=nodes_used, reason="search exhausted")
    # a witness the finder missed; keep only a certificate that survives
    # the same verification 'found' always promises
    f, report = _witness(p, edges, colors)
    if not report.overall:
        return OracleResult(
            "unknown", nodes=nodes_used,
            reason="witness exists but fails the connected-strength checks",
        )
    return OracleResult("found", f, nodes_used)


def exhaustive_select(
    ground,
    famA: LaminarFamily,
    famB: LaminarFamily,
    m: int,
    max_ground: int = MAX_EXHAUSTIVE_GROUND,
) -> list[Selection]:
    """Every subset of `ground` meeting all floor/ceiling bounds.

    Bounds cover each member of both families plus the ground set, the
    same constraint set the flow selector enforces.  Refuses grounds over
    `max_ground` elements.  Returns selections in a deterministic order.
    """
    items = sorted(ground)
    g = len(items)
    if g > max_ground:
        raise ParameterError(
            f"exhaustive selection over {g} elements refused (cap {max_ground})"
        )
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    index = {x: i for i, x in enumerate(items)}
    constraints = []
    for fam in (famA, famB):
        for mb in fam.members:
            mask = 0
            for x in mb.elements:
                mask |= 1 << index[x]
            lo, hi = bounds_for(len(mb.elements), m)
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
