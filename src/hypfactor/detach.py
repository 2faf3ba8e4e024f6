"""The splitting pipeline: amalgam to finished factorization.

Feasibility is arithmetic: color i can be r_i-regular on n vertices only
if h divides r_i * n, and the per-vertex degree budget forces the r_i to
sum to lam * C(n-1, h-1).  Those two conditions are also sufficient, and
the construction below realizes them: start from a single amalgam vertex
carrying every edge as an all-amalgam loop, then split off one new vertex
per stage.  Edges of one type (color, vertex multiset) are
interchangeable, so each stage works on the amalgam-incident types with
their counts, at O(edge types) cost: it builds the wing and cell
families over them, asks the equalized selector how many edges of each
type give up a hinge, and moves those hinges to the new vertex.
Rounding exactness does the rest: hinge groups whose sizes are divisible
by the stage divisor come out exact, which pins split-vertex degrees to
r_i, keeps shape multiplicities on their binomial schedule, and leaves
every class with r_i >= 2 connected (for h >= 2).

Vertex naming: split vertices take ids 1..n-1 in creation order and the
amalgam carries its final label n throughout, so the finished object
needs no relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph, binom
from .laminar import build_cell_family, build_wing_family, equalized_select
from .verify import VerificationReport, verify_factorization, verify_stage
from .wings import wing_decompositions

CHECK_MODES = ("full", "final", "off")


@dataclass(frozen=True)
class Params:
    """Instance parameters: n vertices, edge size h, cover lam, factor degrees r."""

    n: int
    h: int
    lam: int
    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if self.h < 1:
            raise ParameterError(f"edge size h must be >= 1, got {self.h}")
        if self.n <= self.h:
            raise ParameterError(
                f"need more vertices than the edge size, got n={self.n}, h={self.h}"
            )
        if self.lam < 1:
            raise ParameterError(f"cover multiplicity lam must be >= 1, got {self.lam}")
        if not self.r:
            raise ParameterError("at least one factor degree is required")
        if any(x < 1 for x in self.r):
            raise ParameterError(f"factor degrees must be >= 1, got {self.r}")

    @property
    def k(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    conditions: tuple
    connected_guaranteed: tuple[bool, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": [
                {"name": name, "ok": cond_ok, "detail": detail}
                for name, cond_ok, detail in self.conditions
            ],
            "connected_guaranteed": list(self.connected_guaranteed),
        }


def check_feasibility(p: Params) -> FeasibilityReport:
    """Decide whether (n, h, lam, r) admits a factorization.

    Two conditions, each reported with detail: h | r_i * n for every i,
    and sum(r) = lam * C(n-1, h-1).  Also flags which factors come with a
    connectivity guarantee (r_i >= 2, and h >= 2 since spanning connected
    1-uniform hypergraphs on 2+ vertices do not exist).
    """
    conditions = []
    for i, ri in enumerate(p.r, start=1):
        ok = (ri * p.n) % p.h == 0
        conditions.append(
            (
                f"divisibility[{i}]",
                ok,
                f"h={p.h} {'divides' if ok else 'does not divide'} r_{i}*n={ri * p.n}",
            )
        )
    want = p.lam * binom(p.n - 1, p.h - 1)
    got = sum(p.r)
    conditions.append(
        (
            "degree-sum",
            got == want,
            f"sum(r)={got}, lam*C(n-1,h-1)={want}",
        )
    )
    ok = all(c[1] for c in conditions)
    guaranteed = tuple(ri >= 2 and p.h >= 2 for ri in p.r)
    return FeasibilityReport(ok, tuple(conditions), guaranteed)


def initial_amalgam(p: Params) -> ColoredMultiHypergraph:
    """Stage-1 object: one amalgam vertex holding every edge as a loop.

    Color i receives r_i * n / h copies of the all-amalgam loop, so the
    amalgam's color-i degree starts at r_i * n and the loop total is
    lam * C(n, h).  Requires feasible parameters.
    """
    rep = check_feasibility(p)
    if not rep.ok:
        raise ParameterError(
            "infeasible parameters: "
            + "; ".join(f"{name}: {detail}" for name, ok, detail in rep.conditions if not ok)
        )
    alpha = p.n
    G = ColoredMultiHypergraph([alpha], alpha, p.h, p.k)
    loop = (alpha,) * p.h
    for i, ri in enumerate(p.r, start=1):
        G.add_edge(loop, i, ri * p.n // p.h)
    return G


def split_step(G: ColoredMultiHypergraph, ell: int, p: Params, seed: int = 0) -> ColoredMultiHypergraph:
    """Split one new vertex off the amalgam (stage ell -> ell + 1).

    Lists the amalgam-incident edge types once, builds both families over
    them, selects per type how many edges give up a hinge (divisor
    m = n - ell + 1; one hinge per edge suffices as no edge holds more
    than m), and moves those hinges onto the new vertex `ell`.  Mutates
    `G` in place and returns it.
    """
    if len(G.vertices) != ell:
        raise ParameterError(
            f"stage mismatch: graph has {len(G.vertices)} vertices, caller says {ell}"
        )
    if not 1 <= ell <= p.n - 1:
        raise ParameterError(f"stage {ell} outside 1..{p.n - 1}")
    ground = G.hinges_at()
    decomps = wing_decompositions(G, ground)
    famA = build_wing_family(G, ground, decomps)
    famB = build_cell_family(G, ground)
    m = p.n - ell + 1
    sel = equalized_select(ground, famA, famB, m, seed)
    G.add_vertex(ell)
    G.move_hinges(sel.amounts, ell)
    return G


@dataclass
class Factorization:
    """A factorization: factor i is a sequence of edges, each a sequence of vertices.

    The factors are kept as given; `canonical` sorts every edge and every
    factor into tuples, as `construct` and the oracle return them.
    """

    n: int
    h: int
    lam: int
    r: tuple[int, ...]
    factors: Sequence
    report: Optional[VerificationReport] = None
    stage_reports: tuple = field(default_factory=tuple)

    @staticmethod
    def canonical(n, h, lam, r, factors, **kw) -> "Factorization":
        canon = tuple(tuple(sorted(map(tuple, map(sorted, factor)))) for factor in factors)
        return Factorization(n, h, lam, tuple(r), canon, **kw)


def _stage_seed(seed: int, ell: int) -> int:
    return seed * 1_000_003 + ell


def construct(p: Params, seed: int = 0, check_mode: Optional[str] = None) -> Factorization:
    """Run the full pipeline and return a verified factorization.

    check_mode: "full" verifies every stage's invariants plus the final
    object, "final" only the final object, "off" nothing.  The default is
    "full" for n <= 10 and "final" above that.  Different seeds may yield
    different factorizations; validity never depends on the seed.
    """
    if check_mode is None:
        check_mode = "full" if p.n <= 10 else "final"
    if check_mode not in CHECK_MODES:
        raise ParameterError(f"check_mode must be one of {CHECK_MODES}")

    G = initial_amalgam(p)
    stage_reports: list[VerificationReport] = []
    for ell in range(1, p.n):
        split_step(G, ell, p, _stage_seed(seed, ell))
        if check_mode == "full":
            rep = verify_stage(G, ell + 1, p)
            stage_reports.append(rep)
            if not rep.overall:
                fails = [(c.name, c.witness) for c in rep.failures()]
                raise InternalInvariantError(
                    f"stage {ell + 1} invariants failed: {fails}", witness=fails
                )

    factors = [[] for _ in range(p.k)]
    for e in G.edges():
        factors[e.color - 1].append(e.verts)
    fact = Factorization.canonical(
        p.n, p.h, p.lam, p.r, factors, stage_reports=tuple(stage_reports)
    )

    if check_mode != "off":
        rep = verify_factorization(fact)
        fact.report = rep
        if not rep.overall:
            fails = [(c.name, c.witness) for c in rep.failures()]
            raise InternalInvariantError(
                f"final verification failed: {fails}", witness=fails
            )
    return fact
