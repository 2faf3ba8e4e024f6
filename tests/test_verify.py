"""Tests for stage-invariant and final-factorization verification."""

import copy
import gc
import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest

from conftest import perturbation_fixtures
from hypfactor import (
    CheckResult,
    ColoredMultiHypergraph,
    Edge,
    VerificationReport,
    binom,
    construct,
    initial_amalgam,
    is_connected,
    split_step,
    verify_factorization,
    verify_stage,
    wing_decomposition,
)
from hypfactor.cli import doc_to_factorization, factorization_to_doc
from hypfactor.detach import Factorization, Params
from hypfactor.hypercore import UnionFind
from hypfactor.verify import LeastSubset, _finish, _strictly_increasing
from test_stage_exactness import GRID

STAGE_CHECKS = ["degrees", "multiplicities", "edge-amalgam-bound", "connectivity", "wing-balance"]
FINAL_CHECKS = ["edge-shapes", "cover-multiplicity", "regularity", "connectivity", "degree-sum"]


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def _degree(G, u, color):
    """Occurrences of `u` over the explicit edges of one color class."""
    return sum(e.verts.count(u) for e in G.edges() if e.color == color)


def _rebuilt(G, edges):
    """A graph with the vertices and parameters of `G` and the (color, verts) `edges`."""
    H = ColoredMultiHypergraph(G.vertices, G.alpha, G.h, G.k)
    for color, verts in edges:
        H.add_edge(verts, color)
    return H


def _tampered(G, old, new):
    """A rebuilt copy of `G` with one edge `old` replaced by `new`, both (color, verts)."""
    edges = [(e.color, e.verts) for e in G.edges()]
    edges[edges.index(old)] = new
    return _rebuilt(G, edges)


# -- stage verification -----------------------------------------------------


def test_base_amalgam_stage_passes():
    p = Params(5, 2, 1, (2, 2))
    rep = verify_stage(initial_amalgam(p), 1, p)
    assert rep.overall
    assert [c.name for c in rep.checks] == STAGE_CHECKS
    assert all(c.status == "pass" for c in rep.checks)


def test_base_amalgam_stage_values():
    # the values behind the passing checks, recomputed here by hand
    p = Params(5, 2, 1, (2, 2))
    G = initial_amalgam(p)
    assert sum(e.verts == (G.alpha,) * 2 for e in G.edges()) == 10
    assert _degree(G, G.alpha, 1) == 10
    assert _degree(G, G.alpha, 2) == 10


def test_every_stage_of_a_full_run_passes():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    assert verify_stage(G, 1, p).overall
    for ell in range(1, p.n):
        split_step(G, ell, p, seed=2)
        rep = verify_stage(G, ell + 1, p)
        assert rep.overall, rep.failures()


def test_recolored_edge_fails_degree_check():
    p = Params(5, 2, 1, (2, 2))
    G = initial_amalgam(p)
    e = next(e for e in G.edges() if e.color == 1)
    G = _tampered(G, (1, e.verts), (2, e.verts))
    rep = verify_stage(G, 1, p)
    assert not rep.overall
    statuses = _statuses(rep)
    assert statuses["degrees"] == "fail"
    check = next(c for c in rep.checks if c.name == "degrees")
    # witness carries (color, vertex, got, want)
    assert check.witness == (1, 5, 8, 10)


def test_tampered_shape_fails_multiplicity_check():
    p = Params(5, 3, 1, (3, 3))
    G = split_step(initial_amalgam(p), 1, p)
    e = next(e for e in G.edges() if e.verts.count(G.alpha) == 3)
    G = _tampered(G, (e.color, e.verts), (e.color, (1, G.alpha, G.alpha)))
    rep = verify_stage(G, 2, p)
    assert _statuses(rep)["multiplicities"] == "fail"


def test_repeated_split_vertex_fails_multiplicity_check():
    p = Params(5, 3, 1, (3, 3))
    G = split_step(initial_amalgam(p), 1, p)
    e = next(e for e in G.edges() if e.verts.count(G.alpha) == 3)
    G = _tampered(G, (e.color, e.verts), (e.color, (1, 1, G.alpha)))
    rep = verify_stage(G, 2, p)
    check = next(c for c in rep.checks if c.name == "multiplicities")
    assert check.status == "fail"
    assert check.witness[0] == "repeated ordinary vertex"


def test_overfull_edge_fails_amalgam_bound():
    # at stage 3 of n=4 the divisor is 2, so a surviving 3-loop is illegal
    G = ColoredMultiHypergraph([1, 2, 9], alpha=9, h=3, k=1)
    G.add_edge((9, 9, 9), 1)
    rep = verify_stage(G, 3, Params(4, 3, 1, (3,)))
    check = next(c for c in rep.checks if c.name == "edge-amalgam-bound")
    assert check.status == "fail"
    assert check.witness[1:] == (3, 2)


def test_witnesses_name_the_first_bad_edge_in_iteration_order():
    # edges of one type need not be adjacent; the first bad one seen is
    # named by its position
    order = [(1, 2, 9)] * 3 + [(9, 9, 9), (1, 2, 9), (1, 1, 9), (9, 9, 9), (1, 1, 9)]
    edges = [Edge(1, verts) for verts in order]
    G = SimpleNamespace(vertices={1, 2, 9}, alpha=9, k=1, edges=lambda: iter(edges))
    p = Params(4, 3, 1, (3,))
    witness = {c.name: c.witness for c in verify_stage(G, 3, p).checks}
    assert witness["multiplicities"] == ("repeated ordinary vertex", 5, (1, 1, 9))
    assert witness["edge-amalgam-bound"] == (3, 3, 2)
    assert reference_stage(G, 3, p) == witness


def test_disconnected_class_fails_connectivity():
    G = ColoredMultiHypergraph([1, 2, 9], alpha=9, h=2, k=1)
    G.add_edge((1, 2), 1)
    G.add_edge((1, 2), 1)
    rep = verify_stage(G, 3, Params(4, 2, 1, (2,)))
    assert _statuses(rep)["connectivity"] == "fail"


def test_unbalanced_wings_fail_wing_balance():
    # amalgam degree 5 over wings of 3 and 2 hinges, against r * m = 4
    G = ColoredMultiHypergraph([1, 9], alpha=9, h=2, k=1)
    for _ in range(3):
        G.add_edge((1, 9), 1)
    G.add_edge((9, 9), 1)
    rep = verify_stage(G, 2, Params(3, 2, 1, (2,)))
    check = next(c for c in rep.checks if c.name == "wing-balance")
    assert check.status == "fail"
    assert check.witness == (1, 5, 4)


def test_unit_edges_skip_connectivity_checks():
    p = Params(3, 1, 2, (1, 1))
    rep = verify_stage(initial_amalgam(p), 1, p)
    statuses = _statuses(rep)
    assert statuses["connectivity"] == "skipped"
    assert statuses["wing-balance"] == "skipped"
    assert rep.overall


def test_final_stage_skips_wing_balance():
    p = Params(5, 2, 1, (2, 2))
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        split_step(G, ell, p)
    rep = verify_stage(G, p.n, p)
    assert _statuses(rep)["wing-balance"] == "skipped"
    assert rep.overall


def test_edge_on_undeclared_vertices_fails_multiplicities():
    # the cells lie over the declared split vertices 1 and 2, so an edge
    # (4, 5) falls outside all of them; its class needs no connectivity
    # (r_3 = 1) or fails it too (r_1 = 2)
    p = Params(6, 2, 1, (2, 2, 1))
    G = initial_amalgam(p)
    for ell in (1, 2):
        split_step(G, ell, p, seed=0)
    assert G.vertices == {1, 2, G.alpha} and verify_stage(G, 3, p).overall
    for color, also in ((3, {}), (1, {"connectivity": "fail"})):
        edges = [*G.edges(), Edge(color, (4, 5))]
        stub = SimpleNamespace(vertices=G.vertices, alpha=G.alpha, k=G.k, edges=lambda: iter(edges))
        rep = verify_stage(stub, 3, p)
        want = {**dict.fromkeys(STAGE_CHECKS, "pass"), "multiplicities": "fail", **also}
        assert _statuses(rep) == want
        assert rep.checks[1].witness == ("cell", 0, (4, 5), 1, 0)


# -- stage verification against a hinge-level reference ---------------------


def reference_stage(G, ell, p):
    """Witness of the first violation per stage check (None: pass), edge by edge.

    Reads only `G.vertices`, `G.alpha`, `G.k` and `G.edges()`.  Connectivity
    runs `is_connected` on each class's explicit edges and the wing balance
    takes `delta` from `wing_decomposition`, hinge by hinge.  The wing
    balance is absent at the final stage, where it is skipped.
    """
    alpha, m = G.alpha, p.n - ell + 1
    edges = list(G.edges())
    classes = {i: [e for e in edges if e.color == i] for i in range(1, G.k + 1)}
    deg = Counter((e.color, v) for e in edges for v in e.verts)
    want = {(i, u): p.r[i - 1] * (m if u == alpha else 1) for i in classes for u in sorted(G.vertices)}
    out = {"degrees": next(((*iu, deg[iu], w) for iu, w in want.items() if deg[iu] != w), None)}

    rests = [(e, tuple(v for v in e.verts if v != alpha)) for e in edges]
    bad = next(
        (("repeated ordinary vertex", x, e.verts) for x, (e, rest) in enumerate(rests)
         if len(set(rest)) != len(rest)),
        None,
    )
    if bad is None:
        shape = Counter((len(e.verts) - len(rest), rest) for e, rest in rests)
        split = sorted(G.vertices - {alpha})
        cells = [(q, U) for q in range(p.h + 1) for U in combinations(split, p.h - q)]
        want_q = {q: p.lam * binom(m, q) for q in range(p.h + 1)}
        bad = next((("cell", q, U, shape[q, U], want_q[q]) for q, U in cells if shape[q, U] != want_q[q]), None)
    out["multiplicities"] = bad
    out["edge-amalgam-bound"] = next(
        ((x, e.verts.count(alpha), m) for x, e in enumerate(edges) if e.verts.count(alpha) > m),
        None,
    )

    needed = [i for i in classes if p.r[i - 1] >= 2]
    out["connectivity"] = next(
        ((i,) for i in needed if not is_connected(G.vertices, [e.verts for e in classes[i]])), None
    )
    if ell < p.n:
        deltas = ((i, wing_decomposition(classes[i], alpha).delta) for i in needed)
        out["wing-balance"] = next(((i, d, p.r[i - 1] * m) for i, d in deltas if d != p.r[i - 1] * m), None)
    return out


def _stage_variants(G, rng, kinds=("recolour", "replace", "drop")):
    """`G`, seeded corruptions of it, and one corruption in shuffled edge order.

    Each corruption makes 1-3 edits of the given `kinds` to the edge list
    (recolour an edge, replace one vertex occurrence with a declared
    vertex, drop an edge, duplicate an edge, add an edge on declared
    vertices) and rebuilds the graph.  The shuffled copy exposes only
    `vertices`, `alpha`, `k` and `edges()`, so edges of one type are no
    longer adjacent and no construction state is there to be read.
    """
    variants = [("stage", G)]
    edges = [(e.color, e.verts) for e in G.edges()]
    for t in range(3):
        es = list(edges)
        for _ in range(rng.randint(1, 3)):
            color, verts = es.pop(rng.randrange(len(es)))
            kind = rng.choice(kinds)
            if kind == "recolour":
                es.append((rng.choice([c for c in range(1, G.k + 1) if c != color] or [color]), verts))
            elif kind == "replace":
                vs = list(verts)
                vs[rng.randrange(len(vs))] = rng.choice(sorted(G.vertices))
                es.append((color, tuple(sorted(vs))))
            elif kind == "duplicate":
                es += [(color, verts)] * 2
            elif kind == "add":
                new = tuple(sorted(rng.choices(sorted(G.vertices), k=len(verts))))
                es += [(color, verts), (rng.randint(1, G.k), new)]
        variants.append((f"tampered {t}", _rebuilt(G, es)))
    shuffled = list(variants[-1][1].edges())
    rng.shuffle(shuffled)
    stub = SimpleNamespace(vertices=G.vertices, alpha=G.alpha, k=G.k, edges=lambda: iter(shuffled))
    variants.append(("shuffled", stub))
    return variants


def test_stage_checks_match_hinge_level_reference():
    failed = Counter()
    for spec in GRID:
        p = Params(*spec)
        for seed in (0, 5):
            rng = random.Random(f"{spec}/{seed}")
            G = initial_amalgam(p)
            for ell in range(1, p.n + 1):
                if ell > 1:
                    split_step(G, ell - 1, p, seed=seed)
                for name, H in _stage_variants(G, rng):
                    rep, ref = verify_stage(H, ell, p), reference_stage(H, ell, p)
                    assert [c.name for c in rep.checks] == STAGE_CHECKS
                    for c in rep.checks:
                        where = (spec, seed, ell, name, c.name)
                        if c.name not in ref:
                            assert c.status == "skipped", where
                            continue
                        assert c.status == ("pass" if ref[c.name] is None else "fail"), where
                        assert c.witness == ref[c.name], where
                        failed[c.name] += c.status == "fail"
    assert failed["connectivity"] >= 1 and failed["wing-balance"] >= 1, failed


# -- stage verification against the per-edge verifier ------------------------


def _per_edge_class_wings(types, alpha, split_verts) -> tuple[bool, int]:
    """Connectivity and `delta` of one color class given as (verts, count) types.

    The wings are the components of the ordinary vertices, plus one per loop
    edge; connected iff every component meets the amalgam (vacuous if none).
    """
    uf, loops, ends = UnionFind(), 0, []
    for v in split_verts:
        uf.find(v)  # every split vertex starts as its own root
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


def per_edge_verify_stage(G, ell, p):
    """`verify_stage` as first written, kept as the reference.

    It keeps an id list per edge type, scans for a witness in every check
    and finds the root of every vertex; it does not fail a shape outside
    every cell, which the corruptions below never make.

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
    # count; its first edge's position is the witness when a check fails on the type
    ids: dict[tuple, list] = {}
    for x, e in enumerate(G.edges()):
        ids.setdefault((e.color, e.verts), []).append(x)
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
        wings = {i: _per_edge_class_wings(classes[i], alpha, split_verts) for i in needed}
        bad = next(((i,) for i in needed if not wings[i][0]), None)
        checks.append(CheckResult("connectivity", bad is None, bad))

        if ell <= n - 1:
            deltas = ((i, wings[i][1]) for i in needed)
            bad = next(((i, d, r[i - 1] * m) for i, d in deltas if d != r[i - 1] * m), None)
            checks.append(CheckResult("wing-balance", bad is None, bad))
        else:
            checks.append(CheckResult("wing-balance", None, ("final stage",)))

    return _finish(ell, checks)


def test_stage_checks_match_the_per_edge_verifier():
    # the stage verifier as first written, with an id list per edge type and
    # a find for every vertex, must give the same report on every stage of
    # the grid and on corruptions of it that use declared vertices only
    kinds = ("recolour", "replace", "drop", "duplicate", "add")
    failed = Counter()
    for spec in GRID:
        p = Params(*spec)
        for seed in (0, 5):
            rng = random.Random(f"per-edge/{spec}/{seed}")
            G = initial_amalgam(p)
            for ell in range(1, p.n + 1):
                if ell > 1:
                    split_step(G, ell - 1, p, seed=seed)
                for name, H in _stage_variants(G, rng, kinds):
                    rep = verify_stage(H, ell, p)
                    where = (spec, seed, ell, name)
                    assert rep.to_dict() == per_edge_verify_stage(H, ell, p).to_dict(), where
                    failed.update(c.name for c in rep.checks if c.passed is False)
    print("failed checks:", dict(failed))
    assert min(failed[name] for name in STAGE_CHECKS) >= 1, failed


# -- final verification -----------------------------------------------------


def test_constructed_output_verifies():
    f = construct(Params(5, 2, 1, (2, 2)), check_mode="off")
    rep = verify_factorization(f)
    assert rep.overall
    assert [c.name for c in rep.checks] == FINAL_CHECKS


def test_two_triangles_fail_only_connectivity():
    fixtures = dict((name, (f, exp)) for name, f, exp in perturbation_fixtures())
    f, expected = fixtures["connectivity"]
    rep = verify_factorization(f)
    assert _statuses(rep) == expected
    check = next(c for c in rep.checks if c.name == "connectivity")
    assert check.witness == (2,)


def test_duplicate_and_delete_fail_cover_on_both_subsets():
    f = construct(Params(5, 2, 1, (2, 2)), check_mode="off")
    fs = [list(factor) for factor in f.factors]
    lost, kept = fs[0][0], fs[0][1]
    fs[0][0] = kept
    g = Factorization(f.n, f.h, f.lam, f.r, tuple(tuple(x) for x in fs))
    rep = verify_factorization(g)
    assert _statuses(rep)["cover-multiplicity"] == "fail"
    from collections import Counter

    cover = Counter(e for factor in g.factors for e in factor)
    assert cover[lost] == 0 and cover[kept] == 2


def test_malformed_edge_gates_counting_checks():
    fixtures = dict((name, (f, exp)) for name, f, exp in perturbation_fixtures())
    f, expected = fixtures["edge-shapes"]
    rep = verify_factorization(f)
    assert _statuses(rep) == expected
    assert not rep.overall


def test_factor_count_mismatch_fails_shapes():
    f = Factorization(4, 2, 1, (2, 1), (((1, 2), (3, 4)),))
    rep = verify_factorization(f)
    assert _statuses(rep)["edge-shapes"] == "fail"


def test_unit_edge_factorization_skips_connectivity():
    f = Factorization.canonical(
        2, 1, 1, (1,), [[(1,), (2,)]]
    )
    rep = verify_factorization(f)
    assert _statuses(rep)["connectivity"] == "skipped"
    assert rep.overall


def test_reports_serialize_to_json():
    fixtures = perturbation_fixtures()
    for _, f, _expected in fixtures:
        doc = verify_factorization(f).to_dict()
        json.dumps(doc)
        assert set(doc) == {"stage", "overall", "checks"}
        assert doc["stage"] == "final"


def test_all_perturbations_match_expected_vectors():
    for name, f, expected in perturbation_fixtures():
        rep = verify_factorization(f)
        assert _statuses(rep) == expected, name
        assert not rep.overall


# -- final verification against a reference that walks 1..n -------------------


def reference_factorization(f):
    """The final checks as first written: every walk runs over 1..n.

    The cover walks every h-subset of 1..n, regularity every vertex of
    every factor, and connectivity runs `is_connected` on 1..n plus the
    factor's edges.  It costs O(C(n, h)), so it serves small documents only.
    """
    n, h, lam, r, factors = f.n, f.h, f.lam, f.r, f.factors
    checks = []
    bad = None
    if len(factors) != len(r):
        bad = ("factor count", len(factors), len(r))
    else:
        for i, factor in enumerate(factors, start=1):  # the least malformed edge, sorted
            malformed = [tuple(sorted(e)) for e in factor
                         if len(e) != h or len(set(e)) != h or any(not 1 <= v <= n for v in e)]
            if malformed:
                bad = (i, min(malformed))
                break
    checks.append(CheckResult("edge-shapes", bad is None, bad))
    if bad is not None:
        checks.append(CheckResult("cover-multiplicity", None, ("shapes failed",)))
        checks.append(CheckResult("regularity", None, ("shapes failed",)))
    else:
        cover = Counter(tuple(sorted(e)) for factor in factors for e in factor)
        bad = next(((U, cover[U], lam) for U in combinations(range(1, n + 1), h) if cover[U] != lam), None)
        checks.append(CheckResult("cover-multiplicity", bad is None, bad))
        bad = None
        for i, factor in enumerate(factors, start=1):
            deg = Counter(v for e in factor for v in e)
            bad = next(((i, v, deg[v], r[i - 1]) for v in range(1, n + 1) if deg[v] != r[i - 1]), None)
            if bad:
                break
        checks.append(CheckResult("regularity", bad is None, bad))
    if h == 1:
        checks.append(CheckResult("connectivity", None, ("h=1",)))
    else:
        bad = next(
            ((i,) for i, factor in enumerate(factors, start=1)
             if i <= len(r) and r[i - 1] >= 2 and not is_connected(range(1, n + 1), factor)),
            None,
        )
        checks.append(CheckResult("connectivity", bad is None, bad))
    want, got = lam * binom(n - 1, h - 1), sum(r)
    checks.append(CheckResult("degree-sum", got == want, None if got == want else (got, want)))
    return VerificationReport("final", tuple(checks), all(c.passed is not False for c in checks))


# small constructions: h = 1..4, lam = 1, 2, factors with r_i = 1 and r_i >= 2
DIFFERENTIAL_SPECS = [
    (5, 2, 1, (2, 2)),
    (6, 2, 1, (2, 2, 1)),
    (7, 2, 1, (2, 2, 2)),
    (4, 2, 2, (2, 2, 2)),
    (6, 3, 1, (2, 2, 2, 2, 2)),
    (6, 3, 1, (6, 4)),
    (8, 4, 1, (7, 7, 7, 7, 7)),
    (3, 1, 2, (1, 1)),
]


def _mutated(f, rng):
    """A copy of `f` after 1-3 seeded edits to its edges or declared parameters.

    Edits: drop, duplicate or move an edge between factors; set a vertex
    to 0 or n + 1; change n, lambda or one r_i (r_i = 0 included); empty
    a factor; remove a factor.  Edges stay in input order, unsorted where
    an edit put them out of order.
    """
    n, lam, r = f.n, f.lam, list(f.r)
    fs = [list(factor) for factor in f.factors]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "duplicate", "move", "vertex", "n", "lambda", "r", "empty", "remove"))
        full = [i for i, factor in enumerate(fs) if factor]
        if kind in ("drop", "duplicate", "move", "vertex") and full:
            i = rng.choice(full)
            j = rng.randrange(len(fs[i]))
            if kind == "drop":
                fs[i].pop(j)
            elif kind == "duplicate":
                fs[i].insert(rng.randrange(len(fs[i]) + 1), fs[i][j])
            elif kind == "move":
                fs[rng.randrange(len(fs))].append(fs[i].pop(j))
            else:
                e = list(fs[i][j])
                e[rng.randrange(len(e))] = rng.choice((0, n + 1))
                fs[i][j] = tuple(e)
        elif kind == "n":
            n = max(1, n + rng.choice((-2, -1, 1, 2, 5)))
        elif kind == "lambda":
            lam = max(0, lam + rng.choice((-1, 1)))
        elif kind == "r":
            i = rng.randrange(len(r))
            r[i] = rng.choice((0, max(0, r[i] - 1), r[i] + 1))
        elif kind == "empty":
            fs[rng.randrange(len(fs))] = []
        elif kind == "remove" and len(fs) > 1:
            fs.pop(rng.randrange(len(fs)))
    return Factorization(n, f.h, lam, tuple(r), tuple(tuple(factor) for factor in fs))


def test_cover_witness_for_lambda_at_most_zero():
    # with lambda = 0 every key is a miss and every absent subset a hit, so
    # the first miss is the least key, found without walking the C(6002, 2)
    # subsets (1, a, b) that come before it; with lambda < 0 it is (1, ..., h)
    factor = tuple((3 * i + 2, 3 * i + 3, 3 * i + 4) for i in range(2000))
    f = Factorization(10**6, 3, 0, (2,), (factor + factor[:1],))
    assert verify_factorization(f).checks[1] == CheckResult(
        "cover-multiplicity", False, ((2, 3, 4), 2, 0)
    )
    assert verify_factorization(Factorization(10**6, 3, 0, (2,), ((),))).checks[1].passed
    g = Factorization(10**6, 3, -1, (2,), (factor,))
    assert verify_factorization(g).checks[1].witness == ((1, 2, 3), 0, -1)


def test_edgeless_cover_witness_is_named_not_built():
    # (1, ..., h) is the first missing h-subset of an edgeless document: it
    # equals that tuple and serializes as that list, and naming it costs
    # nothing whatever h is; with h > n there is no h-subset to miss
    rep = verify_factorization(Factorization(5, 3, 1, (6,), ((),)))
    assert rep.checks[1] == CheckResult("cover-multiplicity", False, ((1, 2, 3), 0, 1))
    assert rep.to_dict()["checks"][1]["witness"] == [[1, 2, 3], 0, 1]
    assert LeastSubset(3) == LeastSubset(3) != LeastSubset(2)
    assert all(LeastSubset(3) != t for t in ((1, 2, 4), (1, 2), (1, 2, 3, 4), [1, 2, 3]))
    tracemalloc.start()
    try:
        huge = verify_factorization(Factorization(10**12 + 1, 10**12, 1, (10**12,), ((),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge.checks[1].witness == (LeastSubset(10**12), 0, 1) and peak < 2**20
    assert verify_factorization(Factorization(2, 3, 1, (1,), ((),))).checks[1].passed


def test_degree_sum_past_the_binomial_estimate():
    # C(n - 1, h - 1) past the 2**20-bit estimate is built up as C(n - 1, j),
    # j = 1, 2, ..., until it passes sum(r) // lambda; a sum it never passes
    # is compared with the binomial itself
    stop = "C(n - 1, h - 1) >= C(n - 1, {}) > sum(r) // lambda"
    n, h = 2**20 + 2, 2**20 // 21 + 2
    for r, lam, j in [((10**6 - 2,), 1, 1), ((n * n,), 2, 3), ((-5,), 1, 1), ((n,), -1, 1)]:
        rep = verify_factorization(Factorization(n, h, lam, r, ((),)))
        assert rep.checks[-1] == CheckResult("degree-sum", False, (r[0], stop.format(j)))
        json.dumps(rep.to_dict())
    n = 2 ** (2**19) + 1  # C(n - 1, 2) has about 2**20 bits, over an estimate just past 2**20
    want = math.comb(n - 1, 2)
    for got, witness in [(want, None), (want - 1, stop.format(2)), (want + 1, want)]:
        check = verify_factorization(Factorization(n, 3, 1, (got,), ((),))).checks[-1]
        assert check == CheckResult("degree-sum", got == want, None if got == want else (got, witness))


def test_final_checks_match_reference_on_mutated_documents():
    rng = random.Random("final-differential")
    bases = [
        construct(Params(*spec), seed=seed, check_mode="off")
        for spec in DIFFERENTIAL_SPECS
        for seed in (0, 1)
    ]
    failed = Counter()
    for t in range(5000):
        f = bases[t % len(bases)]
        g = _mutated(f, rng) if t >= len(bases) else f
        rep, ref = verify_factorization(g), reference_factorization(g)
        assert rep.checks == ref.checks, (g.n, g.lam, g.r, g.factors)
        assert rep.to_dict() == ref.to_dict()
        failed.update(c.name for c in rep.checks if c.passed is False)
    assert min(failed[name] for name in FINAL_CHECKS) >= 50, failed


@pytest.mark.parametrize("h", range(1, 6))
def test_the_strided_check_agrees_with_a_set_per_key(h):
    # sorted keys laid end to end: a key repeats a vertex iff one of the
    # h - 1 strided passes finds a position equal to the next
    rng = random.Random(f"strided/{h}")
    for _ in range(300):
        keys = [tuple(sorted(rng.choices(range(1, 2 * h + 2), k=h))) for _ in range(rng.randrange(1, 8))]
        cases = [keys] + [
            keys[:i] + [key[:j + 1] + (key[j],) + key[j + 2:]] + keys[i + 1:]  # a repeat at position j
            for i, key in enumerate(keys) for j in range(h - 1)
        ]
        for ks in cases:
            assert _strictly_increasing(ks, h) == all(len(set(k)) == h for k in ks), ks
    assert _strictly_increasing([tuple(range(1, h + 1))] * 3, h)


@pytest.mark.usefixtures("collector")
def test_verify_factorization_leaves_no_cyclic_garbage():
    # the premise of the command line's collector pause: a parsed cover
    # document and a construction are freed by reference counts alone
    n, h = 9, 3
    edges = [list(e)[::-1] for e in combinations(range(1, n + 1), h)]
    text = json.dumps({"n": n, "h": h, "lambda": 1, "r": [math.comb(n - 1, h - 1)], "factors": [edges]})
    assert verify_factorization(doc_to_factorization(json.loads(text))).overall
    assert gc.collect() == 0
    for spec in [(7, 2, 1, (2, 2, 2)), (5, 1, 3, (1, 2)), (8, 3, 1, (3,) * 7), (8, 4, 1, (7,) * 5)]:
        assert verify_factorization(construct(Params(*spec), seed=2, check_mode="full")).overall
        assert gc.collect() == 0, spec


def _canonical_path_docs():
    """A valid two-factor document (as `generate` writes it) per h = 1..5 and lambda = 1, 2."""
    for h in range(1, 6):
        for lam in (1, 2):
            n = h + 2
            S, d = lam * math.comb(n - 1, h - 1), h // math.gcd(h, n)
            p = Params(n, h, lam, (S - d, d) if S > d else (S,))
            yield factorization_to_doc(construct(p, seed=h + lam, check_mode="off"))


def _corruptions(doc, rng):
    """(name, factors) of `doc` as written, then after each corruption of one edge or factor."""
    n, h = doc["n"], doc["h"]

    def edited(edit):
        factors = [[list(e) for e in factor] for factor in doc["factors"]]
        factor = rng.choice([factor for factor in factors if factor])
        edit(factor, factor[rng.randrange(len(factor))])
        return factors

    yield "as written", doc["factors"]
    for j in range(h if h >= 2 else 0):  # position j repeats the vertex before it
        yield f"repeat at {j}", edited(lambda factor, e: e.__setitem__(j, e[j - 1]))
    for j in range(h):
        yield f"vertex 0 at {j}", edited(lambda factor, e: e.__setitem__(j, 0))
        yield f"vertex n + 1 at {j}", edited(lambda factor, e: e.__setitem__(j, n + 1))
    yield "too long", edited(lambda factor, e: e.append(rng.randint(1, n)))
    yield "too short", edited(lambda factor, e: e.pop())
    yield "empty factor", edited(lambda factor, e: factor.clear())
    yield "dropped edge", edited(lambda factor, e: factor.remove(e))


def test_reports_do_not_depend_on_the_form_of_the_edges():
    # edges as written (sorted lists), with their vertices shuffled, and as
    # tuples give one report, valid or not: canonical edges are their own
    # cover keys and any other input is counted by sorted copies; and the
    # verifier leaves every form as it was handed over
    rng = random.Random("canonical-path")
    failed = Counter()
    for doc in _canonical_path_docs():
        n, h, lam, r = doc["n"], doc["h"], doc["lambda"], tuple(doc["r"])
        for name, factors in _corruptions(doc, rng):
            forms = [
                factors,
                [[rng.sample(e, len(e)) for e in factor] for factor in factors],
                [[*map(tuple, factor)] for factor in factors],
            ]
            dicts = []
            for form in forms:
                before = copy.deepcopy(form)
                dicts.append(verify_factorization(Factorization(n, h, lam, r, form)).to_dict())
                assert form == before, (h, lam, name)
            assert dicts[0] == dicts[1] == dicts[2], (h, lam, name)
            assert dicts[0]["overall"] == (name == "as written"), (h, lam, name, dicts[0])
            shapes = dicts[0]["checks"][0]["status"]
            assert (shapes == "fail") == (name not in ("as written", "empty factor", "dropped edge"))
            failed.update(c["name"] for c in dicts[0]["checks"] if c["status"] == "fail")
    assert failed["cover-multiplicity"] and failed["regularity"], failed
