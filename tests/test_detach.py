"""Tests for feasibility, the amalgam, split steps, and full construction."""

import gc
import os
import subprocess
import sys
import weakref
from itertools import combinations
from pathlib import Path

import pytest

from hypfactor import (
    InternalInvariantError,
    ParameterError,
    binom,
    check_feasibility,
    construct,
    initial_amalgam,
    split_step,
)
from hypfactor import detach
from hypfactor.detach import Factorization, Params
from hypfactor.verify import CheckResult, VerificationReport


def _degree(G, u, color):
    """Occurrences of `u` over the explicit edges of one color class."""
    return sum(e.verts.count(u) for e in G.edges() if e.color == color)


def _class_size(G, color):
    return sum(e.color == color for e in G.edges())


def _edge_count(G):
    return len(list(G.edges()))


def _multiplicity(G, p, U):
    """Edges, over all colors, whose multiset is exactly {alpha^p} + U."""
    verts = tuple(sorted((G.alpha,) * p + tuple(U)))
    return sum(e.verts == verts for e in G.edges())


# -- parameter validation ---------------------------------------------------


def test_params_need_more_vertices_than_edge_size():
    with pytest.raises(ParameterError):
        Params(4, 4, 1, (1,))
    with pytest.raises(ParameterError):
        Params(3, 4, 1, (1,))


def test_params_validate_fields():
    with pytest.raises(ParameterError):
        Params(5, 0, 1, (1,))
    with pytest.raises(ParameterError):
        Params(5, 2, 0, (2, 2))
    with pytest.raises(ParameterError):
        Params(5, 2, 1, ())
    with pytest.raises(ParameterError):
        Params(5, 2, 1, (2, 0, 2))


# -- feasibility ------------------------------------------------------------


def test_feasible_hamiltonian_pair():
    rep = check_feasibility(Params(5, 2, 1, (2, 2)))
    assert rep.ok
    assert rep.connected_guaranteed == (True, True)


def test_infeasible_by_divisibility():
    # 2 divides neither 3*5 nor 1*5; the degree sum is fine
    rep = check_feasibility(Params(5, 2, 1, (3, 1)))
    assert not rep.ok
    failed = [name for name, ok, _ in rep.conditions if not ok]
    assert failed == ["divisibility[1]", "divisibility[2]"]


def test_infeasible_by_degree_sum():
    rep = check_feasibility(Params(5, 2, 1, (2, 2, 2)))
    assert not rep.ok
    failed = [name for name, ok, _ in rep.conditions if not ok]
    assert failed == ["degree-sum"]


def test_degree_sum_of_a_huge_binomial():
    # lam * C(n - 1, h - 1) is past the int-to-str digit limit of Python in
    # the first instance, and past what is computed in full in the second
    for n, h, text in (
        (10**5, 5 * 10**4, "sum(r)=1, lam*C(n-1,h-1)=<99991-bit integer>"),
        (10**8, 10**6, "sum(r)=1, lam*C(n-1,h-1)>1"),
    ):
        p = Params(n, h, 1, (1,))
        rep = check_feasibility(p)
        assert not rep.ok and rep.conditions[-1] == ("degree-sum", False, text)
        with pytest.raises(ParameterError, match="degree-sum"):
            construct(p)


def test_feasible_two_factorization():
    assert check_feasibility(Params(6, 3, 1, (2, 2, 2, 2, 2))).ok


def test_degree_one_factors_not_connectivity_guaranteed():
    rep = check_feasibility(Params(4, 2, 1, (2, 1)))
    assert rep.ok
    assert rep.connected_guaranteed == (True, False)


def test_unit_edge_size_never_connectivity_guaranteed():
    rep = check_feasibility(Params(3, 1, 2, (2,)))
    assert rep.ok
    assert rep.connected_guaranteed == (False,)


# -- base amalgam -----------------------------------------------------------


def test_amalgam_loop_counts():
    G = initial_amalgam(Params(5, 3, 1, (3, 3)))
    assert _edge_count(G) == 10
    assert _class_size(G, 1) == 5
    assert _class_size(G, 2) == 5


def test_amalgam_loop_counts_pairs():
    G = initial_amalgam(Params(5, 2, 1, (2, 2)))
    assert _edge_count(G) == 10
    assert _class_size(G, 1) == 5


def test_amalgam_class_sizes_sum_to_edge_total():
    p = Params(8, 4, 2, tuple([2] * 35))
    G = initial_amalgam(p)
    assert _edge_count(G) == 2 * binom(8, 4)
    assert sum(_class_size(G, i) for i in range(1, p.k + 1)) == _edge_count(G)


def test_amalgam_rejects_infeasible():
    with pytest.raises(ParameterError, match="divisibility"):
        initial_amalgam(Params(5, 2, 1, (3, 1)))


# -- split steps ------------------------------------------------------------


def test_first_split_degrees():
    p = Params(5, 2, 1, (2, 2))
    G = split_step(initial_amalgam(p), 1, p)
    for color in (1, 2):
        assert _degree(G, 1, color) == 2
        assert _degree(G, G.alpha, color) == 2 * 4


def test_first_split_multiplicities():
    # exactly 6 = C(4, 2) loops hand one hinge to the new vertex
    p = Params(5, 3, 1, (3, 3))
    G = split_step(initial_amalgam(p), 1, p)
    assert _multiplicity(G, 2, (1,)) == binom(4, 2)
    assert _multiplicity(G, 3, ()) == binom(4, 3)


def test_split_vertex_never_repeats_in_an_edge():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    for ell in range(1, 4):
        split_step(G, ell, p, seed=9)
        assert all(e.verts.count(ell) <= 1 for e in G.edges())


def test_split_stage_mismatch_rejected():
    p = Params(5, 2, 1, (2, 2))
    G = initial_amalgam(p)
    with pytest.raises(ParameterError, match="stage"):
        split_step(G, 2, p)


def test_split_stage_out_of_range_rejected():
    # after the last stage the graph has n vertices, so a stage n passes
    # the vertex count and is refused for its range
    p = Params(5, 2, 1, (2, 2))
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        split_step(G, ell, p)
    with pytest.raises(ParameterError, match=r"stage 5 outside 1\.\.4"):
        split_step(G, p.n, p)


def test_edge_count_conserved_across_stages():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    class_sizes = [_class_size(G, i) for i in range(1, p.k + 1)]
    for ell in range(1, p.n):
        split_step(G, ell, p, seed=1)
        assert _edge_count(G) == binom(6, 3)
        assert [_class_size(G, i) for i in range(1, p.k + 1)] == class_sizes


# -- full construction ------------------------------------------------------


def test_hamiltonian_pair_output():
    f = construct(Params(5, 2, 1, (2, 2)))
    assert len(f.factors) == 2
    assert all(len(factor) == 5 for factor in f.factors)
    covered = sorted(e for factor in f.factors for e in factor)
    assert covered == [tuple(e) for e in combinations(range(1, 6), 2)]
    assert f.report is not None and f.report.overall


def test_two_factorization_output():
    f = construct(Params(6, 3, 1, (2, 2, 2, 2, 2)))
    assert len(f.factors) == 5
    assert all(len(factor) == 4 for factor in f.factors)
    assert sum(len(factor) for factor in f.factors) == binom(6, 3)


def test_three_regular_pair_output():
    f = construct(Params(5, 3, 1, (3, 3)))
    for factor in f.factors:
        assert len(factor) == 5
        for v in range(1, 6):
            assert sum(e.count(v) for e in factor) == 3


def test_construct_rejects_infeasible():
    with pytest.raises(ParameterError):
        construct(Params(5, 2, 1, (3, 1)))


def test_validity_is_seed_invariant():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    outputs = set()
    for seed in range(8):
        f = construct(p, seed=seed, check_mode="full")
        assert f.report.overall
        outputs.add(f.factors)
    # the seed actually steers the selection somewhere in the pipeline
    assert len(outputs) >= 2


def test_check_mode_full_collects_stage_reports():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    f = construct(p, check_mode="full")
    assert len(f.stage_reports) == p.n - 1
    assert all(rep.overall for rep in f.stage_reports)


def _failing(stage, name="degrees", witness=(1, 2, 0, 2)):
    """A report whose one check, `name`, failed with `witness`."""
    return VerificationReport(stage, (CheckResult(name, False, witness),), False)


def test_failed_stage_check_names_the_stage(monkeypatch):
    # with check_mode="full" a stage whose invariants fail stops the run,
    # naming the stage and carrying each failed check's (name, witness)
    check = detach.verify_stage
    monkeypatch.setattr(detach, "verify_stage",
                        lambda G, ell, p: _failing(ell) if ell == 3 else check(G, ell, p))
    with pytest.raises(InternalInvariantError, match="stage 3 invariants failed") as exc:
        construct(Params(6, 3, 1, (2, 2, 2, 2, 2)), check_mode="full")
    assert exc.value.witness == [("degrees", (1, 2, 0, 2))]


def test_failed_final_check_raises(monkeypatch):
    monkeypatch.setattr(detach, "verify_factorization", lambda f: _failing("final", "connectivity", (1,)))
    with pytest.raises(InternalInvariantError, match="final verification failed") as exc:
        construct(Params(5, 2, 1, (2, 2)), check_mode="final")
    assert exc.value.witness == [("connectivity", (1,))]


def test_check_mode_final_skips_stage_reports():
    f = construct(Params(5, 2, 1, (2, 2)), check_mode="final")
    assert f.stage_reports == ()
    assert f.report is not None


def test_check_mode_off_skips_everything():
    f = construct(Params(5, 2, 1, (2, 2)), check_mode="off")
    assert f.report is None
    assert f.stage_reports == ()


def test_check_mode_validated():
    with pytest.raises(ParameterError):
        construct(Params(5, 2, 1, (2, 2)), check_mode="sometimes")


def test_canonical_ordering():
    f = Factorization.canonical(4, 2, 1, (2, 1), [[(2, 1), (4, 3)], [(4, 1)]])
    assert f.factors == (((1, 2), (3, 4)), ((1, 4),))


def test_larger_instance_with_unequal_degrees():
    # mixed degree vector over K_7 pairs: degrees must be even (h = 2,
    # n odd) and sum to C(6, 1) = 6
    p = Params(7, 2, 1, (4, 2))
    f = construct(p, check_mode="full")
    assert f.report.overall
    for factor, ri in zip(f.factors, p.r):
        assert len(factor) == ri * 7 // 2


# the SHA-256 that `benchmarks/digest_outputs.py` prints over every
# construction output; a change that alters outputs on purpose updates it.
# It was dafd3aae8987585bb25de6881d3a0451deb4eac2fa21fd0e293686f445a78282
# while the selection ran Dinic over a wired network, and
# 5107dcbff991b8b70a2ee41042adde5a7d7bf2160bc8bd118fdf8f7f2e092127 while
# each stage regrouped its whole ground into cells and wings, and
# 3c737eb3290bd826b05909ee9a4e9be7204f9fb4fd7a9a4314463495241c5019 while
# every wing and cell of one type was a family member of its own.
OUTPUT_DIGEST = "89a9d8ad9f447a3d48dc5efd817f091ecbc4b74db0858ec2b0de8c230b146b68  246 cases"


def test_outputs_match_the_pinned_digest():
    # run from the checkout as documented: the script finds `src/` itself
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "digest_outputs.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == OUTPUT_DIGEST


# canonical JSON of a few h = 2 and h = 3 constructions, printed by a child
HASH_ORDER_SCRIPT = """
import sys
from hypfactor.cli import dumps_canonical, factorization_to_doc
from hypfactor.detach import Params, construct
for spec in [(7, 2, 1, (4, 2)), (8, 2, 2, (4, 4, 3, 3)), (10, 2, 1, (3, 3, 3)),
             (6, 3, 1, (2, 2, 2, 2, 2)), (7, 3, 2, (6, 6, 6, 6, 6))]:
    for seed in (0, 5):
        f = construct(Params(*spec), seed=seed, check_mode="off")
        sys.stdout.write(dumps_canonical(factorization_to_doc(f)))
"""


def test_outputs_do_not_depend_on_hash_order():
    # the selector rotates its ground in dict order and sorts it stably,
    # and the families keep their builders' order, so outputs must not
    # move with the hash seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run([sys.executable, "-c", HASH_ORDER_SCRIPT],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0].count('"factors"') == 10
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", ["full", "final"])
def test_construct_frees_the_graph_before_the_final_check(monkeypatch, mode):
    # with the cycle collector off, the graph must be gone by reference
    # counts alone once the edges are listed: no reference cycle holds it
    build, check, graphs = detach.initial_amalgam, detach.verify_factorization, []

    def kept(p):
        G = build(p)
        graphs.append(weakref.ref(G))
        return G

    def checked(f):
        assert graphs and graphs[-1]() is None
        return check(f)

    monkeypatch.setattr(detach, "initial_amalgam", kept)
    monkeypatch.setattr(detach, "verify_factorization", checked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for p in (Params(7, 2, 1, (2, 2, 2)), Params(6, 3, 1, (6, 4)), Params(8, 4, 1, (7,) * 5)):
            assert construct(p, seed=1, check_mode=mode).report.overall
    finally:
        if enabled:
            gc.enable()
    assert len(graphs) == 3
