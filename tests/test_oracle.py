"""Tests for the brute-force search oracle and its kernel benchmark."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypfactor
from hypfactor import (
    Params,
    SearchBudget,
    brute_force_factorize,
    check_feasibility,
    search_backend,
    verify_factorization,
)
from hypfactor.oracle import MAX_ORACLE_EDGES


def _degrees(factor, n):
    deg = Counter(v for e in factor for v in e)
    return [deg.get(v, 0) for v in range(1, n + 1)]


def test_cycle_plus_matching_instance():
    res = brute_force_factorize(Params(4, 2, 1, (2, 1)))
    assert res.status == "found"
    f = res.factorization
    assert len(f.factors[0]) == 4 and _degrees(f.factors[0], 4) == [2, 2, 2, 2]
    assert len(f.factors[1]) == 2 and _degrees(f.factors[1], 4) == [1, 1, 1, 1]
    assert verify_factorization(f).overall


def test_two_hamiltonian_cycles_instance():
    res = brute_force_factorize(Params(5, 2, 1, (2, 2)), require_connected=True)
    assert res.status == "found"
    for factor in res.factorization.factors:
        # a connected 2-regular graph on 5 vertices is a 5-cycle
        assert len(factor) == 5
        assert _degrees(factor, 5) == [2] * 5
    assert verify_factorization(res.factorization).overall


def test_divisibility_refutation_at_root():
    res = brute_force_factorize(Params(5, 2, 1, (3, 1)))
    assert res.status == "none"
    assert "not integral" in res.reason
    assert res.nodes == 0


def test_degree_sum_refutation_at_root():
    res = brute_force_factorize(Params(5, 2, 1, (2, 2, 2)))
    assert res.status == "none"
    assert "sum to" in res.reason


def test_instance_guard_returns_unknown():
    res = brute_force_factorize(Params(10, 5, 1, (1,)))
    assert res.status == "unknown"
    assert str(MAX_ORACLE_EDGES) in res.reason


def test_budget_exhaustion_returns_unknown():
    res = brute_force_factorize(
        Params(6, 3, 1, (2, 2, 2, 2, 2)), budget=SearchBudget(max_nodes=5)
    )
    assert res.status == "unknown"
    assert res.reason == "budget exhausted"
    assert res.factorization is None


def test_found_certificates_always_fully_verify():
    # the finder demands connectivity of every class with degree >= 2 even
    # when the caller does not, so certificates survive the full verifier
    cases = [
        (5, 2, 1, (2, 2)),
        (6, 2, 1, (2, 2, 1)),
        (4, 3, 1, (3,)),
        (5, 3, 1, (3, 3)),
        (4, 2, 2, (2, 2, 1, 1)),
        (3, 2, 4, (2, 2, 2, 2)),
    ]
    for n, h, lam, r in cases:
        res = brute_force_factorize(Params(n, h, lam, r))
        assert res.status == "found", (n, h, lam, r)
        report = verify_factorization(res.factorization)
        assert report.overall, (n, h, lam, r, [c.name for c in report.failures()])


def test_balanced_hard_instance_resolves():
    # five 4-regular classes of the 4-uniform instance on 7 vertices: a
    # single fixed search order wanders for billions of nodes here, the
    # restart schedule lands a witness well inside the default budget
    res = brute_force_factorize(Params(7, 4, 1, (4, 4, 4, 4, 4)))
    assert res.status == "found"
    assert verify_factorization(res.factorization).overall


def test_oracle_agrees_with_feasibility_on_sample():
    from hypfactor import binom

    for n in range(2, 7):
        for h in range(1, n):
            S = binom(n - 1, h - 1)
            for r in [(S,), (S - 1, 1) if S >= 2 else None, (1,) * S, (S + 1,)]:
                if r is None or any(x < 1 for x in r):
                    continue
                p = Params(n, h, 1, r)
                res = brute_force_factorize(p)
                assert res.status != "unknown"
                assert (res.status == "found") == check_feasibility(p).ok, p


def test_search_is_deterministic():
    a = brute_force_factorize(Params(6, 2, 1, (2, 2, 1)))
    b = brute_force_factorize(Params(6, 2, 1, (2, 2, 1)))
    assert a.status == b.status == "found"
    assert a.factorization.factors == b.factorization.factors
    assert a.nodes == b.nodes


def test_search_order_is_pinned():
    # exact node counts fix the candidate order, the pruning and the
    # restart schedule: the first case lands on attempt 1 after attempt 0
    # spends its FINDER_NODE_CAP
    cases = [
        ((7, 4, 1, (4,) * 5), False, None, "found", 250_176),
        ((7, 4, 1, (8, 4, 4, 4)), False, None, "found", 311_322),
        ((6, 3, 2, (2,) * 10), False, None, "found", 441),
        ((4, 2, 6, (3, 3, 3, 3, 2, 2, 1, 1)), False, None, "found", 159),
        ((6, 2, 1, (2, 2, 1)), False, None, "found", 39),
        ((6, 2, 1, (2, 2, 1)), True, None, "found", 39),
        ((6, 3, 1, (2,) * 5), False, 5, "unknown", 6),
        ((6, 3, 1, (2,) * 5), True, 2000, "found", 75),
    ]
    for args, connected, max_nodes, status, nodes in cases:
        budget = SearchBudget() if max_nodes is None else SearchBudget(max_nodes=max_nodes)
        res = brute_force_factorize(Params(*args), require_connected=connected, budget=budget)
        assert (res.status, res.nodes) == (status, nodes), (args, connected, max_nodes)


def test_found_factors_are_canonically_ordered():
    res = brute_force_factorize(Params(5, 2, 1, (2, 2)))
    for factor in res.factorization.factors:
        assert list(factor) == sorted(factor)
        assert all(list(e) == sorted(e) for e in factor)


def test_backend_name_is_reported():
    assert search_backend() == "pure-python"


def test_kernel_bench_runs():
    root = Path(__file__).resolve().parent.parent
    src = str(Path(hypfactor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_search.py"),
         "--repeat", "1", "--max-nodes", "2000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
