"""Tests for the brute-force search oracle and its kernel benchmark."""

import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from hypfactor import (
    InternalInvariantError,
    ParameterError,
    Params,
    SearchBudget,
    brute_force_factorize,
    check_feasibility,
    search_backend,
    verify_factorization,
)
from hypfactor import oracle
from hypfactor.oracle import MAX_ORACLE_EDGES, solve
from hypfactor.verify import CheckResult, VerificationReport


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


def test_instance_guard_bounds_huge_binomials():
    # one edge count is past the int-to-str digit limit, one past what is
    # computed in full
    for n, h, count in ((10**5, 5 * 10**4, "<99992-bit integer>"), (10**8, 10**6, "more than 40")):
        res = brute_force_factorize(Params(n, h, 1, (1,)))
        assert res.status == "unknown"
        assert res.reason == f"instance has {count} edges, guard is {MAX_ORACLE_EDGES}"


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


def test_last_attempt_alone_is_pinned(monkeypatch):
    # with no restarts only the last attempt runs: the scan in canonical
    # order, uncapped, pruning connectivity only when asked to.  Unasked, it
    # lands a disconnected witness, which 'found' would not survive
    monkeypatch.setattr(oracle, "FINDER_RESTARTS", 0)
    p = Params(6, 2, 1, (2, 2, 1))
    res = brute_force_factorize(p)
    assert (res.status, res.nodes, res.reason) == (
        "unknown", 30, "witness exists but fails the connected-strength checks")
    res = brute_force_factorize(p, require_connected=True)
    assert (res.status, res.nodes) == ("found", 39)
    assert verify_factorization(res.factorization).overall
    res = brute_force_factorize(p, budget=SearchBudget(max_nodes=5))
    assert (res.status, res.nodes, res.reason) == ("unknown", 6, "budget exhausted")


def test_search_exhausts_an_instance_without_a_coloring():
    # a 3-regular class on 5 vertices would hold 7.5 edges; the kernel
    # sizes it 7 and exhausts the tree, where the oracle refutes at its root
    p = Params(5, 2, 1, (3, 1))
    assert solve(p, list(combinations(range(1, 6), 2)), False, 10**6, 10.0) == ("none", None, 44)


def test_witness_that_fails_verification(monkeypatch):
    # a restart's witness is connected by construction, so its failing the
    # full verification is a bug and raises; the last attempt's may lack
    # the connectivity nobody asked for, and gives 'unknown'
    real = oracle.verify_factorization

    def broken(f):
        rep = real(f)
        checks = [CheckResult(c.name, False, (1,)) if c.name == "connectivity" else c for c in rep.checks]
        return VerificationReport(rep.stage, tuple(checks), False)

    monkeypatch.setattr(oracle, "verify_factorization", broken)
    p = Params(6, 2, 1, (2, 2, 1))
    with pytest.raises(InternalInvariantError, match="search witness failed verification") as exc:
        brute_force_factorize(p)
    assert exc.value.witness == ["connectivity"]
    monkeypatch.setattr(oracle, "FINDER_RESTARTS", 0)
    res = brute_force_factorize(p, require_connected=True)
    assert (res.status, res.nodes, res.reason) == (
        "unknown", 39, "witness exists but fails the connected-strength checks")


def test_found_factors_are_canonically_ordered():
    res = brute_force_factorize(Params(5, 2, 1, (2, 2)))
    for factor in res.factorization.factors:
        assert list(factor) == sorted(factor)
        assert all(list(e) == sorted(e) for e in factor)


def test_backend_name_is_reported():
    assert search_backend() == "pure-python"


def test_time_limit_stops_search_at_deadline_check():
    # the deadline is read every 65,536 nodes, so a zero time limit stops
    # a search that runs long enough at exactly that node
    p = Params(7, 4, 1, (4,) * 5)
    edges = list(combinations(range(1, 8), 4))
    assert solve(p, edges, True, 10**9, 0.0) == ("unknown", None, 65536)


def test_nan_time_limit_is_refused():
    # a NaN deadline never expires: the search would run to its node cap
    nan = float("nan")
    with pytest.raises(ParameterError):
        SearchBudget(time_limit=nan)
    p = Params(7, 4, 1, (4,) * 5)
    with pytest.raises(ParameterError):
        solve(p, list(combinations(range(1, 8), 4)), True, 200_000, nan)
    assert SearchBudget(time_limit=float("inf")).time_limit == float("inf")


@pytest.mark.parametrize("budget", [{"max_nodes": -1}, {"time_limit": -1.0}, {"time_limit": -1e-9}])
def test_negative_budget_is_refused(budget):
    with pytest.raises(ParameterError, match="nonnegative"):
        SearchBudget(**budget)


def test_zero_budget_is_exhausted_at_once():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    for budget in (SearchBudget(max_nodes=0), SearchBudget(time_limit=0)):
        res = brute_force_factorize(p, budget=budget)
        assert (res.status, res.nodes, res.reason) == ("unknown", 0, "budget exhausted")


def test_kernel_bench_runs():
    # run from the checkout as documented: the script finds `src/` itself
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_search.py"),
         "--repeat", "1", "--max-nodes", "2000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
