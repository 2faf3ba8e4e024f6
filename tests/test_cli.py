"""End-to-end tests for the command-line front end."""

import contextlib
import functools
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypfactor import InternalInvariantError, TimeLimitError, cli, construct, detach
from hypfactor.cli import (
    doc_to_factorization,
    dumps_canonical,
    factorization_to_doc,
    main,
)
from hypfactor.detach import Factorization, Params
from hypfactor.oracle import OracleResult
from hypfactor.verify import CheckResult, VerificationReport, verify_factorization
from test_stage_exactness import GRID


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- generate ---------------------------------------------------------------


def test_generate_prints_canonical_json(capsys):
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1", "--r", "2,2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["h"] == 2 and doc["lambda"] == 1 and doc["r"] == [2, 2]
    assert len(doc["factors"]) == 2
    assert all(len(factor) == 5 for factor in doc["factors"])


def test_generate_roundtrip_is_byte_identical(capsys):
    rc, out, _ = run(capsys, "generate", "--n", "6", "--h", "3", "--lambda", "1", "--r", "2,2,2,2,2")
    assert rc == 0
    doc = json.loads(out)
    again = dumps_canonical(factorization_to_doc(doc_to_factorization(doc)))
    assert again == out


def test_generate_full_check_embeds_stage_reports(capsys):
    rc, out, _ = run(
        capsys, "generate", "--n", "6", "--h", "3", "--lambda", "1",
        "--r", "2,2,2,2,2", "--check", "full",
    )
    assert rc == 0
    doc = json.loads(out)
    reports = doc["stage_reports"]
    assert len(reports) == 5
    assert all(rep["overall"] for rep in reports)
    assert [rep["stage"] for rep in reports] == [2, 3, 4, 5, 6]


def test_generate_rejects_infeasible(capsys):
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1", "--r", "3,1")
    assert rc == 2
    assert "infeasible" in err


def test_generate_text_format(capsys):
    rc, out, _ = run(
        capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1",
        "--r", "2,2", "--format", "text",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=5 h=2 lambda=1 k=2"
    assert lines[1].startswith("factor 1 r=2 edges=5")
    assert len(lines) == 1 + 2 * (1 + 5)


def test_generate_edge_guard_refuses_large_builds(capsys):
    # feasible but over a million edges; the guard asks for --force
    rc, out, err = run(
        capsys, "generate", "--n", "25", "--h", "12", "--lambda", "1",
        "--r", "2496144",
    )
    assert rc == 2
    assert "refusing" in err and "--force" in err


def test_generate_writes_into_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HYPFACTOR_OUT_DIR", str(tmp_path))
    rc, out, _ = run(
        capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1",
        "--r", "2,2", "-o", "result.json",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["n"] == 5


def test_generate_internal_failure_exits_3_and_writes_nothing(capsys, tmp_path, monkeypatch):
    failed = VerificationReport("final", (CheckResult("regularity", False, (1, 1, 3, 2)),), False)
    monkeypatch.setattr(detach, "verify_factorization", lambda f: failed)
    out_file = tmp_path / "result.json"
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--r", "2,2", "-o", str(out_file))
    assert rc == 3
    assert err.startswith("internal invariant failure: final verification failed")
    assert out == "" and not out_file.exists()


def test_generate_time_limit_ends_within_one_stage(tmp_path):
    # n = 200 runs several times longer than 0.2 s: the limit stops it at
    # a stage boundary, past the limit by less than the stage that crossed
    # it, with exit 2, one line on stderr and no document
    path = tmp_path / "out.json"
    r = ",".join(["2"] * 99 + ["1"])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfactor.cli", "generate", "--n", "200", "--h", "2",
         "--r", r, "--time-limit", "0.2", "-o", str(path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, path.exists()) == (2, "", False)
    found = re.fullmatch(r"time limit: 0.2 s passed at ([0-9.]+) s, after (\d+) of 199 stages "
                         r"\(the last took ([0-9.]+) s\)\n", proc.stderr)
    assert found, proc.stderr
    at, done, last = float(found[1]), int(found[2]), float(found[3])
    assert 0 < done < 199
    assert 0.2 <= at <= 0.2 + last + 0.001  # three decimals each


def test_generate_zero_time_limit_exits_2_in_process(capsys, tmp_path):
    # the test above runs the command in a child process; this one runs it
    # in process, where a zero limit has passed at the first clock read
    path = tmp_path / "out.json"
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--r", "2,2",
                       "--time-limit", "0", "-o", str(path))
    assert (rc, out, path.exists()) == (2, "", False)
    assert err.startswith("time limit: 0 s passed at ") and "after 0 of 4 stages" in err


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_generate_refuses_a_nan_or_negative_time_limit(capsys, limit):
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--r", "2,2", "--time-limit", limit)
    assert (rc, out) == (2, "")
    assert err.startswith("parameter error: time limit must be a nonnegative number")


def test_construct_reads_the_clock_only_with_a_time_limit(monkeypatch):
    def clock():
        raise AssertionError("clock read")

    monkeypatch.setattr(detach, "monotonic", clock)
    p = Params(7, 2, 1, (2, 2, 2))
    assert construct(p, check_mode="off").factors
    with pytest.raises(AssertionError, match="clock read"):
        construct(p, check_mode="off", time_limit=10.0)
    monkeypatch.undo()
    with pytest.raises(TimeLimitError, match=r"0 s passed at [0-9.]+ s, after 0 of 6 stages"):
        construct(p, time_limit=0)
    assert construct(p, time_limit=float("inf")).report.overall


def test_bad_degree_list_is_a_parameter_error(capsys):
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1", "--r", "2,x")
    assert rc == 2
    assert "parameter error" in err
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--r", ",")
    assert (rc, out) == (2, "")
    assert err == "parameter error: --r must list at least one factor degree\n"


# -- verify -----------------------------------------------------------------


@pytest.fixture()
def valid_doc_path(capsys, tmp_path):
    path = tmp_path / "fact.json"
    rc, _, _ = run(
        capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1",
        "--r", "2,2", "-o", str(path),
    )
    assert rc == 0
    return path


def test_verify_accepts_generated_document(capsys, valid_doc_path):
    rc, out, _ = run(capsys, "verify", str(valid_doc_path))
    assert rc == 0
    assert "overall: valid" in out
    for name in ("edge-shapes", "cover-multiplicity", "regularity", "connectivity", "degree-sum"):
        assert f"{name}: pass" in out


def test_verify_accepts_document_with_embedded_reports(capsys, tmp_path):
    path = tmp_path / "full.json"
    rc, _, _ = run(
        capsys, "generate", "--n", "6", "--h", "3", "--lambda", "1",
        "--r", "2,2,2,2,2", "--check", "full", "-o", str(path),
    )
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "overall: valid" in out


def test_verify_flags_tampered_document(capsys, valid_doc_path, tmp_path):
    doc = json.loads(valid_doc_path.read_text())
    doc["factors"][0][0] = [1, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    assert "INVALID" in out
    assert "edge-shapes: fail" in out


def test_verify_reads_stdin(capsys, valid_doc_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(valid_doc_path.read_text()))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0
    assert "overall: valid" in out


def test_verify_reports_json_parse_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 5, "h": }')
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 5, "h": 2, "lambda": 1, "r": "2,2", "factors": []},
         "field 'r' must be a list of integers"),
        ({"n": 4, "h": 2, "lambda": 0, "r": [], "factors": []},
         "cover multiplicity lam must be >= 1"),
        ({"n": 4, "h": 0, "lambda": 1, "r": [1], "factors": [[]]},
         "edge size h must be >= 1"),
        ({"n": -3, "h": 2, "lambda": 1, "r": [1], "factors": [[]]},
         "need more vertices than the edge size"),
        # JSON true is a Python int subclass, and still no vertex or degree
        ({"n": 4, "h": 2, "lambda": 1, "r": [1], "factors": [[[1, 2]], [[3, True]]]},
         "factor 2 contains a malformed edge: [3, True]"),
        ({"n": 4, "h": 2, "lambda": 1, "r": [1, True], "factors": [[]]},
         "field 'r' must be a list of integers"),
        ({"n": 4, "h": 2, "lambda": 1, "r": [1], "factors": [[[1, 2.0]], 7]},
         "factor 1 contains a malformed edge: [1, 2.0]"),
    ],
    ids=[
        "r-not-a-list", "lambda-zero", "h-zero", "n-negative",
        "bool-vertex", "bool-degree", "first-of-two-faults",
    ],
)
def test_verify_rejects_wrongly_typed_fields(capsys, tmp_path, doc, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert f"parse failure: {message}" in err


def _one_edge_doc(edge: str) -> bytes:
    return ('{"n":4,"h":2,"lambda":1,"r":[1],"factors":[[' + edge + "]]}").encode()


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\xff\xfe{}", "codec can't decode"),
        (b"[" * 200000, "maximum recursion depth exceeded"),
        (b"5" * 5000, "integer string conversion"),
        # malformed edges are echoed as a bounded prefix, never whole
        (_one_edge_doc("[" * 300 + "]" * 300), "malformed edge: " + "[" * 80 + "…"),
        (_one_edge_doc("[" + ",".join(['"x"'] * 100000) + "]"), "malformed edge: ['x', 'x', "),
    ],
    ids=["not-utf8", "deep-nesting", "huge-integer", "deep-edge", "wide-edge"],
)
def test_verify_untrusted_bytes_are_parse_failures(capsys, tmp_path, monkeypatch, raw, message, source):
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        arg = "-"
    else:
        arg = str(tmp_path / "untrusted.json")
        (tmp_path / "untrusted.json").write_bytes(raw)
    rc, out, err = run(capsys, "verify", arg)
    assert rc == 4
    assert err.startswith("parse failure: ") and message in err
    assert len(err) <= 200
    assert out == ""


@pytest.mark.parametrize("limit", ["0", "100000"])
def test_verify_caps_json_integers_whatever_the_digit_limit(tmp_path, limit):
    # with the interpreter's limit off or raised, an integer past 4,300
    # digits is still a parse failure rather than a parse of quadratic cost
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": limit}
    for name, raw in [("bare", "5" * 5000), ("field", '{"n": ' + "5" * 200000 + "}")]:
        path = tmp_path / f"{name}.json"
        path.write_text(raw)
        proc = subprocess.run([sys.executable, "-m", "hypfactor.cli", "verify", str(path)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 4
        assert proc.stderr.startswith("parse failure: ") and "integer string conversion" in proc.stderr
        assert proc.stdout == ""


def test_verify_restores_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text("5" * 5000)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert run(capsys, "verify", str(path))[0] == 4
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(old)


def test_load_json_without_a_digit_limit(monkeypatch):
    # an interpreter without `set_int_max_str_digits` has no limit to cap:
    # the document is parsed as it is, with no call into `sys`
    monkeypatch.setattr(cli, "sys", SimpleNamespace())
    assert cli._load_json('{"n": ' + "5" * 400 + "}") == {"n": int("5" * 400)}


def test_verify_missing_file_is_io_failure(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 4
    assert "i/o failure" in err


# The whole check runs in a child process whose address space is capped at
# 2 GiB, so code that builds anything per declared vertex dies there with a
# MemoryError traceback instead of exhausting the machine.
_BOUNDED_VERIFY = """
import json, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from hypfactor.cli import doc_to_factorization, main
from hypfactor.verify import verify_factorization
rc = main(["verify", sys.argv[1]])
with open(sys.argv[1], encoding="utf-8") as fh:
    f = doc_to_factorization(json.load(fh))
tracemalloc.start()
t = time.perf_counter()
verify_factorization(f)
seconds = time.perf_counter() - t
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(f"cost {peak} {seconds}")
sys.exit(rc)
"""


def test_verify_cost_follows_the_document_not_the_declared_n(tmp_path):
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps({"n": 10**8, "h": 2, "lambda": 1, "r": [2], "factors": [[]]}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDED_VERIFY, str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stderr == "", proc.stderr[-2000:]  # no MemoryError traceback
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[:6] == [
        "edge-shapes: pass",
        "cover-multiplicity: fail  ((1, 2), 0, 1)",
        "regularity: fail  (1, 1, 0, 2)",
        "connectivity: fail  (1,)",
        "degree-sum: fail  (2, 99999999)",
        "overall: INVALID",
    ]
    _, peak, seconds = lines[6].split()
    assert int(peak) < 2**20  # bytes
    assert float(seconds) < 10.0  # a walk over 1..n takes minutes


def test_verify_bounds_the_witnesses_it_prints(capsys, tmp_path):
    # the degree-sum witness C(10**100 - 1, 49) has about 4,840 digits, past
    # the int-to-str digit limit of Python, and the cover witness is 50 long
    path = tmp_path / "huge-binomial.json"
    path.write_text(json.dumps({"n": 10**100, "h": 50, "lambda": 1, "r": [2], "factors": [[]]}))
    assert main(["verify", str(path)]) == 1
    cover = str((tuple(range(1, 51)), 0, 1))
    assert capsys.readouterr().out.splitlines() == [
        "edge-shapes: pass",
        f"cover-multiplicity: fail  {cover[:80]}…",
        "regularity: fail  (1, 1, 0, 2)",
        "connectivity: fail  (1,)",
        "degree-sum: fail  (2, <16069-bit integer>)",
        "overall: INVALID",
    ]


def test_verify_cost_of_a_huge_binomial(tmp_path):
    # C(n - 1, h - 1) has about 8.1 million bits and takes 45 s to compute;
    # C(n - 1, 1) already passes the degree sum, which settles the check
    doc = {"n": 10**8, "h": 10**6, "lambda": 1, "r": [2], "factors": [[]]}
    path = tmp_path / "huge-binomial.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfactor.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=2,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    witness = (2, "C(n - 1, h - 1) >= C(n - 1, 1) > sum(r) // lambda")
    assert proc.stdout.splitlines()[2:] == [
        "regularity: fail  (1, 1, 0, 2)",
        "connectivity: fail  (1,)",
        f"degree-sum: fail  {witness}",
        "overall: INVALID",
    ]
    assert len(str(witness)) < 80


# -- verify reads a document as written --------------------------------------


def _rendered(rep) -> tuple[int, str]:
    """The exit code and standard output of `verify` for the report `rep`."""
    lines = [
        f"{c.name}: {c.status}" + ("" if c.witness is None else f"  {cli._cut(cli._witness_text(c.witness))}")
        for c in rep.checks
    ]
    lines.append(f"overall: {'valid' if rep.overall else 'INVALID'}")
    return (0 if rep.overall else 1), "\n".join(lines) + "\n"


_EDITS = ("none", "repeated vertex", "zeros", "drop", "over-long", "move")


def _shuffled(doc: dict, edit: str, rng) -> dict:
    """`doc` with each factor's edges and each edge's vertices shuffled, then one edit."""
    n, factors = doc["n"], [[rng.sample(e, len(e)) for e in factor] for factor in doc["factors"]]
    for factor in factors:
        rng.shuffle(factor)
    i = rng.choice([i for i, factor in enumerate(factors) if factor])
    factor = factors[i]
    j = rng.randrange(len(factor))
    if edit == "repeated vertex":
        factor[j][1] = factor[j][0]
    elif edit == "zeros":
        factor[j] = [0] * len(factor[j])
    elif edit == "drop":
        factor.pop(j)
    elif edit == "over-long":
        factor[j].append(rng.randint(1, n))
    elif edit == "move":
        factors[rng.choice([x for x in range(len(factors)) if x != i])].append(factor.pop(j))
    return {**doc, "factors": factors}


def test_verify_as_written_matches_the_canonical_report(capsys, tmp_path):
    specs = [
        (5, 2, 1, (2, 2)), (6, 2, 1, (2, 2, 1)), (7, 2, 1, (2, 2, 2)), (4, 2, 2, (2, 2, 2)),
        (6, 3, 1, (2, 2, 2, 2, 2)), (6, 3, 1, (6, 4)), (8, 4, 1, (7, 7, 7, 7, 7)),
    ]
    docs = [
        factorization_to_doc(construct(Params(*spec), seed=seed, check_mode="off"))
        for spec in specs for seed in (0, 1, 2)
    ]
    rng = random.Random("verify-as-written")
    path = tmp_path / "doc.json"
    for t in range(30 * len(docs)):
        edit = _EDITS[t // len(docs) % len(_EDITS)]
        doc = _shuffled(docs[t % len(docs)], edit, rng)
        path.write_text(json.dumps(doc))
        rc = main(["verify", str(path)])
        canonical = Factorization.canonical(doc["n"], doc["h"], doc["lambda"], doc["r"], doc["factors"])
        assert (rc, capsys.readouterr().out) == _rendered(verify_factorization(canonical)), doc
        assert rc == (edit != "none")


def test_verify_prints_one_report_whatever_the_vertex_order(capsys, tmp_path):
    # the command sorts each parsed edge in place, so a valid document with
    # its vertices shuffled inside the edges prints its canonical report
    rng = random.Random("vertex-order")
    for spec in ((6, 2, 1, (2, 2, 1)), (6, 3, 1, (6, 4)), (7, 4, 1, (4,) * 5)):
        doc = factorization_to_doc(construct(Params(*spec), seed=1, check_mode="off"))
        shuffled = {**doc, "factors": [[rng.sample(e, len(e)) for e in f] for f in doc["factors"]]}
        assert shuffled != doc
        # parsing keeps the lists as written; only the command sorts them
        before = json.loads(json.dumps(shuffled))
        assert doc_to_factorization(shuffled).factors is shuffled["factors"] and shuffled == before
        outs = []
        for d in (doc, shuffled):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(d))
            outs.append(run(capsys, "verify", str(path)))
        assert outs[0] == outs[1] and outs[0][0] == 0, outs


def test_shuffled_malformed_documents_get_the_witness_the_command_line_prints(capsys, tmp_path):
    # the report as the library returns it for the document as written is
    # what `verify` prints, the malformed-edge witness included
    docs = [
        factorization_to_doc(construct(Params(*spec), seed=1, check_mode="off"))
        for spec in ((6, 2, 1, (2, 2, 1)), (6, 3, 1, (2, 2, 2, 2, 2)), (8, 4, 1, (7, 7, 7, 7, 7)))
    ]
    rng = random.Random("malformed-as-written")
    path, unsorted = tmp_path / "doc.json", 0
    for t in range(90):
        doc = _shuffled(docs[t % len(docs)], ("repeated vertex", "over-long")[t // 3 % 2], rng)
        path.write_text(json.dumps(doc))
        rc = main(["verify", str(path)])
        rep = verify_factorization(doc_to_factorization(doc))
        assert (rc, capsys.readouterr().out) == _rendered(rep) and rc == 1
        i, edge = rep.checks[0].witness
        unsorted += edge not in map(tuple, doc["factors"][i - 1])
    assert unsorted >= 30


def _first_bad_edge_walk(factors, h, n):
    """(factor, edge) of the first edge, in input order, that is not h distinct vertices of 1..n."""
    for i, factor in enumerate(factors, start=1):
        for e in factor:
            vs = tuple(e)
            if len(vs) != h or len(set(vs)) != h or any(not 1 <= v <= n for v in vs):
                return (i, vs)
    return None


def test_malformed_edge_witnesses_match_the_edge_walk(capsys, tmp_path):
    # the report and the command line name the first factor holding a
    # malformed edge, as a walk in input order finds it, and the first
    # malformed edge of that factor with its edges and their vertices sorted
    rng = random.Random("malformed-witnesses")
    path, failed = tmp_path / "doc.json", 0
    for _ in range(400):
        h = rng.randint(1, 4)
        n = rng.randint(h + 1, 7)
        sizes = (h,) * 6 + (h - 1, h + 1)
        odd = rng.choice((0.0, 0.05, 0.2))
        factors = [[[rng.randint(0, n + 1) if rng.random() < odd else rng.randint(1, n)
                     for _ in range(rng.choice(sizes) if rng.random() < odd else h)]
                    for _ in range(rng.randint(0, 8))] for _ in range(rng.randint(1, 3))]
        f = Factorization(n, h, 1, (1,) * len(factors), factors)
        want = _first_bad_edge_walk(factors, h, n)
        path.write_text(json.dumps({"n": n, "h": h, "lambda": 1, "r": [1] * len(factors), "factors": factors}))
        main(["verify", str(path)])
        line = capsys.readouterr().out.splitlines()[0]
        if want is None:
            assert verify_factorization(f).checks[0].witness is None
            assert line == "edge-shapes: pass"
            continue
        failed += 1
        i = want[0]
        edges = sorted(map(tuple, map(sorted, factors[i - 1])))
        canon = (i, _first_bad_edge_walk([edges], h, n)[1])
        assert verify_factorization(f).checks[0].witness == canon
        assert line == f"edge-shapes: fail  {cli._cut(cli._witness_text(canon))}"
    assert 100 < failed < 350


# -- verify on fuzzed documents ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _base_doc() -> str:
    f = construct(Params(6, 3, 1, (2, 2, 2, 2, 2)), seed=1, check_mode="off")
    return json.dumps(factorization_to_doc(f))


_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
# n and h are each set extreme or left alone, including the pairs past an
# estimated 2**20 bits, min(h, n - h) * log2(n), where the arithmetic
# checks no longer compute C(n, h) and C(n - 1, h - 1) in full and the
# cover witness of an edgeless document is named without being built.
_EXTREMES = {
    "n": (10**8, 10**12, 10**18, 10**100),
    "h": (50, 10**6, 10**12, 10**100),
}


def _paths(node, path=()):
    """Every path into a parsed document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def fuzzed_documents(draw):
    """A valid document after 0-3 edits, then maybe an extreme n, h or both.

    An edit replaces a value by a small integer or by any JSON value,
    drops it, or nests it one list deeper.
    """
    doc = json.loads(_base_doc())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("number", "number", "drop", "replace", "nest")))
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = [doc] if kind == "nest" else draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "nest":
            parent[key] = [parent[key]]
        else:
            parent[key] = draw(st.integers(-3, 12) if kind == "number" else _JSON)
    if isinstance(doc, dict):
        for field, values in _EXTREMES.items():
            if draw(st.integers(0, 2)) == 0:
                doc[field] = draw(st.sampled_from(values))
    return doc


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(fuzzed_documents())
def test_verify_survives_fuzzed_documents(doc):
    buf = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t = time.perf_counter()
            rc = main(["verify", "-"])
            seconds = time.perf_counter() - t
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 4), buf.getvalue()
    assert "Traceback" not in buf.getvalue()
    assert seconds < 10.0, (seconds, doc)


# -- feasible ---------------------------------------------------------------


def test_feasible_reports_conditions(capsys):
    rc, out, _ = run(capsys, "feasible", "--n", "5", "--h", "2", "--lambda", "1", "--r", "2,2")
    assert rc == 0
    assert "feasible: yes" in out
    assert "connected factors guaranteed: [1, 2]" in out


def test_feasible_json_format(capsys):
    rc, out, _ = run(
        capsys, "feasible", "--n", "5", "--h", "2", "--lambda", "1",
        "--r", "2,2", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_feasible_exit_code_on_violation(capsys):
    rc, out, _ = run(capsys, "feasible", "--n", "5", "--h", "2", "--lambda", "1", "--r", "3,1")
    assert rc == 2
    assert "violated" in out
    assert "feasible: no" in out


@pytest.mark.parametrize("n, h", [(10**5, 5 * 10**4), (10**6, 5 * 10**5), (10**8, 10**6)])
@pytest.mark.parametrize("command, code", [("feasible", 2), ("generate", 2), ("oracle", 5)])
def test_huge_binomials_get_their_exit_code_quickly(capsys, command, code, n, h):
    # C(n, h) is past the int-to-str digit limit of Python, or past what is
    # computed in full; each command answers in a fraction of a second,
    # where building the binomial in full takes minutes
    start = time.perf_counter()
    rc, out, err = run(capsys, command, "--n", str(n), "--h", str(h), "--r", "1")
    assert rc == code
    assert time.perf_counter() - start < 2.0
    assert ("oracle guard" if command == "oracle" else "degree-sum") in out + err
    assert ("bit integer" in out + err) == (n == 10**5)


@pytest.mark.parametrize("n, h", [(300, 150), (10**5, 5 * 10**4)])
def test_huge_integer_texts_ignore_the_digit_limit(capsys, n, h):
    # past 256 bits an integer prints as its bit length, so no text depends
    # on the int-to-str digit limit of Python: off (0) or at its least (640)
    old = sys.get_int_max_str_digits()
    texts = []
    try:
        for limit in (0, 640):
            sys.set_int_max_str_digits(limit)
            texts.append([run(capsys, command, "--n", str(n), "--h", str(h), "--r", "1")
                          for command in ("feasible", "generate", "oracle")])
    finally:
        sys.set_int_max_str_digits(old)
    assert texts[0] == texts[1]
    assert [rc for rc, _, _ in texts[0]] == [2, 2, 5]
    if n == 300:
        assert "lam*C(n-1,h-1)=<295-bit integer>" in texts[0][0][1]


# -- oracle -----------------------------------------------------------------


def test_oracle_agreement_on_feasible_instance(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "4", "--h", "2", "--lambda", "1", "--r", "2,1")
    assert rc == 0
    assert "search: found" in out
    assert "feasibility: ok" in out


def test_oracle_agreement_on_infeasible_instance(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "5", "--h", "2", "--lambda", "1", "--r", "3,1")
    assert rc == 0
    assert "search: none" in out
    assert "feasibility: infeasible" in out


def test_oracle_connected_walecki_instance(capsys):
    rc, out, _ = run(
        capsys, "oracle", "--n", "5", "--h", "2", "--lambda", "1",
        "--r", "2,2", "--require-connected",
    )
    assert rc == 0
    assert "search: found" in out


def test_oracle_disagreement_exit_code(capsys, monkeypatch):
    # a search that contradicts the counting conditions exits 1
    monkeypatch.setattr(cli, "brute_force_factorize",
                        lambda p, **kw: OracleResult("none", nodes=7, reason="search exhausted"))
    rc, out, err = run(capsys, "oracle", "--n", "4", "--h", "2", "--lambda", "1", "--r", "2,1")
    assert rc == 1
    assert "feasibility: ok" in out and "search: none (nodes=7)" in out
    assert "DISAGREEMENT" in err


def test_oracle_guard_exit_code(capsys):
    rc, _, err = run(capsys, "oracle", "--n", "10", "--h", "5", "--lambda", "1", "--r", "63,63")
    assert rc == 5
    assert "oracle guard" in err


def test_oracle_budget_exhaustion_exit_code(capsys):
    rc, out, _ = run(
        capsys, "oracle", "--n", "6", "--h", "3", "--lambda", "1",
        "--r", "2,2,2,2,2", "--max-nodes", "5",
    )
    assert rc == 5
    assert "search: unknown" in out
    assert "budget exhausted" in out


def test_oracle_time_limit_exit_code(capsys):
    rc, out, _ = run(
        capsys, "oracle", "--n", "7", "--h", "4", "--lambda", "1",
        "--r", "4,4,4,4,4", "--time-limit", "0",
    )
    assert rc == 5
    assert "budget exhausted" in out


def test_oracle_nan_time_limit_exit_code(capsys):
    rc, out, err = run(
        capsys, "oracle", "--n", "7", "--h", "4", "--lambda", "1",
        "--r", "4,4,4,4,4", "--time-limit", "nan",
    )
    assert rc == 2
    assert out == ""
    assert "parameter error" in err and "NaN" in err


@pytest.mark.parametrize("flag, value", [("--max-nodes", "-5"), ("--time-limit", "-1")])
def test_oracle_negative_budget_exit_code(capsys, flag, value):
    rc, out, err = run(capsys, "oracle", "--n", "6", "--h", "3", "--r", "2,2,2,2,2", flag, value)
    assert (rc, out) == (2, "")
    assert err.startswith("parameter error: search budget must be nonnegative")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_oracle_zero_node_budget_exit_code(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "6", "--h", "3", "--r", "2,2,2,2,2", "--max-nodes", "0")
    assert rc == 5
    assert "search: unknown (nodes=0)" in out and "budget exhausted" in out


# -- one parser for every call ----------------------------------------------


def test_reused_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(dumps_canonical(factorization_to_doc(construct(Params(5, 2, 1, (2, 2))))))
    params = ("--n", "5", "--h", "2", "--lambda", "1", "--r", "2,2")
    calls = [
        ("generate", *params, "--check", "full", "--format", "text"),
        ("generate", *params),
        ("feasible", *params),
        ("verify", str(path)),
    ]

    def first_call(argv):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        return run(capsys, *argv)

    expected = [first_call(argv) for argv in calls]
    assert [rc for rc, _, _ in expected] == [0, 0, 0, 0]
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    assert [run(capsys, *argv) for argv in calls + calls] == expected + expected


# -- the collector and the encoder ------------------------------------------


@pytest.mark.parametrize("collector", [True, False], indirect=True)
def test_main_pauses_the_collector_and_leaves_it_as_found(capsys, tmp_path, monkeypatch, collector):
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({"n": 3, "h": 2, "lambda": 1, "r": [2], "factors": [[[1, 1]]]}))
    params = ("--n", "5", "--h", "2", "--r", "2,2")
    during = []
    real = cli.check_feasibility

    def watched(p):
        during.append(gc.isenabled())
        if p.r == (2, 1, 1):
            raise InternalInvariantError("planted")
        if p.r == (1, 1, 1, 1):
            raise KeyError("planted")
        return real(p)

    monkeypatch.setattr(cli, "check_feasibility", watched)
    calls = [
        (0, ("feasible", *params)),
        (1, ("verify", str(tampered))),
        (2, ("feasible", "--n", "5", "--h", "2", "--r", "3,1")),
        (2, ("generate", "--n", "5", "--h", "2", "--r", "x")),
        (3, ("generate", "--n", "5", "--h", "2", "--r", "2,1,1")),
        (4, ("verify", str(tmp_path / "missing.json"))),
    ]
    for code, argv in calls:
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collector
    with pytest.raises(KeyError, match="planted"):
        main(["feasible", "--n", "5", "--h", "2", "--r", "1,1,1,1"])
    assert gc.isenabled() is collector
    assert during and not any(during)


@pytest.mark.usefixtures("collector")
def test_commands_leave_no_cyclic_garbage(capsys, tmp_path):
    # the premise of main's pause: what a command builds is freed by
    # reference counts alone, but for the fixed closures json's pure-Python
    # encoder leaves per indented call (its only cycle, whatever the size)
    json.dumps({"a": [1]}, indent=2)
    per_indented_call = gc.collect()
    path = tmp_path / "doc.json"
    params = ("--n", "7", "--h", "2", "--r", "2,2,2")
    calls = [
        (1, ("generate", *params, "--check", "full", "-o", str(path))),
        (1, ("generate", "--n", "5", "--h", "1", "--lambda", "3", "--r", "1,2")),
        (0, ("generate", "--n", "6", "--h", "3", "--r", "2,2,2,2,2", "--format", "text")),
        (0, ("verify", str(path))),
        (1, ("feasible", *params, "--format", "json")),
        (0, ("feasible", *params)),
        (0, ("oracle", "--n", "5", "--h", "2", "--r", "2,2", "--require-connected")),
    ]
    for indented, argv in calls:
        run(capsys, *argv)  # the first call of each fills lazy caches
        gc.collect()
        rc, _, _ = run(capsys, *argv)
        assert rc == 0 and gc.collect() == indented * per_indented_call, argv


def _grid_docs():
    """The canonical documents of the stage-exactness grid, each with and without its stage reports."""
    for spec in GRID:
        f = construct(Params(*spec), seed=1, check_mode="full")
        doc = factorization_to_doc(f)
        yield doc
        yield {**doc, "stage_reports": [rep.to_dict() for rep in f.stage_reports]}


def test_canonical_text_is_the_indented_json_text():
    docs = [
        *_grid_docs(),
        factorization_to_doc(construct(Params(5, 1, 3, (1, 2)))),  # h = 1
        {"n": 3, "h": 2, "lambda": 1, "r": [2, 0], "factors": [[[1, 2], [1, 3], [2, 3]], []]},
        {"n": 3, "h": 2, "lambda": 1, "r": [2], "factors": [[[1, 2], []]]},
        {"n": 3, "h": 2, "lambda": 1, "r": [2], "factors": [[[1, 2], [1, "3"]]]},
        {"n": 3, "h": 2, "lambda": 1, "r": [2], "factors": [[[1, 2.0]], [[True, 2]]]},
        {"n": 3, "h": 2, "lambda": 1, "r": [2], "factors": []},
        {"factors": [[[-1, 10**30]], [[3, 4], [5, 6]]], "a": [{"factors": 0}], "z": '\n  "factors": 0'},
        {"n": 3},
    ]
    assert len(docs) > 80
    for doc in docs:
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc


# the line `benchmarks/verify_digest.py --tiny` prints
VERIFY_DIGEST_TINY = "ec1a1cdb26c19e5bfea91623042da6fb0e954313de043c1b199169c2dc531e09  81 cases"


def test_verify_reports_match_the_pinned_digest():
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "verify_digest.py"), "--tiny"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == VERIFY_DIGEST_TINY
