"""End-to-end tests for the command-line front end."""

import io
import json

import pytest
from hypfactor import cli, construct
from hypfactor.cli import (
    doc_to_factorization,
    dumps_canonical,
    factorization_to_doc,
    main,
)
from hypfactor.detach import Params


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


def test_bad_degree_list_is_a_parameter_error(capsys):
    rc, out, err = run(capsys, "generate", "--n", "5", "--h", "2", "--lambda", "1", "--r", "2,x")
    assert rc == 2
    assert "parameter error" in err


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
    ],
    ids=["r-not-a-list", "lambda-zero", "h-zero", "n-negative"],
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


def test_verify_missing_file_is_io_failure(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 4
    assert "i/o failure" in err


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
