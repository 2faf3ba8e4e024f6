"""Command-line front end.

Usage:
    hypfactor generate --n 7 --h 2 --lambda 1 --r 2,2,2 --seed 7
    hypfactor generate --n 6 --h 3 --lambda 1 --r 2,2,2,2,2 --check full -o out.json
    hypfactor verify out.json
    hypfactor feasible --n 9 --h 3 --lambda 1 --r 4,4,4,4,4,4,4
    hypfactor oracle --n 5 --h 2 --lambda 1 --r 2,2 --require-connected

Exit codes: 0 success, 1 failed verification or oracle disagreement,
2 parameters rejected (infeasible, or resource guard without --force)
or `generate --time-limit` passed, 3 internal invariant failure, 4 I/O
or parse failure, 5 oracle guard or budget exceeded.

The JSON output is canonical: factors ordered by color index, edges in
lexicographic order, vertices ascending inside each edge, keys sorted.
Serialize -> parse -> serialize is byte-identical.  `generate --check
full` additionally embeds one invariant report per split stage; embedded
reports are ignored when a document is read back.  If HYPFACTOR_OUT_DIR
is set, relative --output paths land in that directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import chain, islice

from .detach import Factorization, Params, check_feasibility, construct
from .errors import InternalInvariantError, ParameterError, TimeLimitError
from .hypercore import binom_over, int_text
from .oracle import MAX_ORACLE_EDGES, SearchBudget, brute_force_factorize, search_backend
from .verify import LeastSubset, verify_factorization

GENERATE_EDGE_GUARD = 10**6
JSON_INT_DIGITS = 4300  # Python's default int-to-str digit limit


# -- serialization -------------------------------------------------------


def factorization_to_doc(f: Factorization) -> dict:
    return {
        "n": f.n,
        "h": f.h,
        "lambda": f.lam,
        "r": list(f.r),
        "factors": [[list(e) for e in factor] for factor in f.factors],
    }


# `factors` written compactly, then indented as at its depth in the document:
# a break after each vertex, and the brackets between edges and between factors
_VERTEX = ",\n        "
_EDGES = ("]" + _VERTEX + "[", "\n      ],\n      [\n        ")
_FACTORS = ("]]" + _VERTEX + "[[", "\n      ]\n    ],\n    [\n      [\n        ")
_OPEN, _CLOSE = '\n  "factors": [\n    [\n      [\n        ', "\n      ]\n    ]\n  ]"


def dumps_canonical(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    An indent sends json to its pure-Python encoder.  When `factors` is a
    nonempty list of nonempty lists of nonempty int lists, it is written by
    one compact C-level call and indented by three replaces; the rest of the
    document, or any other document, takes the plain call.
    """
    factors = doc.get("factors")
    if not (
        type(factors) is list
        and factors
        and set(map(type, factors)) == {list}
        and all(factors)
        and set(map(type, chain.from_iterable(factors))) == {list}
        and all(chain.from_iterable(factors))
        and set(map(type, chain.from_iterable(chain.from_iterable(factors)))) == {int}
    ):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    body = json.dumps(factors, separators=(",", ":"))[3:-3]  # inside the outer "[[[" and "]]]"
    body = body.replace(",", _VERTEX).replace(*_FACTORS).replace(*_EDGES)
    text = json.dumps({**doc, "factors": 0}, sort_keys=True, indent=2)
    return text.replace('\n  "factors": 0', _OPEN + body + _CLOSE, 1) + "\n"


def _cut(text: str) -> str:
    """An untrusted and unbounded text cut to an 80-character prefix."""
    return text if len(text) <= 80 else text[:80] + "…"


def _witness_text(w) -> str:
    """`str(w)` for a witness tuple, but each int is shown by `int_text`.

    A witness such as the degree sum λ·C(n - 1, h - 1) of a document that
    declares a huge n can pass the int-to-str digit limit of Python.  Only
    the first 81 items of a tuple are shown: they already fill more than
    the 80 characters `_cut` keeps, so the printed text is the same.
    """
    if isinstance(w, (tuple, LeastSubset)):
        parts = [_witness_text(x) for x in islice(w, 81)]
        return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
    return int_text(w) if isinstance(w, int) else repr(w)


def _reject_first_malformed(factors) -> None:
    """Raise ParameterError naming the first factor or edge of the wrong type."""
    for i, factor in enumerate(factors, start=1):
        if not isinstance(factor, list):
            raise ParameterError(f"factor {i} must be a list of edges")
        for e in factor:
            if not isinstance(e, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in e
            ):
                raise ParameterError(f"factor {i} contains a malformed edge: {_cut(repr(e))}")


def doc_to_factorization(doc) -> Factorization:
    """Validate a parsed document and wrap it as a factorization.

    The factors are the document's lists as written, neither sorted nor
    copied.  Raises ParameterError naming the offending field on any
    structural problem, or on declared parameters `Params` rejects; the
    caller maps that to the parse-failure exit code.
    """
    if not isinstance(doc, dict):
        raise ParameterError("document root must be a JSON object")
    for key in ("n", "h", "lambda", "r", "factors"):
        if key not in doc:
            raise ParameterError(f"missing required field '{key}'")
    n, h, lam = doc["n"], doc["h"], doc["lambda"]
    for key, val in (("n", n), ("h", h), ("lambda", lam)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ParameterError(f"field '{key}' must be an integer")
    r = doc["r"]
    if not isinstance(r, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in r
    ):
        raise ParameterError("field 'r' must be a list of integers")
    factors = doc["factors"]
    if not isinstance(factors, list):
        raise ParameterError("field 'factors' must be a list")
    # one C-level pass per nesting level settles the usual case; the scan
    # runs only when it fails, to name the first offending factor or edge
    if not (
        set(map(type, factors)) <= {list}
        and set(map(type, chain.from_iterable(factors))) <= {list}
        and set(map(type, chain.from_iterable(chain.from_iterable(factors)))) <= {int}
    ):
        _reject_first_malformed(factors)
    Params(n, h, lam, r)  # the same value checks `generate` applies
    return Factorization(n, h, lam, tuple(r), factors)


def factorization_to_text(f: Factorization) -> str:
    lines = [f"n={f.n} h={f.h} lambda={f.lam} k={len(f.r)}"]
    for i, factor in enumerate(f.factors, start=1):
        lines.append(f"factor {i} r={f.r[i - 1]} edges={len(factor)}")
        for e in factor:
            lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


# -- argument plumbing ---------------------------------------------------


def _parse_r(text: str) -> tuple[int, ...]:
    try:
        r = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ParameterError(f"--r expects comma-separated integers, got {text!r}")
    if not r:
        raise ParameterError("--r must list at least one factor degree")
    return r


def _params_from(args) -> Params:
    return Params(args.n, args.h, args.lam, _parse_r(args.r))


def _add_param_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="number of vertices")
    sub.add_argument("--h", type=int, required=True, help="edge size")
    sub.add_argument("--lambda", type=int, default=1, dest="lam", help="cover multiplicity")
    sub.add_argument("--r", type=str, required=True, help="factor degrees, e.g. 2,2,1")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get("HYPFACTOR_OUT_DIR")
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- subcommands ---------------------------------------------------------


def cmd_generate(args) -> int:
    p = _params_from(args)
    rep = check_feasibility(p)
    if not rep.ok:
        for name, ok, detail in rep.conditions:
            if not ok:
                print(f"infeasible: {name}: {detail}", file=sys.stderr)
        return 2
    total = binom_over(p.lam, p.n, p.h, GENERATE_EDGE_GUARD)
    if total and not args.force:
        print(
            f"refusing to build {total} edges (guard {GENERATE_EDGE_GUARD}); "
            "pass --force to override",
            file=sys.stderr,
        )
        return 2
    check_mode = None if args.check == "auto" else args.check
    fact = construct(p, seed=args.seed, check_mode=check_mode, time_limit=args.time_limit)
    if args.format == "text":
        _write_output(factorization_to_text(fact), args.output)
    else:
        doc = factorization_to_doc(fact)
        if args.check == "full":
            doc["stage_reports"] = [r.to_dict() for r in fact.stage_reports]
        _write_output(dumps_canonical(doc), args.output)
    return 0


def _load_json(raw: str):
    """`json.loads(raw)` refusing integers of more than `JSON_INT_DIGITS` digits.

    The cap holds whatever the interpreter's limit (0 turns it off), since
    parsing an integer costs the square of its digit count.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return json.loads(raw)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(min(old or JSON_INT_DIGITS, JSON_INT_DIGITS))
    try:
        return json.loads(raw)
    finally:
        sys.set_int_max_str_digits(old)


def cmd_verify(args) -> int:
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        f = doc_to_factorization(_load_json(raw))
    except json.JSONDecodeError as e:
        print(f"parse failure at line {e.lineno} column {e.colno}: {e.msg}", file=sys.stderr)
        return 4
    except (ValueError, RecursionError) as e:  # bad fields or UTF-8, huge ints, deep nesting
        print(f"parse failure: {e}", file=sys.stderr)
        return 4
    # the command owns the parsed lists: one C-level pass sorts each edge in
    # place, so the verifier counts the edges as their own cover keys
    any(map(list.sort, chain.from_iterable(f.factors)))
    rep = verify_factorization(f)
    for c in rep.checks:
        extra = "" if c.witness is None else f"  {_cut(_witness_text(c.witness))}"
        print(f"{c.name}: {c.status}{extra}")
    print(f"overall: {'valid' if rep.overall else 'INVALID'}")
    return 0 if rep.overall else 1


def cmd_feasible(args) -> int:
    p = _params_from(args)
    rep = check_feasibility(p)
    if args.format == "json":
        print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    else:
        for name, ok, detail in rep.conditions:
            print(f"{name}: {'ok' if ok else 'violated'} ({detail})")
        guaranteed = [i + 1 for i, g in enumerate(rep.connected_guaranteed) if g]
        print(f"connected factors guaranteed: {guaranteed if guaranteed else 'none'}")
        print(f"feasible: {'yes' if rep.ok else 'no'}")
    return 0 if rep.ok else 2


def cmd_oracle(args) -> int:
    p = _params_from(args)
    total = binom_over(p.lam, p.n, p.h, MAX_ORACLE_EDGES)
    if total:
        print(
            f"oracle guard: instance has {total} edges, cap is {MAX_ORACLE_EDGES}",
            file=sys.stderr,
        )
        return 5
    budget = SearchBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    rep = check_feasibility(p)
    res = brute_force_factorize(p, require_connected=args.require_connected, budget=budget)
    print(f"backend: {search_backend()}")
    print(f"feasibility: {'ok' if rep.ok else 'infeasible'}")
    print(f"search: {res.status} (nodes={res.nodes})")
    if res.reason:
        print(f"reason: {res.reason}")
    if res.status == "unknown":
        return 5
    if (res.status == "found") != rep.ok:
        print("DISAGREEMENT between counting conditions and exhaustive search",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypfactor",
        description="Connected regular factorizations of multi-cover complete "
        "uniform hypergraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct a factorization")
    _add_param_flags(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--check", choices=["auto", "full", "final", "off"], default="auto")
    g.add_argument("--format", choices=["json", "text"], default="json")
    g.add_argument("-o", "--output", default=None)
    g.add_argument("--force", action="store_true", help="override the edge-count guard")
    g.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                   help="exit 2, writing nothing, once SECONDS have passed (checked between stages)")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="verify a factorization document")
    v.add_argument("input", help="path to a JSON document, or - for stdin")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("feasible", help="report the feasibility conditions")
    _add_param_flags(f)
    f.add_argument("--format", choices=["text", "json"], default="text")
    f.set_defaults(fn=cmd_feasible)

    o = sub.add_parser("oracle", help="exhaustive search cross-check (small instances)")
    _add_param_flags(o)
    o.add_argument("--require-connected", action="store_true")
    o.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    o.add_argument("--time-limit", type=float, default=SearchBudget.time_limit)
    o.set_defaults(fn=cmd_oracle)
    return ap


_PARSER = build_parser()  # built once: parse_args leaves the parser unchanged


def main(argv=None) -> int:
    """Run one command; the cyclic collector is paused while it runs and left as found.

    A command's data are acyclic containers that reference counts free, so
    collector passes over them find nothing; only json's indenting encoder
    leaves a fixed few closures, collected once the collector runs again.
    Only the command line pauses the collector: it owns the process, which
    a library call such as `construct` does not.
    """
    args = _PARSER.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 2
    except TimeLimitError as e:
        print(f"time limit: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
