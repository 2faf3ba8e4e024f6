"""One SHA-256 over what `hypfactor verify` reports, to show that a change keeps it.

Runs `cli.main(["verify", path])` in process and hashes, per document, its
exit code, standard output and standard error, for:

- the eleven documents of perfbench's verify-docs workload under seeds 1,
  2 and 3, written by `perfbench/workloads.py` itself (valid covers and
  constructions, a dropped edge, a repeated vertex, a moved edge and an
  edgeless document declaring a huge n);
- 600 seeded corruptions of them (200 per seed): a dropped edge, a
  repeated vertex, an edge moved to another factor, a vertex out of range
  (0, n + 1 or negative) and a vertex that is not an int (a string, a
  float, a bool or null), each applied to one edge of one document.

The package is imported from `src/` of the checkout this script sits in.
Run it at two commits: equal digests mean equal reports.  `--tiny` uses
the workload's tiny documents and 20 corruptions per seed, for a run of
about a second.  `--verbose` also prints one digest per case, to find the
first that differs.

Usage: python3 benchmarks/verify_digest.py [--tiny] [--verbose]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from hypfactor import cli, detach, verify  # noqa: E402
from workloads import make_workload  # noqa: E402

SEEDS = (1, 2, 3)
CORRUPTIONS = ("dropped edge", "repeated vertex", "recoloured edge", "out of range", "not an int")
STRAY_VALUES = ("7", 1.0, True, None)


def workload_docs(seed: int, tiny: bool, workdir: str) -> list:
    """The verify-docs documents of `seed`, parsed from the files the workload writes."""
    pkg = SimpleNamespace(cli=cli, detach=detach, verify=verify)
    ops = make_workload(pkg, "verify-docs", seed, workdir, tiny).ops
    docs = []
    for i in range(len(ops)):
        with open(os.path.join(workdir, f"doc{i}.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def corrupt(doc: dict, rng: random.Random) -> tuple[str, dict]:
    """One corruption of a copy of `doc`, and its name; a document with no edge gets a stray one."""
    doc = json.loads(json.dumps(doc))
    kind = rng.choice(CORRUPTIONS)
    factors = [f for f in doc["factors"] if f]
    if not factors:
        doc["factors"][0].append(list(range(1, doc["h"] + 1)))
        return "stray edge", doc
    factor = rng.choice(factors)
    e = factor[rng.randrange(len(factor))]
    j = rng.randrange(len(e))
    if kind == "dropped edge":
        factor.remove(e)
    elif kind == "repeated vertex":
        e[j] = e[j - 1]
    elif kind == "recoloured edge":
        factor.remove(e)
        rng.choice([f for f in doc["factors"] if f is not factor] or [factor]).append(e)
    elif kind == "out of range":
        e[j] = rng.choice((0, doc["n"] + 1, -3))
    else:
        e[j] = rng.choice(STRAY_VALUES)
    return kind, doc


def report(path: str) -> str:
    """Exit code, standard output and standard error of in-process `verify path`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", path])
    return f"exit {code}\n{out.getvalue()}--\n{err.getvalue()}"


def cases(tiny: bool, workdir: str):
    """(label, document) pairs in a fixed order."""
    per_seed = 20 if tiny else 200
    for seed in SEEDS:
        docs = workload_docs(seed, tiny, workdir)
        for i, doc in enumerate(docs):
            yield f"seed={seed} doc{i}", doc
        rng = random.Random(f"verify-digest/{seed}")
        for c in range(per_seed):
            i = rng.randrange(len(docs))
            kind, doc = corrupt(docs[i], rng)
            yield f"seed={seed} doc{i} {kind} #{c}", doc


def digest(tiny: bool = False, verbose: bool = False) -> str:
    total = hashlib.sha256()
    count = 0
    workdir = tempfile.mkdtemp(prefix="verify-digest-")
    try:
        path = os.path.join(workdir, "case.json")
        for label, doc in cases(tiny, workdir):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            text = report(path).encode()
            total.update(text)
            count += 1
            if verbose:
                print(f"{hashlib.sha256(text).hexdigest()[:16]}  {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return f"{total.hexdigest()}  {count} cases"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="digest the reports of hypfactor verify")
    ap.add_argument("--tiny", action="store_true", help="tiny documents, 20 corruptions per seed")
    ap.add_argument("--verbose", action="store_true", help="also print one digest per case")
    args = ap.parse_args(argv)
    print(digest(args.tiny, args.verbose))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
