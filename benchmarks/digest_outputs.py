"""One SHA-256 over the construction's outputs, to show that a change keeps them.

Hashes the canonical JSON of `construct`'s factors, of every stage report
and of the final report, with `check_mode="full"`, for:

- the acceptance grid of perfbench/workloads.py (h in 2..4, n <= 10,
  115 feasible instances) under seeds 0 and 3;
- the split-h2 and split-dense ladders of perfbench/workloads.py
  (8 instances) under seeds 1 and 7.

The specs are read from perfbench/workloads.py and the package is imported
from `src/` of the checkout this script sits in.  Run it at two commits:
equal digests mean equal outputs.  `--verbose` also prints one digest per
instance and seed, to find the first that differs.

Usage: python3 benchmarks/digest_outputs.py [--verbose]
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import hypfactor  # noqa: E402
from hypfactor.cli import dumps_canonical, factorization_to_doc  # noqa: E402
from hypfactor.detach import Params, construct  # noqa: E402
from workloads import SPLIT_DENSE, SPLIT_H2, grid_specs  # noqa: E402


def cases():
    """(spec, seed) pairs in a fixed order."""
    for spec in grid_specs(hypfactor):
        for seed in (0, 3):
            yield spec, seed
    for spec in SPLIT_H2 + SPLIT_DENSE:
        for seed in (1, 7):
            yield spec, seed


def output_text(spec, seed) -> str:
    """Canonical factors, then each stage report and the final report, one per line."""
    f = construct(Params(*spec), seed=seed, check_mode="full")
    reports = [rep.to_dict() for rep in f.stage_reports] + [f.report.to_dict()]
    return dumps_canonical(factorization_to_doc(f)) + "".join(
        json.dumps(rep, sort_keys=True) + "\n" for rep in reports
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="digest construct's outputs")
    ap.add_argument("--verbose", action="store_true", help="also print one digest per case")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for spec, seed in cases():
        text = output_text(spec, seed).encode()
        total.update(text)
        count += 1
        if args.verbose:
            print(f"{hashlib.sha256(text).hexdigest()[:16]}  seed={seed} {spec}")
    print(f"{total.hexdigest()}  {count} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
