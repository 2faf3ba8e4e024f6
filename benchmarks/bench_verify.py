"""Time `verify_factorization` alone, on the verify-docs documents and the split ladders.

The inputs are
- the eleven documents of perfbench's verify-docs workload under `--seed`,
  each parsed by `cli._load_json` and `cli.doc_to_factorization` and then
  with every edge sorted in place, as `hypfactor verify` hands them over;
- the `construct` outputs of the split-h2 and split-dense ladders, with
  the construction seeds perfbench derives for its ops under `--seed`:
  tuples of sorted tuples, with many factors.

Each input is verified `--passes` times with the cyclic collector paused,
as `hypfactor.cli.main` runs a command, and the best and median
milliseconds per call are printed with the verdict.  Only the
`verify_factorization` call is timed.  Run it at two checkouts,
alternately: both verify the same inputs when their outputs agree.

The specs and documents come from perfbench/workloads.py, and the package
is imported from `src/` of the checkout this script sits in.

Usage: python3 benchmarks/bench_verify.py [--seed S] [--passes N]
"""

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time
from itertools import chain
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from hypfactor import cli, detach, verify  # noqa: E402
from workloads import SPLIT_DENSE, SPLIT_H2, derived_seed, docs_workload  # noqa: E402


def document_inputs(seed: int) -> list:
    """(label, factorization) of each verify-docs document, parsed and edge-sorted."""
    pkg = SimpleNamespace(cli=cli, detach=detach, verify=verify)
    inputs = []
    with tempfile.TemporaryDirectory() as workdir:
        # the workload writes op i's document to doc{i}.json
        for i, op in enumerate(docs_workload(pkg, seed, False, workdir).ops):
            with open(os.path.join(workdir, f"doc{i}.json"), encoding="utf-8") as fh:
                f = cli.doc_to_factorization(cli._load_json(fh.read()))
            any(map(list.sort, chain.from_iterable(f.factors)))
            inputs.append((op.label, f))
    return inputs


def construct_inputs(seed: int) -> list:
    """(label, factorization) of each split-h2 and split-dense ladder construction."""
    return [(f"{name} n={spec[0]} h={spec[1]} k={len(spec[3])}",
             detach.construct(detach.Params(*spec), derived_seed(name, seed, i), check_mode="off"))
            for name, specs in (("split-h2", SPLIT_H2), ("split-dense", SPLIT_DENSE))
            for i, spec in enumerate(specs)]


def timed(f, passes: int) -> tuple[list, bool]:
    """Milliseconds of each of `passes` calls on `f`, and the verdict."""
    times, clock = [], time.perf_counter
    for _ in range(passes):
        t0 = clock()
        rep = verify.verify_factorization(f)
        times.append((clock() - t0) * 1e3)
    return times, rep.overall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time verify_factorization per input")
    ap.add_argument("--seed", type=int, default=7, help="perfbench seed of the inputs (default 7)")
    ap.add_argument("--passes", type=int, default=15, help="timed calls per input (default 15)")
    args = ap.parse_args(argv)
    inputs = document_inputs(args.seed) + construct_inputs(args.seed)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for label, f in inputs:
            times, ok = timed(f, args.passes)
            edges = sum(map(len, f.factors))
            print(f"{label:<34} {edges:>6} edges {'valid' if ok else 'INVALID':>7}"
                  f"  best {min(times):8.2f} ms  median {statistics.median(times):8.2f} ms",
                  flush=True)
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
