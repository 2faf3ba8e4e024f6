"""Time `move_hinges` alone, replaying the moves of the split workloads.

Runs each construction of the split-h2 and split-dense ladders of
perfbench/workloads.py once, with the construction seeds perfbench derives
for its ops under `--seed`, and records every stage's `amounts` and target.
It then replays them: a pass starts each instance from `initial_amalgam`
and makes the recorded moves, and only the `move_hinges` calls are timed.
Prints the best and median milliseconds per pass of each workload, so the
move layer can be compared apart from the rest of a stage.  Run it at two
checkouts, alternately: the moves depend only on the instance and the
seed, so both replay the same calls when their outputs agree.

The specs are read from perfbench/workloads.py and the package is imported
from `src/` of the checkout this script sits in.

Usage: python3 benchmarks/bench_moves.py [--seed S] [--passes N]
"""

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from hypfactor.detach import Params, construct, initial_amalgam  # noqa: E402
from hypfactor.hypercore import ColoredMultiHypergraph  # noqa: E402
from workloads import SPLIT_DENSE, SPLIT_H2, derived_seed  # noqa: E402


def recorded_moves(spec, seed: int) -> list:
    """The (amounts, target) of each stage of one construction."""
    moves, move = [], ColoredMultiHypergraph.move_hinges

    def record(G, amounts, to):
        moves.append((dict(amounts), to))
        return move(G, amounts, to)

    ColoredMultiHypergraph.move_hinges = record
    try:
        construct(Params(*spec), seed, check_mode="off")
    finally:
        ColoredMultiHypergraph.move_hinges = move
    return moves


def replay(runs: list) -> float:
    """Seconds spent in `move_hinges` over one pass of the recorded runs."""
    spent, clock = 0.0, time.perf_counter
    for spec, moves in runs:
        G = initial_amalgam(Params(*spec))
        for amounts, to in moves:
            G.add_vertex(to)
            t0 = clock()
            G.move_hinges(amounts, to)
            spent += clock() - t0
    return spent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="replay the split workloads' moves")
    ap.add_argument("--seed", type=int, default=7, help="perfbench seed of the ops (default 7)")
    ap.add_argument("--passes", type=int, default=15, help="timed passes per workload (default 15)")
    args = ap.parse_args(argv)
    for name, specs in (("split-h2", SPLIT_H2), ("split-dense", SPLIT_DENSE)):
        runs = [(spec, recorded_moves(spec, derived_seed(name, args.seed, i)))
                for i, spec in enumerate(specs)]
        calls = sum(len(moves) for _, moves in runs)
        types = sum(len(amounts) for _, moves in runs for amounts, _ in moves)
        times = [replay(runs) * 1e3 for _ in range(args.passes)]
        print(f"{name:<12} {calls:>4} calls {types:>6} types  best {min(times):8.2f} ms"
              f"  median {statistics.median(times):8.2f} ms per pass", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
