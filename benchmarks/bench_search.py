"""Node throughput of the oracle's coloring-search kernel.

Runs the canonical-order backtracking search (the oracle's exhaustive
phase with connectivity demanded) on a few fixed instances and prints,
per instance, the nodes visited, the best time per search and the nodes
per second.  Each of the `--repeat` samples repeats the search until at
least MIN_SAMPLE_S seconds have passed and takes the time per search, so
sub-millisecond rows are not timed from a single run; the best sample
is kept.

The package is imported from `src/` of the checkout this script sits in.

Usage: python3 benchmarks/bench_search.py [--repeat N] [--max-nodes N]
"""

import argparse
import os
import sys
import time
from itertools import combinations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypfactor import Params  # noqa: E402
from hypfactor.oracle import solve  # noqa: E402

MIN_SAMPLE_S = 0.2

# a small-overhead row, two connectivity-heavy rows, one high-multiplicity
# row, one substantial full search, and one instance that always hits the
# node budget so the last row measures raw node throughput
INSTANCES = [
    Params(6, 3, 1, (2, 2, 2, 2, 2)),
    Params(6, 3, 2, (2,) * 10),
    Params(4, 2, 6, (3, 3, 3, 3, 2, 2, 1, 1)),
    Params(7, 4, 1, (8, 4, 4, 4)),
    Params(7, 4, 1, (4, 4, 4, 4, 4)),
]


def time_solve(p: Params, edges: list, repeat: int, max_nodes: int) -> tuple:
    """Best time per search over `repeat` samples, with the node count.

    The search is deterministic, so every run visits the same nodes.
    """
    best = float("inf")
    nodes = None
    for _ in range(repeat):
        runs = 0
        t0 = time.perf_counter()
        while True:
            _, _, nodes = solve(p, edges, True, max_nodes, 300.0)
            runs += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_SAMPLE_S:
                break
        best = min(best, elapsed / runs)
    return best, nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time the oracle's search kernel")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed samples per instance, best kept (default 3)")
    ap.add_argument("--max-nodes", type=int, default=10 ** 6,
                    help="node budget per solve (default 1e6)")
    args = ap.parse_args(argv)

    width = max(len(str(p)) for p in INSTANCES)
    print(f"{'instance':<{width}}  {'nodes':>9}  {'best':>11}  {'nodes/s':>10}")
    for p in INSTANCES:
        edges = [e for e in combinations(range(1, p.n + 1), p.h) for _ in range(p.lam)]
        best, nodes = time_solve(p, edges, args.repeat, args.max_nodes)
        print(f"{str(p):<{width}}  {nodes:>9}  {best * 1000:>9.2f}ms  "
              f"{nodes / best:>10.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
