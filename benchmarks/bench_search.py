"""Node throughput of the oracle's coloring-search kernel.

Runs the canonical-order backtracking search (the oracle's exhaustive
phase with connectivity demanded) on a few fixed instances and prints,
per instance, the nodes visited, the best wall time over a few repeats
and the nodes per second.

Usage: python3 benchmarks/bench_search.py [--repeat N] [--max-nodes N]
"""

import argparse
import time
from itertools import combinations

from hypfactor import Params
from hypfactor._search_py import solve
from hypfactor.oracle import kernel_inputs

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


def time_solve(inputs: tuple, repeat: int, max_nodes: int) -> tuple:
    """Best wall time over `repeat` runs, with the node count.

    The kernel is deterministic, so every repeat visits the same nodes.
    """
    best = float("inf")
    nodes = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        _, _, nodes = solve(*inputs, max_nodes, 300.0)
        best = min(best, time.perf_counter() - t0)
    return best, nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time the oracle's search kernel")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repeats per instance, best kept (default 3)")
    ap.add_argument("--max-nodes", type=int, default=10 ** 6,
                    help="node budget per solve (default 1e6)")
    args = ap.parse_args(argv)

    width = max(len(str(p)) for p in INSTANCES)
    print(f"{'instance':<{width}}  {'nodes':>9}  {'best':>11}  {'nodes/s':>10}")
    for p in INSTANCES:
        edges = [e for e in combinations(range(1, p.n + 1), p.h) for _ in range(p.lam)]
        best, nodes = time_solve(kernel_inputs(p, edges, connected=True),
                                 args.repeat, args.max_nodes)
        print(f"{str(p):<{width}}  {nodes:>9}  {best * 1000:>9.2f}ms  "
              f"{nodes / best:>10.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
