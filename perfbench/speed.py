"""A fixed reference workload that measures how fast the host runs right now.

Every time the benchmark reports is scaled by this probe's time, so
changing `reference_work` changes the unit of every past result.
"""

import random
import time
from collections import Counter, deque


def reference_work() -> int:
    """The interpreter work hypfactor does, in small: tuples, sets, dicts, sorting, BFS."""
    rng = random.Random(12345)
    edges = [tuple(sorted((rng.randrange(400), rng.randrange(400)))) for _ in range(6000)]
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adj.get(queue.popleft(), ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    groups = Counter(edges)
    return len(seen) + len(frozenset(groups)) + len(sorted(edges))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
