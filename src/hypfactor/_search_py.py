"""Backtracking kernel for the brute-force oracle.

The search walks edges in the fixed order it is given and tries colors in
ascending order, so equal inputs always give the same coloring and the
same node count.

Pruning is exact counting plus one canonical ordering.  A color is tried
on an edge when its class still has room (class sizes are forced by
regularity) and every vertex of the edge still has residual degree in
that color; an assignment is rejected outright when some vertex still
needs more edges of that color than the class has slots left, since an
edge meets a vertex at most once and later edges could never repair the
deficit.  Classes that must end connected are additionally vetted on
every assignment by a union-find completability test over saturated and
unsaturated fragments (see _class_completable).  Identical duplicate
edges (lam >= 2) are forced into
non-decreasing colors, which deduplicates literally identical
assignments.  Classes with equal degree are interchangeable, so among
adjacent equal-degree colors a class may only receive its first edge
once its predecessor has one: any coloring can be relabeled within each
equal-degree run to open classes in index order (and then have duplicate
copies sorted) without disturbing sizes, degrees, or connectivity, so
exactly one representative of each relabeling orbit survives.  The
first edge may only take the lowest color of each distinct degree value
(`first_ok`): swapping two equal-degree classes moves the first edge
into the lower one.  This is not a case of the adjacent rule, which
never compares equal-degree colors that another degree separates: for
r = (2, 1, 2), `first_ok` bars color 3 at the first edge while
`same_prev[3]` is False.
"""

from __future__ import annotations

import time

FOUND, NONE, UNKNOWN = 1, 0, -1


def _class_completable(ev, color, pos, c, n, h, rc, slots):
    """Can the partial class still end as one connected spanning piece?

    Union-find over the vertices of edges colored c, edge `pos` included.
    Future edges of the class may only touch vertices with positive
    residual, so a component whose vertices are all saturated can never
    merge again: one such frozen fragment next to any other piece is
    fatal.  Each future edge joins at most h pieces, so the live pieces
    (components holding an unsaturated vertex, plus every untouched
    vertex that still needs degree) must be mergeable within the slots
    the class has left.  With no slots left this degenerates to an exact
    spanning-connectivity test.
    """
    parent = list(range(n + 1))
    touched = [False] * (n + 1)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(pos + 1):
        if i == pos or color[i] == c:
            off = i * h
            va = ev[off]
            touched[va] = True
            ra = find(va)
            for j in range(1, h):
                vb = ev[off + j]
                touched[vb] = True
                rb = find(vb)
                if ra != rb:
                    parent[rb] = ra
    comp = open_comp = untouched_needy = 0
    state = [0] * (n + 1)  # per root: 1 seen, 2 seen with residual
    for v in range(1, n + 1):
        if touched[v]:
            rv = find(v)
            if state[rv] == 0:
                state[rv] = 1
                comp += 1
            if rc[v] > 0 and state[rv] == 1:
                state[rv] = 2
                open_comp += 1
        elif rc[v] > 0:
            untouched_needy += 1
    pieces = comp + untouched_needy
    if comp > open_comp and pieces >= 2:
        return False
    return open_comp + untouched_needy - 1 <= slots * (h - 1)


def solve(n, h, ev, dup_prev, first_ok, k, r, sizes, conn, max_nodes, time_limit):
    """Exhaustive color assignment over edges in fixed order.

    Returns (status, colors, nodes): colors is a 1-based color per edge
    when status is FOUND, None otherwise.
    """
    E = len(dup_prev)
    if E == 0:
        return FOUND, [], 0
    res = [[0] * (n + 1) for _ in range(k + 1)]
    for c in range(1, k + 1):
        for v in range(1, n + 1):
            res[c][v] = r[c]
    # histogram of residual values per color and its running maximum,
    # for the needs-versus-slots rejection
    hist = [[0] * (r[c] + 1) for c in range(k + 1)]
    maxres = [0] * (k + 1)
    for c in range(1, k + 1):
        hist[c][r[c]] = n
        maxres[c] = r[c]
    same_prev = [False] * (k + 1)
    for c in range(2, k + 1):
        same_prev[c] = r[c] == r[c - 1]
    cnt = [0] * (k + 1)
    color = [0] * E
    nxt = [1] * E
    nodes = 0
    deadline = time.monotonic() + time_limit if time_limit else None

    pos = 0
    while True:
        if pos == E:
            return FOUND, list(color), nodes
        c = nxt[pos]
        if dup_prev[pos] and c < color[pos - 1]:
            c = color[pos - 1]
        assigned = False
        off = pos * h
        while c <= k:
            nodes += 1
            if max_nodes and nodes > max_nodes:
                return UNKNOWN, None, nodes
            if deadline is not None and nodes % 65536 == 0:
                if time.monotonic() > deadline:
                    return UNKNOWN, None, nodes
            ok = (pos != 0 or first_ok[c]) and cnt[c] < sizes[c]
            if ok and cnt[c] == 0 and same_prev[c] and cnt[c - 1] == 0:
                ok = False
            if ok:
                rc = res[c]
                for j in range(h):
                    if rc[ev[off + j]] == 0:
                        ok = False
                        break
            if ok:
                cnt[c] += 1
                rc = res[c]
                hc = hist[c]
                for j in range(h):
                    t = rc[ev[off + j]]
                    hc[t] -= 1
                    hc[t - 1] += 1
                    rc[ev[off + j]] = t - 1
                mr = maxres[c]
                while mr and hc[mr] == 0:
                    mr -= 1
                maxres[c] = mr
                if mr > sizes[c] - cnt[c] or (
                    conn[c] and not _class_completable(
                        ev, color, pos, c, n, h, rc, sizes[c] - cnt[c]
                    )
                ):
                    cnt[c] -= 1
                    for j in range(h):
                        t = rc[ev[off + j]]
                        hc[t] -= 1
                        hc[t + 1] += 1
                        rc[ev[off + j]] = t + 1
                        if t + 1 > maxres[c]:
                            maxres[c] = t + 1
                else:
                    color[pos] = c
                    nxt[pos] = c + 1
                    pos += 1
                    if pos < E:
                        nxt[pos] = 1
                    assigned = True
                    break
            c += 1
        if not assigned:
            pos -= 1
            if pos < 0:
                return NONE, None, nodes
            c0 = color[pos]
            cnt[c0] -= 1
            off = pos * h
            rc = res[c0]
            hc = hist[c0]
            for j in range(h):
                t = rc[ev[off + j]]
                hc[t] -= 1
                hc[t + 1] += 1
                rc[ev[off + j]] = t + 1
                if t + 1 > maxres[c0]:
                    maxres[c0] = t + 1
