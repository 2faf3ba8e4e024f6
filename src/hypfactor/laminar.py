"""Laminar families over edge types and equalized selection by feasible flow.

At each stage the splitting pipeline must take, from every structurally
relevant group of the amalgam's hinges, a 1/m share rounded either way,
where m is the number of splits still to come plus one.  Edges of one
type are interchangeable, so the ground set is the amalgam-incident
types: a type of c edges with amalgam multiplicity p weighs c * p, and
the selector picks how many of its edges give up a hinge, within
[c*floor(p/m), c*ceil(p/m)].  The wing family (color class, multi-hinge
wing union, wing) and the cell family (amalgam multiplicity plus
ordinary vertex set) group the types; each member gets the floor/ceiling
of its weight over m.  Both builders know each member's size and
parent, so `LaminarFamily` takes exactly that, in the builder's order,
and checks nothing; equal sets chain.  `forest()` recomputes the forest
with the laminarity and ground checks.  Selection and its re-check also
take a plain iterable ground of unit elements.

For laminar inputs such a selection always exists: the bounds form a
flow problem on the two forests (source, down one forest, across one arc
per element, up the other, sink) with a totally unimodular constraint
matrix, and weight/m everywhere is fractionally feasible.  The selector
wires that network in bulk from the forests and, after the usual
excess-node reduction, runs one iterative Dinic max-flow of no depth
limit; an arc whose bounds are equal only books its excess.  Neither
the member order nor the seed, which orders the element arcs, affects
validity.  Each selection is re-checked against every bound, and the
stage tests compare every stage's families with a generic rebuild.
"""

from __future__ import annotations

import random
from itertools import chain, compress, count, repeat
from operator import add, ne, sub
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph


def weighted(ground) -> dict:
    """`ground` as {element: (c, p)}, c items of size p; unit items for a plain iterable."""
    return dict(ground) if isinstance(ground, Mapping) else dict.fromkeys(ground, (1, 1))


class Member(NamedTuple):
    """One family set, as the collection its builder made, and its builder's tag."""

    elements: Collection
    tag: tuple


def containment_forest(ground: Mapping, members: Sequence[Member]) -> tuple[list[int], dict]:
    """Containment forest of `members`: parent index per member (-1 for a root).

    Also returns the innermost member index per ground element (-1 when
    an element lies in no member).  Raises on any laminarity or ground
    violation.  One pass over members listed parents first: when a set
    arrives, every element it contains must sit in one and the same
    innermost set, its parent.  A set listed before a proper superset
    raises; equal sets chain.
    """
    innermost: dict = dict.fromkeys(ground, -1)
    parent = []
    for idx, mb in enumerate(members):
        try:
            seen = {innermost[x] for x in mb.elements}
        except KeyError as exc:
            x = exc.args[0]
            raise InternalInvariantError(
                f"member {idx} contains {x!r} outside the ground set",
                witness=(mb.tag, x),
            ) from None
        if len(seen) > 1:
            raise InternalInvariantError(
                f"family is not laminar: member {idx} straddles {sorted(seen)}",
                witness=(mb.tag, sorted(seen)),
            )
        parent.append(seen.pop() if seen else -1)
        innermost.update(dict.fromkeys(mb.elements, idx))
    return parent, innermost


class LaminarFamily:
    """A laminar family over `ground` {element: (c, p)}, from containment its builder knows.

    `entries` holds (elements, size, tag, parent entry index or -1), each
    after its parent; nothing is checked.  Each entry is one member, so
    the last entry holding an element is its innermost.  The ground and
    the entries' elements are kept, not copied; an element outside every
    member has none.  `forest()` is the laminarity and ground check.
    """

    def __init__(self, ground: dict, entries: Sequence[tuple]):
        self.ground = ground
        self.members = tuple([Member(xs, tag) for xs, _, tag, _ in entries])
        self.sizes = tuple([size for _, size, _, _ in entries])
        innermost = chain.from_iterable(zip(xs, repeat(i)) for i, (xs, _, _, _) in enumerate(entries))
        self._forest = ([up for _, _, _, up in entries], dict(innermost))

    def forest(self) -> tuple[list[int], dict]:
        """The containment forest recomputed from the members; see `containment_forest`."""
        return containment_forest(self.ground, self.members)

    def totals(self, pairs: Iterable) -> list[int]:
        """Per member, the sum of the amounts in (element, amount) `pairs` it holds."""
        parent, innermost = self._forest
        total = [0] * (len(self.members) + 1)  # index -1: outside every member
        for x, t in pairs:
            total[innermost.get(x, -1)] += t
        for i in range(len(self.members) - 1, -1, -1):  # parents precede their children
            total[parent[i]] += total[i]
        total.pop()
        return total


class Selection(NamedTuple):
    """The amount chosen of each element (only nonzero ones) and the divisor."""

    amounts: dict
    m: int

    @property
    def chosen(self) -> frozenset:
        return frozenset(self.amounts)


def bounds_for(size: int, m: int) -> tuple[int, int]:
    """Floor/ceiling bounds on how much of a size-`size` set gets selected."""
    return size // m, -(-size // m)


def selection_respects_bounds(
    chosen: Iterable, ground, famA: LaminarFamily, famB: LaminarFamily, m: int
) -> Optional[tuple]:
    """First violated bound as a witness tuple, or None when all hold.

    `chosen` maps elements to amounts, or is a plain iterable taking each
    element once.  Checked in order: strays outside the ground, the ground
    total, each element, then every member, whose totals are gathered in
    one pass over the amounts.  A dict `ground` is read in place.
    """
    amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
    g = ground if isinstance(ground, Mapping) else weighted(ground)
    for x in amounts:
        if x not in g:
            return ("stray", x)
    lo, hi = bounds_for(sum(c * p for c, p in g.values()), m)
    got = sum(amounts.values())
    if not lo <= got <= hi:
        return ("ground", got, lo, hi)
    for x, (c, p) in g.items():
        lo, hi = bounds_for(p, m)
        got = amounts.get(x, 0)
        if not c * lo <= got <= c * hi:
            return ("element", x, got, c * lo, c * hi)
    for fam in (famA, famB):
        for mb, size, got in zip(fam.members, fam.sizes, fam.totals(amounts.items())):
            lo, hi = bounds_for(size, m)
            if not lo <= got <= hi:
                return (mb.tag, got, lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(G: ColoredMultiHypergraph, ground: dict, decomps: dict) -> LaminarFamily:
    """Wing-side family over `ground = G.hinges_at()` and its wings `decomps`.

    `decomps` is `hypercore.wing_decompositions(G, ground)`.  Per color:
    the class's types, the union of its wings with 2+ hinges, and each
    non-loop wing's types; a wing with 2+ hinges lies in the union, any
    other in the class, and that nesting is the forest.  Single edges
    need no member: each element's own bounds hold every edge of it.
    """
    h = G.h
    entries = []
    for i in range(1, G.k + 1):
        loop, wings = decomps[i]
        top = len(entries)  # the class's entry; its multi-hinge union's is next
        entries += [None, None]
        # (tag, types, hinges of one wing, hinges): a loop type of c edges
        # is c one-edge wings of h hinges each, with no member of their own
        rows = [(None, [loop], h, ground[loop][0] * h)] if loop else []
        rows += [(("wing", i, j), w, x, x) for j, (w, x) in enumerate(wings)]
        whole, big, total, held = [], [], 0, 0
        for tag, w, one, x in rows:
            multi = one >= 2
            whole += w
            total += x
            if multi:
                big += w
                held += x
            if tag:
                entries.append((w, x, tag, top + multi))
        entries[top] = (whole, total, ("color", i), -1)
        entries[top + 1] = (big, held, ("multiwing", i), top if big else -1)
    return LaminarFamily(ground, entries)


def build_cell_family(G: ColoredMultiHypergraph, ground: dict) -> LaminarFamily:
    """Cell-side family: types of every color grouped by shape (amalgam count, rest).

    Cells are pairwise disjoint, so the family is laminar and flat; its
    bounds keep shape multiplicities on schedule across splits.
    """
    cells: dict[tuple, list] = {}
    for key, (c, p) in ground.items():
        verts = key[1]
        i = verts.index(G.alpha)  # the sorted verts hold p alphas from i on
        cells.setdefault((p, verts[:i] + verts[i + p:]), []).append(key)
    entries = [(ts, shape[0] * sum(ground[x][0] for x in ts), ("cell",) + shape, -1)
               for shape, ts in cells.items()]
    return LaminarFamily(ground, entries)


# -- max-flow machinery --------------------------------------------------


def _max_flow(adj: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> int:
    """Dinic max flow from `s` to `t`, updating the residual capacities `cap`.

    `adj[u]` lists the arcs out of node u; arc a enters `to[a]` and its
    reverse is arc a ^ 1.  Each BFS stops once t has its level: a node it
    leaves unlabelled lies at t's level or beyond, so no shortest path to
    t uses it, and the blocking flow would only retreat from it.  Blocking
    flows walk an explicit arc stack.
    """
    n = len(adj)
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:  # the queue grows while it is walked
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
            if level[t] >= 0:  # every node below t's level has its own
                break
        if level[t] < 0:
            return total
        it = [0] * n
        path: list[int] = []  # arcs from s to u
        u = s
        while True:
            if u == t:
                f = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                total += f
                path.clear()
                u = s
            for i in range(it[u], len(adj[u])):
                a = adj[u][i]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:  # dead end: close u, retreat one arc and skip it at its tail
                if not path:
                    break
                it[u] = len(adj[u])
                u = to[path.pop() ^ 1]
                it[u] += 1


def equalized_select(
    ground: Iterable,
    famA: LaminarFamily,
    famB: LaminarFamily,
    m: int,
    seed: int = 0,
) -> Selection:
    """Choose an amount of every element meeting all floor/ceiling bounds.

    Bounds apply to every element, to every member of both families and
    to the ground total.  For valid laminar inputs a solution always
    exists, so an infeasible flow signals malformed families and raises
    an internal invariant error rather than returning a partial answer.
    The seed permutes the ground in its iteration order.
    """
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    g = ground if famA.ground is ground is famB.ground else weighted(ground)
    if g is not ground and not famA.ground == g == famB.ground:
        raise ParameterError("families must share the selection ground set")

    (parentA, innerA), (parentB, innerB) = famA._forest, famB._forest

    # Nodes: 0 source, 1 sink, 2 wing-side root, 3 cell-side root, one per
    # member of each family, then the super-source and super-sink.  Index
    # -1 (no parent, or no member) picks the last entry: that side's root.
    offB = 4 + len(famA.members)
    n = offB + len(famB.members)
    nodeA = [*range(4, offB), 2]
    nodeB = [*range(offB, n), 3]

    # Arcs tails -> heads carrying [lows, highs], floor and ceiling over m,
    # in wiring order: ground total, members, then one arc per element.
    sizes = [sum(c * p for c, p in g.values())] * 2 + [*famA.sizes, *famB.sizes]
    tails = [0, 3, *map(nodeA.__getitem__, parentA), *range(offB, n)]
    heads = [2, 1, *range(4, offB), *map(nodeB.__getitem__, parentB)]
    order = list(g)
    random.Random(seed).shuffle(order)
    tails += map(nodeA.__getitem__, map(innerA.get, order, repeat(-1)))
    heads += map(nodeB.__getitem__, map(innerB.get, order, repeat(-1)))
    items = list(map(g.__getitem__, order))
    base = [c * (p // m) for c, p in items]
    lows = [s // m for s in sizes] + base
    highs = [-(-s // m) for s in sizes] + [c * -(-p // m) for c, p in items]
    excess = [0] * (n + 2)
    for u, v, low in compress(zip(tails, heads, lows), lows):
        excess[u] -= low
        excess[v] += low
    # an arc with lo == hi never has residual capacity, so it books excess
    # only: without its arc pair Dinic finds the same augmenting paths
    live = list(map(ne, lows, highs))
    first = sum(live[:len(sizes)])  # live arcs before the element arcs
    caps = list(map(sub, compress(highs, live), compress(lows, live)))
    tails, heads = list(compress(tails, live)), list(compress(heads, live))
    # append column by column the arc 1 -> 0 that closes the circulation,
    # then one arc feeding or draining each node's excess
    extra = [(n, v, e) if e > 0 else (v, n + 1, -e) for v, e in enumerate(excess[:n]) if e]
    for column, more in zip((tails, heads, caps), zip((1, 0, 1 << 60), *extra)):
        column += more
    need = sum(e for e in excess if e > 0)

    # arc a is residual arc 2a, its reverse 2a + 1
    to = list(chain.from_iterable(zip(heads, tails)))
    cap = list(chain.from_iterable(zip(caps, repeat(0))))
    adj: list[list[int]] = [[] for _ in range(n + 2)]
    for a, u, v in zip(count(0, 2), tails, heads):
        adj[u].append(a)
        adj[v].append(a + 1)

    if _max_flow(adj, to, cap, n, n + 1) != need:
        raise InternalInvariantError(
            "equalized selection infeasible; input families are not laminar "
            "or do not cover a common ground",
            witness=(len(g), m),
        )
    # units pushed along a live element arc sit on its reverse, above the base
    keep, flows = live[len(sizes):], cap[2 * first + 1::2]
    amounts = dict(zip(order, base))
    amounts.update(zip(compress(order, keep), map(add, compress(base, keep), flows)))
    amounts = dict(compress(amounts.items(), amounts.values()))
    bad = selection_respects_bounds(amounts, g, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(amounts, m)
