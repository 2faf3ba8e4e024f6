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
of its weight over m.  A plain iterable ground means unit elements.

For laminar inputs such a selection always exists: the bounds form a
flow problem on the two forests (source, down one forest, across one arc
per element, up the other, sink) with a totally unimodular constraint
matrix, and weight/m everywhere is fractionally feasible.  The selector
wires that network straight from the forests and, after the usual
excess-node reduction, runs one iterative Dinic max-flow of no depth
limit.  The seed only permutes the order in which element arcs are
wired, so it never affects validity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import starmap
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph
from .wings import ClassWings


def weighted(ground) -> dict:
    """`ground` as {element: (c, p)}, c items of size p; unit items for a plain iterable."""
    return dict(ground) if isinstance(ground, Mapping) else dict.fromkeys(ground, (1, 1))


@dataclass(frozen=True)
class Member:
    """One family set plus the provenance tags that produced it."""

    elements: frozenset
    tags: tuple


class LaminarFamily:
    """A laminar family of subsets of a common ground set.

    `ground` maps elements to (c, p) or is a plain iterable of unit
    elements; `sizes[i]` is member i's total weight.  Members are
    deduplicated (equal sets merge their provenance tags) and kept in a
    canonical order: decreasing element count, then lexicographic on the
    sorted elements.  In a laminar family two distinct members of one
    size are disjoint, so their least elements differ and already decide
    the order without sorting any member; only a family that is not
    laminar can tie on (count, least element), and it is then sorted in
    full, so the order never depends on the caller's.  Laminarity is
    checked at construction; the checked forest is kept for selection,
    and the sizes are summed through it in one pass over the ground.
    """

    def __init__(self, ground: Iterable, members: Sequence[Member]):
        self.ground = weighted(ground)
        merged: dict[frozenset, Member] = {}
        for mb in members:
            prev = merged.get(mb.elements)
            merged[mb.elements] = mb if prev is None else Member(mb.elements, prev.tags + mb.tags)
        # only one member can be empty, so its missing least element is never compared
        key = {s: (-len(s), min(s, default=None)) for s in merged}
        order = sorted(merged, key=key.__getitem__)
        if any(key[a] == key[b] for a, b in zip(order, order[1:])):
            order.sort(key=lambda s: (-len(s), sorted(s)))  # not laminar: overlapping ties
        self.members = tuple(merged[s] for s in order)
        self._forest = self.forest()
        self.sizes = tuple(self.totals(zip(self.ground, starmap(mul, self.ground.values()))))

    @classmethod
    def from_sets(cls, ground, sets, tags=None):
        if tags is None:
            tags = [("set", i) for i in range(len(sets))]
        return cls(ground, [Member(frozenset(s), (t,)) for s, t in zip(sets, tags)])

    def forest(self) -> tuple[list[int], dict]:
        """Containment forest: parent index per member (-1 for the root).

        Also returns the innermost member index per ground element (-1
        when an element lies in no member).  Raises on any laminarity or
        ground violation.  Works in one pass over members in decreasing
        size order: when a set arrives, every element it contains must
        currently sit in one and the same innermost set, which becomes
        the parent.
        """
        innermost: dict = dict.fromkeys(self.ground, -1)
        parent = []
        for idx, mb in enumerate(self.members):
            try:
                seen = {innermost[x] for x in mb.elements}
            except KeyError as exc:
                x = exc.args[0]
                raise InternalInvariantError(
                    f"member {idx} contains {x!r} outside the ground set",
                    witness=(mb.tags, x),
                ) from None
            if len(seen) > 1:
                raise InternalInvariantError(
                    f"family is not laminar: member {idx} straddles {sorted(seen)}",
                    witness=(mb.tags, sorted(seen)),
                )
            parent.append(seen.pop() if seen else -1)
            innermost.update(dict.fromkeys(mb.elements, idx))
        return parent, innermost

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


@dataclass(frozen=True)
class Selection:
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
    one pass over the amounts.
    """
    amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
    g = weighted(ground)
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
                return (mb.tags, got, lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(
    G: ColoredMultiHypergraph,
    ground: dict,
    decomps: dict[int, ClassWings],
) -> LaminarFamily:
    """Wing-side family over `ground = G.hinges_at()` and its wings `decomps`.

    Per color: the class's types, the types of its wings with 2+ hinges,
    and each non-loop wing's types; wing lies within class and the union
    is one of whole wings.  Single edges need no member: each element's
    own bounds hold every edge of it.
    """
    members: list[Member] = []
    for i in range(1, G.k + 1):
        d = decomps[i]
        members.append(Member(d.types, (("color", i),)))
        members.append(Member(d.big, (("multiwing", i),)))
        members.extend(Member(w, (("wing", i, j),)) for j, w in enumerate(d.wings))
    return LaminarFamily(ground, members)


def build_cell_family(G: ColoredMultiHypergraph, ground: dict) -> LaminarFamily:
    """Cell-side family: types of every color grouped by shape (amalgam count, rest).

    Cells are pairwise disjoint, so the family is trivially laminar; its
    bounds keep shape multiplicities on schedule across splits.
    """
    cells: dict[tuple, list] = {}
    for key, (c, p) in ground.items():
        verts = key[1]
        i = verts.index(G.alpha)  # the sorted verts hold p alphas from i on
        cells.setdefault((p, verts[:i] + verts[i + p:]), []).append(key)
    members = [Member(frozenset(ts), (("cell",) + key,)) for key, ts in cells.items()]
    return LaminarFamily(ground, members)


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
    """
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    g = weighted(ground)
    if famA.ground != g or famB.ground != g:
        raise ParameterError("families must share the selection ground set")

    parentA, innerA = famA._forest
    parentB, innerB = famB._forest

    # Nodes: 0 source, 1 sink, 2 wing-side root, 3 cell-side root, one per
    # member of each family, then the super-source and super-sink.  Index
    # -1 (no parent, or no member) picks the last entry: that side's root.
    offB = 4 + len(famA.members)
    n = offB + len(famB.members)
    nodeA = [*range(4, offB), 2]
    nodeB = [*range(offB, n), 3]
    adj: list[list[int]] = [[] for _ in range(n + 2)]
    to: list[int] = []
    cap: list[int] = []
    excess = [0] * (n + 2)

    def arc(u, v, lo, hi):
        """Arc u->v carrying [lo, hi]: capacity hi - lo, with lo booked as excess."""
        adj[u].append(len(to))
        to.append(v)
        cap.append(hi - lo)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        excess[v] += lo
        excess[u] -= lo

    lo, hi = bounds_for(sum(c * p for c, p in g.values()), m)
    arc(0, 2, lo, hi)
    arc(3, 1, lo, hi)
    for i, size in enumerate(famA.sizes):
        arc(nodeA[parentA[i]], nodeA[i], *bounds_for(size, m))
    for i, size in enumerate(famB.sizes):
        arc(nodeB[i], nodeB[parentB[i]], *bounds_for(size, m))

    order = sorted(g)
    random.Random(seed).shuffle(order)
    first_element_arc = len(to)
    amounts = {}
    for x in order:
        c, p = g[x]
        lo, hi = bounds_for(p, m)
        arc(nodeA[innerA[x]], nodeB[innerB[x]], c * lo, c * hi)
        amounts[x] = c * lo
    arc(1, 0, 0, 1 << 60)  # close the circulation
    need = sum(e for e in excess if e > 0)
    for v in range(n):
        if excess[v] > 0:
            arc(n, v, 0, excess[v])
        elif excess[v] < 0:
            arc(v, n + 1, 0, -excess[v])

    if _max_flow(adj, to, cap, n, n + 1) != need:
        raise InternalInvariantError(
            "equalized selection infeasible; input families are not laminar "
            "or do not cover a common ground",
            witness=(len(g), m),
        )
    # pushed units sit on each element arc's reverse, above its lower bound
    for j, x in enumerate(order):
        amounts[x] += cap[first_element_arc + 2 * j + 1]
    amounts = {x: f for x, f in amounts.items() if f}
    bad = selection_respects_bounds(amounts, g, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(amounts, m)
