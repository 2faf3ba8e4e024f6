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
matrix, and weight/m everywhere is fractionally feasible.  The solver
runs that feasible flow through the usual excess-node reduction to a
small Dinic max-flow.  The seed only permutes the order in which element
arcs are wired, so it never affects validity.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph
from .wings import ClassWings, wing_decompositions


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
    sorted elements.  Laminarity is checked at construction unless the
    caller opts out (only tests of malformed input do); the checked
    forest is kept for selection.
    """

    def __init__(self, ground: Iterable, members: Sequence[Member], validate: bool = True):
        self.ground = weighted(ground)
        merged: dict[frozenset, list] = {}
        order: list[frozenset] = []
        for m in members:
            key = m.elements
            if key not in merged:
                merged[key] = []
                order.append(key)
            merged[key].extend(m.tags)
        order.sort(key=lambda s: (-len(s), sorted(s)))
        self.members = tuple(Member(s, tuple(merged[s])) for s in order)
        weight = {x: c * p for x, (c, p) in self.ground.items()}
        self.sizes = tuple(sum(weight.get(x, 0) for x in s) for s in order)
        self._forest = self.forest() if validate else None

    @classmethod
    def from_sets(cls, ground, sets, tags=None, validate=True):
        if tags is None:
            tags = [("set", i) for i in range(len(sets))]
        return cls(ground, [Member(frozenset(s), (t,)) for s, t in zip(sets, tags)], validate)

    def forest(self) -> tuple[list[int], dict]:
        """Containment forest: parent index per member (-1 for the root).

        Also returns the innermost member index per ground element (-1
        when an element lies in no member).  Raises on any laminarity or
        ground violation.  Works in one pass over members in decreasing
        size order: when a set arrives, every element it contains must
        currently sit in one and the same innermost set, which becomes
        the parent.
        """
        innermost: dict = {x: -1 for x in self.ground}
        parent = []
        for idx, mb in enumerate(self.members):
            seen = set()
            for x in mb.elements:
                if x not in innermost:
                    raise InternalInvariantError(
                        f"member {idx} contains {x!r} outside the ground set",
                        witness=(mb.tags, x),
                    )
                seen.add(innermost[x])
            if len(seen) > 1:
                raise InternalInvariantError(
                    f"family is not laminar: member {idx} straddles {sorted(seen)}",
                    witness=(mb.tags, sorted(seen)),
                )
            parent.append(seen.pop() if seen else -1)
            for x in mb.elements:
                innermost[x] = idx
        return parent, innermost


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
        parent, innermost = fam._forest or fam.forest()
        total = [0] * len(fam.members)
        for x, t in amounts.items():
            if innermost.get(x, -1) >= 0:
                total[innermost[x]] += t
        # parents precede their children in the canonical member order
        for i in range(len(total) - 1, -1, -1):
            if parent[i] >= 0:
                total[parent[i]] += total[i]
        for mb, size, got in zip(fam.members, fam.sizes, total):
            lo, hi = bounds_for(size, m)
            if not lo <= got <= hi:
                return (mb.tags, got, lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(
    G: ColoredMultiHypergraph,
    ground: Optional[dict] = None,
    decomps: Optional[dict[int, ClassWings]] = None,
) -> LaminarFamily:
    """Wing-side family over `ground = G.hinges_at(G.alpha)`.

    Per color: the class's types, the types of its wings with 2+ hinges,
    and each non-loop wing's types; wing lies within class and the union
    is one of whole wings.  Single edges need no member: each element's
    own bounds hold every edge of it.
    """
    ground = G.hinges_at(G.alpha) if ground is None else ground
    decomps = wing_decompositions(G, ground) if decomps is None else decomps
    members: list[Member] = []
    for i in range(1, G.k + 1):
        d = decomps[i]
        members.append(Member(d.types, (("color", i),)))
        members.append(Member(d.big, (("multiwing", i),)))
        members.extend(Member(w, (("wing", i, j),)) for j, w in enumerate(d.wings))
    return LaminarFamily(ground, members)


def build_cell_family(G: ColoredMultiHypergraph, ground: Optional[dict] = None) -> LaminarFamily:
    """Cell-side family: types of every color grouped by shape (amalgam count, rest).

    Cells are pairwise disjoint, so the family is trivially laminar; its
    bounds keep shape multiplicities on schedule across splits.
    """
    ground = G.hinges_at(G.alpha) if ground is None else ground
    cells: dict[tuple, list] = {}
    for key, (c, p) in ground.items():
        rest = tuple(v for v in key[1] if v != G.alpha)
        cells.setdefault((p, rest), []).append(key)
    members = [
        Member(frozenset(ts), (("cell",) + key,)) for key, ts in sorted(cells.items())
    ]
    return LaminarFamily(ground, members)


# -- max-flow machinery --------------------------------------------------


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> int:
        a = len(self.to)
        self.adj[u].append(a)
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(a + 1)
        self.to.append(u)
        self.cap.append(0)
        return a

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, u, t, f):
        if u == t:
            return f
        while self.it[u] < len(self.adj[u]):
            a = self.adj[u][self.it[u]]
            v = self.to[a]
            if self.cap[a] > 0 and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(f, self.cap[a]))
                if got:
                    self.cap[a] -= got
                    self.cap[a ^ 1] += got
                    return got
            self.it[u] += 1
        return 0

    def max_flow(self, s, t):
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, 1 << 60)
                if not f:
                    break
                total += f
        return total


def _feasible_flow(n_nodes: int, arcs: list[tuple[int, int, int, int]]):
    """Integral flow meeting [lo, hi] on every arc, or None.

    `arcs` are (u, v, lo, hi) with node ids below `n_nodes`, where node 0
    is the circulation source and node 1 the sink.  Returns per-arc flow
    values aligned with the input list.
    """
    src2, snk2 = n_nodes, n_nodes + 1
    net = _Dinic(n_nodes + 2)
    ids = []
    excess = [0] * n_nodes
    for u, v, lo, hi in arcs:
        ids.append(net.add(u, v, hi - lo))
        excess[v] += lo
        excess[u] -= lo
    net.add(1, 0, 1 << 60)  # close the circulation
    need = 0
    for v in range(n_nodes):
        if excess[v] > 0:
            net.add(src2, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add(v, snk2, -excess[v])
    if net.max_flow(src2, snk2) != need:
        return None
    # pushed units sit on the reverse arc; add the lower bound back in
    return [arcs[i][2] + net.cap[a ^ 1] for i, a in enumerate(ids)]


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

    parentA, innerA = famA._forest or famA.forest()
    parentB, innerB = famB._forest or famB.forest()

    # Node map: 0 source, 1 sink, 2 wing-side root, 3 cell-side root,
    # then one node per family member.
    offA = 4
    offB = 4 + len(famA.members)
    n_nodes = offB + len(famB.members)

    def node_a(i):
        return offA + i if i >= 0 else 2

    def node_b(i):
        return offB + i if i >= 0 else 3

    lo, hi = bounds_for(sum(c * p for c, p in g.values()), m)
    arcs = [(0, 2, lo, hi), (3, 1, lo, hi)]  # (u, v, lower, upper)
    for i, size in enumerate(famA.sizes):
        lo, hi = bounds_for(size, m)
        arcs.append((node_a(parentA[i]), node_a(i), lo, hi))
    for i, size in enumerate(famB.sizes):
        lo, hi = bounds_for(size, m)
        arcs.append((node_b(i), node_b(parentB[i]), lo, hi))

    order = sorted(g)
    random.Random(seed).shuffle(order)
    first_element_arc = len(arcs)
    for x in order:
        c, p = g[x]
        lo, hi = bounds_for(p, m)
        arcs.append((node_a(innerA[x]), node_b(innerB[x]), c * lo, c * hi))

    flows = _feasible_flow(n_nodes, arcs)
    if flows is None:
        raise InternalInvariantError(
            "equalized selection infeasible; input families are not laminar "
            "or do not cover a common ground",
            witness=(len(g), m),
        )
    amounts = {x: f for x, f in zip(order, flows[first_element_arc:]) if f}
    bad = selection_respects_bounds(amounts, g, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(amounts, m)
