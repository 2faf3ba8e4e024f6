"""Laminar hinge families and equalized selection by feasible flow.

The splitting pipeline must pick, at each stage, a hinge set that meets
every structurally relevant hinge group in proportion 1/m (rounded either
way), where m is the number of splits still to come plus one.  Two
laminar families over the amalgam's hinges encode those groups:

* the wing family groups hinges by color class, by multi-hinge wing
  union, by individual wing, and by edge;
* the cell family groups hinges of edges sharing the same shape, meaning
  the same amalgam multiplicity and the same set of ordinary vertices.

A selection meeting floor/ceiling bounds on every group simultaneously
always exists for laminar inputs: the bounds form a flow problem on the
two forests (source, down one forest, across one unit arc per hinge, up
the other forest, sink) whose constraint matrix is totally unimodular,
and selecting every hinge with weight 1/m is fractionally feasible.  The
solver below materializes that argument: a feasible-flow instance with
lower bounds, reduced to plain max-flow by the usual excess-node
transformation and solved with a small Dinic implementation.  The seed
only permutes the order in which hinge arcs are wired, so it picks among
valid selections without ever affecting validity.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph, HingeRef
from .wings import WingDecomposition, wing_decompositions


@dataclass(frozen=True)
class Member:
    """One family set plus the provenance tags that produced it."""

    elements: frozenset
    tags: tuple


class LaminarFamily:
    """A laminar family of subsets of a common ground set.

    Members are deduplicated (equal sets merge their provenance tags) and
    kept in a canonical order: decreasing size, then lexicographic on the
    sorted elements.  Laminarity is checked at construction unless the
    caller explicitly opts out, which only the tests exercising malformed
    input do; the checked forest is kept for `equalized_select`.
    """

    def __init__(self, ground: Iterable, members: Sequence[Member], validate: bool = True):
        self.ground = frozenset(ground)
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
    """A chosen hinge subset together with the divisor it was balanced for."""

    chosen: frozenset
    m: int


def bounds_for(size: int, m: int) -> tuple[int, int]:
    """Floor/ceiling bounds on how much of a size-`size` set gets selected."""
    return size // m, -(-size // m)


def selection_respects_bounds(
    chosen: Iterable, ground, famA: LaminarFamily, famB: LaminarFamily, m: int
) -> Optional[tuple]:
    """First violated bound as a witness tuple, or None when all hold."""
    ch = set(chosen)
    g = frozenset(ground)
    lo, hi = bounds_for(len(g), m)
    if not lo <= len(ch & g) <= hi:
        return ("ground", len(ch & g), lo, hi)
    for fam in (famA, famB):
        for mb in fam.members:
            lo, hi = bounds_for(len(mb.elements), m)
            got = len(ch & mb.elements)
            if not lo <= got <= hi:
                return (mb.tags, got, lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(
    G: ColoredMultiHypergraph,
    decomps: Optional[dict[int, WingDecomposition]] = None,
) -> LaminarFamily:
    """Wing-side family: color classes, multi-hinge unions, wings, edges.

    Per color i the family holds the class's full hinge set and the union
    of hinges over wings with 2+ hinges; per wing its hinge set; per
    amalgam-incident edge the hinges inside that edge.  Nesting is by
    construction: edge within wing within class, and the multi-hinge
    union is a union of whole wings.
    """
    if decomps is None:
        decomps = wing_decompositions(G)
    alpha = G.alpha
    members: list[Member] = []
    for i in range(1, G.k + 1):
        class_hinges = set()
        for e in G.color_class(i):
            p = e.verts.count(alpha)
            class_hinges.update(HingeRef(e.id, s) for s in range(1, p + 1))
        members.append(Member(frozenset(class_hinges), (("color", i),)))
        members.append(Member(decomps[i].big_hinges, (("multiwing", i),)))
        for j, w in enumerate(decomps[i].wings):
            members.append(Member(w.hinges, (("wing", i, j),)))
    for e in G.edges():
        p = e.verts.count(alpha)
        if p:
            members.append(
                Member(
                    frozenset(HingeRef(e.id, s) for s in range(1, p + 1)),
                    (("edge", e.id),),
                )
            )
    return LaminarFamily(G.hinges_at(alpha), members)


def build_cell_family(G: ColoredMultiHypergraph) -> LaminarFamily:
    """Cell-side family: hinges grouped by edge shape (amalgam count, rest).

    Cells are pairwise disjoint, so the family is trivially laminar; its
    bounds are what keep shape multiplicities on schedule across splits.
    """
    alpha = G.alpha
    cells: dict[tuple, set] = {}
    for e in G.edges():
        p = e.verts.count(alpha)
        if p == 0:
            continue
        rest = tuple(v for v in e.verts if v != alpha)
        cell = cells.setdefault((p, rest), set())
        cell.update(HingeRef(e.id, s) for s in range(1, p + 1))
    members = [
        Member(frozenset(hs), (("cell",) + key,)) for key, hs in sorted(cells.items())
    ]
    return LaminarFamily(G.hinges_at(alpha), members)


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
    """Pick a hinge subset meeting every floor/ceiling bound of both families.

    Bounds apply to every member of both families and to the ground set
    itself.  For valid laminar inputs a solution always exists, so an
    infeasible flow here signals malformed families and raises an
    internal invariant error rather than returning a partial answer.
    """
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    g = frozenset(ground)
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

    arcs: list[tuple[int, int, int, int]] = []
    lo, hi = bounds_for(len(g), m)
    arcs.append((0, 2, lo, hi))
    arcs.append((3, 1, lo, hi))
    for i, mb in enumerate(famA.members):
        lo, hi = bounds_for(len(mb.elements), m)
        arcs.append((node_a(parentA[i]), node_a(i), lo, hi))
    for i, mb in enumerate(famB.members):
        lo, hi = bounds_for(len(mb.elements), m)
        arcs.append((node_b(i), node_b(parentB[i]), lo, hi))

    hinge_order = sorted(g)
    random.Random(seed).shuffle(hinge_order)
    first_hinge_arc = len(arcs)
    for x in hinge_order:
        arcs.append((node_a(innerA[x]), node_b(innerB[x]), 0, 1))

    flows = _feasible_flow(n_nodes, arcs)
    if flows is None:
        raise InternalInvariantError(
            "equalized selection infeasible; input families are not laminar "
            "or do not cover a common ground",
            witness=(len(g), m),
        )
    chosen = frozenset(
        x for x, f in zip(hinge_order, flows[first_hinge_arc:]) if f == 1
    )
    bad = selection_respects_bounds(chosen, g, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(chosen, m)
