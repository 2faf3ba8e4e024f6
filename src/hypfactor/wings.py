"""Wing decomposition of a color class around the amalgam vertex.

A wing is a maximal piece of a color class that hangs off the amalgam in
one "direction": a connected sub-hypergraph in which the amalgam is not a
cut vertex and whose non-amalgam vertices touch no edge outside the
piece.  Operationally the wings of a class are found by deleting the
amalgam's occurrences from every edge and taking connected components of
what remains; every component, together with the class edges meeting it,
is one wing, and every all-amalgam loop edge is a wing of its own.

`wing_decomposition` is the explicit-edge reference, for the
split-connectivity rule, criterion 7 and the tests (the verifier counts
wings itself): moving a strict, nonempty part of some multi-hinge wing's
hinges to the new vertex is exactly what keeps the class connected.  It
names an edge by its position in the class's edge list.  The
construction's view over edge types is `hypercore.wing_decompositions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .hypercore import Edge, UnionFind


class HingeRef(NamedTuple):
    """One amalgam occurrence: its edge's position in the edge list, and a 1-based slot."""

    edge_id: int
    slot: int


def is_connected(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> bool:
    """Connectivity of a hypergraph given as declared vertices plus edges.

    Every declared vertex must land in the single component; a declared
    vertex incident with no edge therefore makes the answer False (unless
    it is the only vertex).  Edges may be multisets; repeats are ignored
    for reachability.
    """
    edges = list(edges)
    return joins(edges, len(set(vertices).union(*edges)) - 1)


def joins(edges: Iterable[Sequence[int]], need: int) -> bool:
    """Whether unions along `edges` join two parts at least `need` times.

    With `need` one less than the number of vertices the edges use, that
    is whether those vertices form one component.  The unions stop as soon
    as they reach `need`, which a full cover does long before its last edge.
    """
    if need <= 0:
        return True
    parent: dict = {}  # non-roots only; a walk to a root halves its path
    for e in edges:
        it = iter(e)
        a = next(it, None)
        while a in parent:
            p = parent[a]
            parent[a] = a = parent.get(p, p)
        for v in it:  # each v's root joins a, which stays a root
            while v in parent:
                p = parent[v]
                parent[v] = v = parent.get(p, p)
            if v != a:
                parent[v] = a
                need -= 1
                if not need:
                    return True
    return False


@dataclass(frozen=True)
class Wing:
    """One wing: its amalgam hinges, edge positions, and vertex set (amalgam included)."""

    hinges: frozenset
    edge_ids: frozenset
    vertex_set: frozenset

    @property
    def d_alpha(self) -> int:
        return len(self.hinges)


@dataclass(frozen=True)
class WingDecomposition:
    """All wings of one color class plus the union of multi-hinge wing hinges."""

    wings: tuple[Wing, ...]
    big_hinges: frozenset

    @property
    def delta(self) -> int:
        """Number of amalgam hinges lying in wings with 2+ hinges."""
        return len(self.big_hinges)


def wing_decomposition(edges: Sequence[Edge], alpha: int) -> WingDecomposition:
    """Decompose one color class into wings around `alpha`.

    Pure loop edges (all occurrences equal to `alpha`) each form their own
    wing.  Every other edge is grouped by the connected component its
    non-amalgam vertices fall into once the amalgam is deleted; each
    component that is met by at least one amalgam-incident edge yields one
    wing.  Components never touching the amalgam contribute no wings (the
    class is then disconnected, which the caller's invariants catch).
    """
    dsu = UnionFind()
    rests = [[v for v in e.verts if v != alpha] for e in edges]
    for rest in rests:
        for v in rest:
            dsu.union(v, rest[0])
    groups: dict = {}
    for i, rest in enumerate(rests):
        groups.setdefault(dsu.find(rest[0]) if rest else ("loop", i), []).append(i)

    wings = []
    for members in groups.values():
        hinges = frozenset(
            HingeRef(i, s) for i in members for s in range(1, edges[i].verts.count(alpha) + 1)
        )
        if hinges:
            verts = frozenset({alpha}.union(*(edges[i].verts for i in members)))
            wings.append(Wing(hinges, frozenset(members), verts))
    wings.sort(key=lambda w: min(w.edge_ids))
    big = frozenset().union(*(w.hinges for w in wings if w.d_alpha >= 2))
    return WingDecomposition(tuple(wings), big)


def split_is_connected(decomp: WingDecomposition, A: Iterable[HingeRef]) -> bool:
    """Whether detaching hinge set `A` from a connected class stays connected.

    True exactly when some wing with 2+ hinges gives up a nonempty proper
    part of its hinges to the new vertex.  The class itself must be
    connected for the criterion to apply.
    """
    chosen = set(A)
    for w in decomp.wings:
        if w.d_alpha >= 2 and 0 < len(chosen & w.hinges) < w.d_alpha:
            return True
    return False
