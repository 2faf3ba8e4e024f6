"""Wing decomposition of a color class around the amalgam vertex.

A wing is a maximal piece of a color class that hangs off the amalgam in
one "direction": a connected sub-hypergraph in which the amalgam is not a
cut vertex and whose non-amalgam vertices touch no edge outside the
piece.  Operationally the wings of a class are found by deleting the
amalgam's occurrences from every edge and taking connected components of
what remains; every component, together with the class edges meeting it,
is one wing, and every all-amalgam loop edge is a wing of its own.

`wing_decomposition` works on explicit edges and hinge refs, for the
split-connectivity rule, criterion 7 and the tests (the verifier counts
wings itself): moving a strict, nonempty part of some multi-hinge wing's
hinges to the new vertex is exactly what keeps the class connected.
`wing_decompositions` is the construction's view over edge types.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .hypercore import ColoredMultiHypergraph, Edge, HingeRef, UnionFind


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
    dsu = UnionFind()
    for e in edges:
        it = iter(e)
        first = next(it, None)
        for v in it:
            if dsu.union(first, v):
                need -= 1
                if not need:
                    return True
    return False


@dataclass(frozen=True)
class Wing:
    """One wing: its amalgam hinges, edge ids, and vertex set (amalgam included)."""

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
    for e, rest in zip(edges, rests):
        groups.setdefault(dsu.find(rest[0]) if rest else ("loop", e.id), []).append(e)

    wings = []
    for members in groups.values():
        hinges = frozenset(
            HingeRef(e.id, s) for e in members for s in range(1, e.verts.count(alpha) + 1)
        )
        if hinges:
            verts = frozenset({alpha}.union(*(e.verts for e in members)))
            wings.append(Wing(hinges, frozenset(e.id for e in members), verts))
    wings.sort(key=lambda w: min(w.edge_ids))
    big = frozenset().union(*(w.hinges for w in wings if w.d_alpha >= 2))
    return WingDecomposition(tuple(wings), big)


# One color class as (types, hinges, least type) groups: the `whole` class,
# its `wings` (each non-loop wing; a loop type stands for c one-edge wings)
# and `big`, the types in wings with 2+ hinges.
ClassWings = namedtuple("ClassWings", "whole wings big")


def wing_decompositions(
    G: ColoredMultiHypergraph, ground: dict
) -> dict[int, ClassWings]:
    """Wings of every color class of `G`, keyed by color.

    `ground` is `G.hinges_at()`.  A non-loop type joins the wing of its
    ordinary vertices' component in the color's union-find; the pass over
    the ground that groups the types also adds up each wing's hinges.
    """
    alpha, h = G.alpha, G.h
    types = {i: [] for i in range(1, G.k + 1)}
    loops = dict.fromkeys(range(1, G.k + 1), ((), 0))  # the one loop type, its hinges
    comps = {i: {} for i in range(1, G.k + 1)}  # root -> [types, hinges]
    for key, (c, p) in ground.items():
        color, verts = key
        types[color].append(key)
        if p == h:
            loops[color] = ((key,), c * p)
            continue
        # the sorted verts hold p alphas in a row, so one of these is ordinary
        u = verts[0] if verts[0] != alpha else verts[p]
        wing = comps[color].setdefault(G.find(color, u), [[], 0])
        wing[0].append(key)
        wing[1] += c * p

    out = {}
    for i in range(1, G.k + 1):
        loop, hinges = loops[i]
        big = list(loop) if h >= 2 else []
        total, held = hinges, hinges if big else 0  # hinges of the class and of `big`
        wings = []
        for w, x in comps[i].values():
            wings.append((tuple(w), x, min(w)))
            total += x
            if x >= 2:
                big += w
                held += x
        whole = (tuple(types[i]), total, min(types[i], default=None))
        out[i] = ClassWings(whole, tuple(wings), (tuple(big), held, min(big, default=None)))
    return out


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
