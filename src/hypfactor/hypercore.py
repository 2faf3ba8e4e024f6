"""Multiset hypergraph core, stored as counts of interchangeable edges.

Edges with the same color and vertex multiset cannot be told apart by
any family bound, by the verifier or by the output, so the graph keeps
one count per edge type `(color, sorted verts)`.  One designated vertex,
the amalgam, may occur several times within an edge; each occurrence is
a "hinge".  Per color, a union-find over ordinary (non-amalgam) vertices
tracks the components that wings hang off; edges only ever gain
ordinary vertices, so components only merge and the union-find stays
exact.  The graph also indexes its amalgam-incident types by their
amalgam multiplicity p (the counts stay in the one `Counter`):
`add_edge` inserts a type when it first appears and `move_hinges`
deletes it when it empties, so a split stage reads its ground from the
index instead of scanning every type.  `edges()` expands the counts into
explicit `Edge` records for the verifier and the output.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidHingeError, ParameterError


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k lies outside [0, n]."""
    if n < 0:
        raise ParameterError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class HingeRef(NamedTuple):
    """One occurrence of the amalgam in one explicit edge (`slot` is 1-based).

    The hinge-level view used to state and check the split-connectivity
    rule; the construction itself works on counts.
    """

    edge_id: int
    slot: int


class Edge:
    """A single colored edge record; `verts` is a sorted vertex multiset."""

    __slots__ = ("id", "verts", "color")

    def __init__(self, edge_id: int, verts: tuple[int, ...], color: int):
        self.id = edge_id
        self.verts = verts
        self.color = color


class UnionFind:
    """Union-find over arbitrary hashable items, with path halving."""

    def __init__(self, parent: Optional[dict] = None):
        self.parent = dict(parent or {})

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x, p = p, self.parent[p]
        return p

    def union(self, a, b) -> bool:
        """Join the components of `a` and `b`; True iff they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return ra != rb


class ColoredMultiHypergraph:
    """Edge-colored multi-hypergraph with uniform edge size.

    Vertices are declared explicitly (an isolated vertex is a real vertex,
    which matters for connectivity checks).  Colors run 1..k.  All edges
    carry exactly `h` vertex occurrences counted with multiplicity.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        alpha: int,
        h: int,
        k: int,
    ):
        self.vertices: set[int] = set(vertices)
        if alpha not in self.vertices:
            raise ParameterError(f"amalgam {alpha} must be a declared vertex")
        if h < 1 or k < 1:
            raise ParameterError(f"need h >= 1 and k >= 1, got h={h}, k={k}")
        self.alpha = alpha
        self.h = h
        self.k = k
        self._types: Counter = Counter()  # (color, sorted verts) -> count
        self._at_alpha: dict[tuple, int] = {}  # alpha-incident type -> p
        self._uf = {i: UnionFind() for i in range(1, k + 1)}

    # -- basic accessors -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Explicit edges, `count` records per type, ids fresh in iteration order."""
        ids = count()
        for (color, verts), c in self._types.items():
            for _ in range(c):
                yield Edge(next(ids), verts, color)

    def find(self, color: int, v: int) -> int:
        """Root of `v`'s component among the ordinary vertices of one color."""
        return self._uf[color].find(v)

    # -- mutation --------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v in self.vertices:
            raise ParameterError(f"vertex {v} already present")
        self.vertices.add(v)

    def add_edge(self, verts: Iterable[int], color: int, mult: int = 1) -> tuple:
        """Add `mult` edges of one type and return the type `(color, sorted verts)`."""
        vt = tuple(sorted(verts))
        if len(vt) != self.h:
            raise ParameterError(
                f"edge {vt} has {len(vt)} vertex occurrences, expected h={self.h}"
            )
        if not 1 <= color <= self.k:
            raise ParameterError(f"color {color} outside 1..{self.k}")
        missing = set(vt) - self.vertices
        if missing:
            raise ParameterError(f"edge {vt} uses undeclared vertices {sorted(missing)}")
        if mult < 1:
            raise ParameterError(f"edge multiplicity must be >= 1, got {mult}")
        key = (color, vt)
        self._types[key] += mult
        if self.alpha in vt:
            self._at_alpha[key] = vt.count(self.alpha)
        rest = [v for v in vt if v != self.alpha]
        for v in rest:
            self._uf[color].union(v, rest[0])
        return key

    def move_hinges(self, amounts: Mapping[tuple, int], to: int) -> None:
        """Move one amalgam occurrence onto `to` in t edges of each type.

        `amounts` maps types to t; each type must hold the amalgam and at
        least t edges, or nothing moves.  `to` joins the color's component
        of every moved edge.
        """
        if to not in self.vertices or to == self.alpha:
            raise ParameterError(f"move target {to} is not a declared ordinary vertex")
        for key, t in amounts.items():
            if self.alpha not in key[1] or not 0 <= t <= self._types.get(key, 0):
                raise InvalidHingeError(
                    f"cannot move {t} hinges of type {key} ({self._types.get(key, 0)} edges)"
                )
        alpha, types, at_alpha = self.alpha, self._types, self._at_alpha
        for key, t in amounts.items():
            if not t:
                continue
            color, verts = key
            p = at_alpha[key]
            if types[key] == t:
                del types[key], at_alpha[key]
            else:
                types[key] -= t
            i = verts.index(alpha)  # the sorted verts hold p alphas from i on
            dest = (color, tuple(sorted(verts[:i] + verts[i + 1:] + (to,))))
            types[dest] = types.get(dest, 0) + t
            if p > 1:
                at_alpha[dest] = p - 1
            # `to` joins the first ordinary vertex, if the type had one
            first = verts[0] if i else verts[p] if p < self.h else to
            self._uf[color].union(first, to)

    # -- derived quantities ----------------------------------------------

    def hinges_at(self) -> dict[tuple, tuple[int, int]]:
        """Each amalgam-incident type, mapped to (count c, amalgam multiplicity p).

        Reads the index of amalgam-incident types that `add_edge` and
        `move_hinges` keep, so it costs O(amalgam-incident types).
        """
        types = self._types
        return {key: (types[key], p) for key, p in self._at_alpha.items()}
