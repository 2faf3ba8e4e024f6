"""Multiset hypergraph core, stored as counts of interchangeable edges.

Edges with the same color and vertex multiset cannot be told apart by
any family bound, by the verifier or by the output, so the graph keeps
one count per edge type `(color, sorted verts)`.  One designated vertex,
the amalgam, may occur several times within an edge; each occurrence is
a "hinge".  Per color, a union-find over ordinary (non-amalgam) vertices
tracks the components that wings hang off; edges only ever gain
ordinary vertices, so components only merge and the union-find stays
exact.  The graph also indexes its amalgam-incident types by their
amalgam multiplicity p (the counts stay in the one `Counter`), and
keeps the split state grouped two ways, each group a {type: None} dict
with its hinge total Σ c·p: the cells by shape (p, ordinary vertices),
and per color the wings, the non-loop types by union-find root.
`add_edge` and `move_hinges` update all of it from the types they touch
alone: an emptied type leaves its cell and wing, a moved type with
p >= 2 joins the cell of its successor, and a union joins the smaller
wing group to the larger, under the root the union picks.  So a split
stage reads its ground, cells and wings without regrouping the ground;
`wing_decompositions` is a view.  `edges()` repeats each type's one
`Edge(color, verts)` record `count` times, for the verifier and the
output; an edge's id is its position in that stream.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidHingeError, ParameterError


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k lies outside [0, n]."""
    if n < 0:
        raise ParameterError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# past this estimated size in bits, a binomial is compared with a count
# without computing it in full (see `binom_passes`)
BINOMIAL_BITS = 2**20


def binom_passes(N: int, k: int, count: int) -> Optional[int]:
    """The least j with C(N, j) > `count`, if C(N, k) is too large to compute.

    None when min(k, N - k) * log2(N), an upper estimate of the bits of
    C(N, k), is at most `BINOMIAL_BITS`: the caller then computes C(N, k)
    in full.  Past that, C(N, j) is built for j = 1, 2, ... up to
    min(k, N - k), where it grows with j and reaches C(N, k), so stopping
    once it passes `count` proves C(N, k) > `count`.  A count held by a
    document passes within about log2(count) steps.
    """
    top = min(k, N - k)
    if top * N.bit_length() <= BINOMIAL_BITS:
        return None
    c = 1
    for j in range(1, top + 1):
        c = c * (N - j + 1) // j
        if c > count:
            return j
    return None


def int_text(x: int) -> str:
    """`str(x)`, or `<N-bit integer>` past 256 bits.

    The cut is fixed, so the text never depends on the interpreter's
    int-to-str digit limit.
    """
    return str(x) if x.bit_length() <= 256 else f"<{x.bit_length()}-bit integer>"


def binom_over(lam: int, N: int, k: int, cap: int) -> Optional[str]:
    """lam * C(N, k) as text when it exceeds `cap` (lam >= 1), else None."""
    if binom_passes(N, k, cap // lam) is not None:
        return f"more than {cap}"
    total = lam * binom(N, k)
    return int_text(total) if total > cap else None


class Edge(NamedTuple):
    """One colored edge; `verts` is a sorted vertex multiset."""

    color: int
    verts: tuple


class UnionFind:
    """Union-find over arbitrary hashable items, with path halving."""

    def __init__(self):
        self.parent: dict = {}

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


def _merge(groups: dict, ra, rb) -> None:
    """Join the group of root `ra` to that of root `rb`, the smaller into the larger, under `rb`."""
    group = groups.pop(ra, None)
    if group:
        into = groups.setdefault(rb, group)
        if into is not group:
            if len(group[0]) > len(into[0]):
                groups[rb], group, into = group, into, group
            into[0].update(group[0])
            into[1] += group[1]


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
        # the kept split state, each group as [{type: None}, hinges Σ c·p]:
        # the cells by (p, rest), and per color the wings by union-find root
        self._cells: dict[tuple, list] = {}
        self._wings: dict[int, dict] = {i: {} for i in range(1, k + 1)}

    # -- basic accessors -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Explicit edges: one `Edge` per type, repeated `count` times, in insertion order."""
        types = self._types
        return chain.from_iterable(map(repeat, map(Edge._make, types), types.values()))

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
        uf, wings = self._uf[color], self._wings[color]
        rest = tuple(v for v in vt if v != self.alpha)
        for v in rest:
            ra, rb = uf.find(v), uf.find(rest[0])
            if ra != rb:
                uf.parent[ra] = rb  # the root `uf.union(v, rest[0])` picks
                _merge(wings, ra, rb)
        p = self.h - len(rest)
        if p:
            self._at_alpha[key] = p
            kept = [self._cells.setdefault((p, rest), [{}, 0])]
            kept += [wings.setdefault(uf.find(rest[0]), [{}, 0])] if rest else []
            for group in kept:
                group[0][key] = None
                group[1] += mult * p
        return key

    def move_hinges(self, amounts: Mapping[tuple, int], to: int) -> None:
        """Move one amalgam occurrence onto `to` in t edges of each type.

        `amounts` maps types to t; each type must hold the amalgam and at
        least t edges, or nothing moves.  `to` joins the color's component
        of every moved edge.  Only the moved types' cells and wings change.
        """
        if to not in self.vertices or to == self.alpha:
            raise ParameterError(f"move target {to} is not a declared ordinary vertex")
        for key, t in amounts.items():
            if self.alpha not in key[1] or not 0 <= t <= self._types.get(key, 0):
                raise InvalidHingeError(
                    f"cannot move {t} hinges of type {key} ({self._types.get(key, 0)} edges)"
                )
        alpha, types, at_alpha, cells = self.alpha, self._types, self._at_alpha, self._cells
        ufs, colors = self._uf, self._wings
        for key, t in amounts.items():
            if not t:
                continue
            color, verts = key
            p = at_alpha[key]
            i = verts.index(alpha)  # the sorted verts hold p alphas from i on
            rest = verts[:i] + verts[i + p:]
            cell, uf, wings = cells[p, rest], ufs[color], colors[color]
            # `to` joins the first ordinary vertex, if the type had one
            rb = uf.find(to)
            ra = uf.find(rest[0]) if rest else rb
            group = wings[ra] if rest else None
            cell[1] -= t * p
            if group:
                group[1] -= t * p
            if types[key] == t:
                del types[key], at_alpha[key], cell[0][key]
                if not cell[0]:
                    del cells[p, rest]
                if group:
                    del group[0][key]
                    if not group[0]:
                        del wings[ra]
            else:
                types[key] -= t
            if ra != rb:
                uf.parent[ra] = rb  # the root `uf.union(rest[0], to)` picks
                _merge(wings, ra, rb)
            dest = (color, tuple(sorted(verts[:i] + verts[i + 1:] + (to,))))
            types[dest] = types.get(dest, 0) + t
            if p > 1:
                at_alpha[dest] = p - 1
                dv = dest[1]
                j = dv.index(alpha)
                shape = (p - 1, dv[:j] + dv[j + p - 1:])
                cell = cells.get(shape) or cells.setdefault(shape, [{}, 0])
                group = wings.get(rb) or wings.setdefault(rb, [{}, 0])
                cell[0][dest] = group[0][dest] = None
                cell[1] += t * (p - 1)
                group[1] += t * (p - 1)

    # -- derived quantities ----------------------------------------------

    def hinges_at(self) -> dict[tuple, tuple[int, int]]:
        """Each amalgam-incident type, mapped to (count c, amalgam multiplicity p).

        Reads the index of amalgam-incident types that `add_edge` and
        `move_hinges` keep, so it costs O(amalgam-incident types).
        """
        types = self._types
        return {key: (types[key], p) for key, p in self._at_alpha.items()}


def wing_decompositions(G: ColoredMultiHypergraph, ground: dict) -> dict[int, tuple]:
    """Per color of `G`: its loop type (or None) and its other wings as [types, hinges].

    `ground` is `G.hinges_at()`.  The wings are the groups `G` keeps by
    union-find root, each a {type: None} dict and its hinge total, read
    in place: they hold until the next move.
    """
    loop = (G.alpha,) * G.h
    return {i: ((i, loop) if (i, loop) in ground else None, wings.values())
            for i, wings in G._wings.items()}
