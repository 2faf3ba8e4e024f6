"""Multiset hypergraph core, stored as counts of interchangeable edges.

Edges with the same color and vertex multiset cannot be told apart by
any family bound, by the verifier or by the output, so the graph keeps
one count per edge type.  One designated vertex, the amalgam, may occur
several times within an edge; each occurrence is a "hinge".  A type is
keyed `(color, rest, p)`, its sorted ordinary (non-amalgam) vertices and
amalgam multiplicity: the paper's hinge group α^p U.  The types with
p >= 1, which `hinges_at` lists, are counted apart from the finished
ones.  Per color, a union-find over ordinary vertices tracks the
components that wings hang off; edges only ever gain ordinary vertices,
so components only merge and the union-find stays exact.  The split
state is grouped two ways, each group a {type: None} dict with its hinge
total Σ c·p: the cells by shape (p, rest), and per color the wings, the
non-loop types by union-find root.  `add_edge` and `move_hinges` keep it
through one add path and one union, which joins the smaller wing group
to the larger; a move takes (color, rest, p) to (color, rest + (to,),
p - 1).  So a stage reads its ground, cells and wings in place, and only
`edges()` builds `Edge(color, sorted verts)`: one record per type,
repeated `count` times; an edge's id is its position in that stream.
"""

from __future__ import annotations

import math
from bisect import bisect
from itertools import chain, repeat
from operator import itemgetter
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


def _regroup(groups: dict, g, key: tuple, hinges: int, kept: int) -> None:
    """Add `hinges` to group g's total; keep `key` in it while `kept`, and drop an emptied group."""
    group = groups.get(g) or groups.setdefault(g, [{}, 0])
    group[1] += hinges
    if kept:
        group[0][key] = None
    else:
        del group[0][key]
        if not group[0]:
            del groups[g]


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
        # type (color, rest, p) -> count, for the types with p >= 1 and the finished ones
        self._live: dict[tuple, int] = {}
        self._done: dict[tuple, int] = {}
        self._uf = {i: UnionFind() for i in range(1, k + 1)}
        # the kept split state, each group as [{type: None}, hinges Σ c·p]:
        # the cells by (p, rest), and per color the wings by union-find root
        self._cells: dict[tuple, list] = {}
        self._wings: dict[int, dict] = {i: {} for i in range(1, k + 1)}

    # -- basic accessors -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Explicit edges: one `Edge(color, sorted verts)` per type, repeated `count` times.

        The finished types come first, then the amalgam-incident ones, each
        in the order it gained its count; a type's p amalgam occurrences go
        back among its ordinary vertices in sorted place.
        """
        alpha, done, live = self.alpha, self._done, self._live
        fill = [(alpha,) * p for p in range(self.h + 1)]
        records = chain(map(Edge._make, map(itemgetter(0, 1), done)), [
            Edge._make((color, rest[:i] + fill[p] + rest[i:]))
            for color, rest, p in live for i in [bisect(rest, alpha)]])
        return chain.from_iterable(map(repeat, records, chain(done.values(), live.values())))

    # -- mutation --------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v in self.vertices:
            raise ParameterError(f"vertex {v} already present")
        self.vertices.add(v)

    def add_edge(self, verts: Iterable[int], color: int, mult: int = 1) -> tuple:
        """Add `mult` edges of one type and return the type `(color, rest, p)`."""
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
        rest = tuple(v for v in vt if v != self.alpha)
        root = None
        for v in rest:
            root = self._union(color, v, rest[0])
        key = (color, rest, self.h - len(rest))
        self._add(key, mult, root)
        return key

    def move_hinges(self, amounts: Mapping[tuple, int], to: int) -> None:
        """Move one amalgam occurrence onto `to` in t edges of each type.

        `amounts` maps types of `hinges_at()` to t; each type must have at
        least t edges, or nothing moves.  In the moved edges, type
        (color, rest, p) becomes (color, rest + (to,), p - 1), and `to`
        joins the color's component of rest.  Only the moved types' cells
        and wings change.
        """
        if to not in self.vertices or to == self.alpha:
            raise ParameterError(f"move target {to} is not a declared ordinary vertex")
        live = self._live
        for key, t in amounts.items():
            if key not in live or not 0 <= t <= live[key]:
                raise InvalidHingeError(
                    f"cannot move {t} hinges of type {key} ({live.get(key, 0)} edges)"
                )
        for key, t in amounts.items():
            if t:
                color, rest, p = key
                self._add(key, -t, self._uf[color].find(rest[0]) if rest else None)
                # `to` joins the first ordinary vertex, if the type had one
                root = self._union(color, rest[0] if rest else to, to)
                i = bisect(rest, to)
                self._add((color, rest[:i] + (to,) + rest[i:], p - 1), t, root)

    def _add(self, key: tuple, t: int, root: Optional[int]) -> None:
        """Add t edges (t < 0: remove -t) of `key` to its count, cell and wing group at `root`.

        An emptied type leaves all three, an emptied group goes; `root` is None for a loop.
        """
        color, rest, p = key
        types = self._live if p else self._done
        c = types.get(key, 0) + t
        if c:
            types[key] = c
        else:
            del types[key]
        if p:
            _regroup(self._cells, (p, rest), key, t * p, c)
            if rest:
                _regroup(self._wings[color], root, key, t * p, c)

    def _union(self, color: int, a: int, b: int) -> int:
        """Join the components of `a` and `b` and their wing groups under b's root; return it."""
        uf, wings = self._uf[color], self._wings[color]
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return rb
        uf.parent[ra] = rb
        group = wings.pop(ra, None)
        if group:
            into = wings.setdefault(rb, group)
            if into is not group:  # the smaller group joins the larger
                if len(group[0]) > len(into[0]):
                    wings[rb], group, into = group, into, group
                into[0].update(group[0])
                into[1] += group[1]
        return rb

    # -- derived quantities ----------------------------------------------

    def hinges_at(self) -> dict[tuple, tuple[int, int]]:
        """Each amalgam-incident type, mapped to (count c, amalgam multiplicity p).

        Reads the count dict of amalgam-incident types that `add_edge` and
        `move_hinges` keep, so it costs O(amalgam-incident types).
        """
        return {key: (c, key[2]) for key, c in self._live.items()}


def wing_decompositions(G: ColoredMultiHypergraph, ground: dict) -> dict[int, tuple]:
    """Per color of `G`: its loop type (or None) and its other wings as [types, hinges].

    `ground` is `G.hinges_at()`.  The wings are the groups `G` keeps by
    union-find root, each a {type: None} dict and its hinge total, read
    in place: they hold until the next move.
    """
    return {i: ((i, (), G.h) if (i, (), G.h) in ground else None, wings.values())
            for i, wings in G._wings.items()}
