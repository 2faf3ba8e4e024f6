"""Multiset hypergraph core, stored as counts of interchangeable edges.

Edges with the same color and vertex multiset cannot be told apart by
any family bound, by the verifier or by the output, so the graph keeps
one count per edge type.  One designated vertex, the amalgam, may occur
several times within an edge; each occurrence is a "hinge".  A type is
keyed `(color, rest, p)`, its sorted ordinary vertices and amalgam
multiplicity: the paper's hinge group α^p U.  A finished type (p = 0)
keeps a count, any other one record of all a split stage reads of it:
c, p, its wing (per color, a union-find over ordinary vertices; components
only merge, or for a loop its color's loop group) and its cell (the types
of its (p, rest)).  A group's total is the hinges of the records that name
it, and it carries the place of its types in the family last built over
it; a wing lists its types, a cell counts them.  `add_edge` and
`move_hinges` update what they touch; a move takes (color, rest, p) to
(color, rest + (to,), p - 1).  `hinges_at` views the records as (c, p),
and `wing_decompositions` lists per color the groups the wing family reads.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections.abc import Mapping
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

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


# A kept group is [types, hinges Σ c·p over the records naming it, index, solo]:
# the family last built over it writes its types' innermost member index (-1:
# none) and whether it is a wing or cell of one type, valid until the next move.
# A wing keeps its types as {type: None}, a cell their count, a loop group None.
# A type's record: c, p, its sort key c * (h + 1) + p, its wing (a loop's: its
# color's loop group) and its cell.  Records point at groups and no group points
# back, so no cycle forms and a dropped graph is freed by reference counts.
C, P, KEY, WING, CELL = range(5)
_edge = partial(tuple.__new__, Edge)  # Edge((color, verts)) in one C-level call, unchecked


class Ground(Mapping):
    """A read-only, live view of the records as type -> (c, p)."""

    def __init__(self, records: dict):
        self.records = records

    def __getitem__(self, x):
        return tuple(self.records[x][:2])

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __contains__(self, x):
        return x in self.records


class ColoredMultiHypergraph:
    """Edge-colored multi-hypergraph with uniform edge size `h`, counted with multiplicity.

    Vertices are declared explicitly (an isolated vertex is a real vertex,
    which matters for connectivity checks).  Colors run 1..k.
    """

    def __init__(self, vertices: Iterable[int], alpha: int, h: int, k: int):
        self.vertices: set[int] = set(vertices)
        if alpha not in self.vertices:
            raise ParameterError(f"amalgam {alpha} must be a declared vertex")
        if h < 1 or k < 1:
            raise ParameterError(f"need h >= 1 and k >= 1, got h={h}, k={k}")
        self.alpha, self.h, self.k = alpha, h, k
        # type (color, rest, p) -> its record for the types with p >= 1, -> c for the finished ones
        self._live: dict[tuple, list] = {}
        self._done: dict[tuple, int] = {}
        self._uf = {i: UnionFind() for i in range(1, k + 1)}
        # the groups: cells by (p, rest), which count their types; per color
        # its wings by root and the group of its loop type, which lists none
        self._cells: dict[tuple, list] = {}
        self._wings: dict[int, dict] = {i: {} for i in range(1, k + 1)}
        self._loops = {i: [None, 0, -1, False] for i in self._wings}

    # -- basic accessors -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Explicit edges: one `Edge(color, sorted verts)` per type, repeated `count` times.

        The finished types come first, then the others, each in the order it
        gained its count; the `Edge` of an amalgam-incident type is built here.
        """
        alpha, done, recs = self.alpha, self._done, self._live
        live = [_edge((color, rest[:i] + (alpha,) * p + rest[i:]))
                for color, rest, p in recs for i in (bisect(rest, alpha),)]
        records = chain(map(_edge, map(itemgetter(0, 1), done)), live)
        counts = chain(done.values(), map(itemgetter(C), recs.values()))
        return chain.from_iterable(map(repeat, records, counts))

    # -- mutation --------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v in self.vertices:
            raise ParameterError(f"vertex {v} already present")
        self.vertices.add(v)

    def add_edge(self, verts: Iterable[int], color: int, mult: int = 1) -> tuple:
        """Add `mult` edges of one type and return the type `(color, rest, p)`."""
        vt = tuple(sorted(verts))
        if len(vt) != self.h:
            raise ParameterError(f"edge {vt} has {len(vt)} vertex occurrences, expected h={self.h}")
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
        least t edges, or nothing moves.  In the moved edges, type (color,
        rest, p) becomes (color, rest + (to,), p - 1), and `to` joins the
        color's component of rest.  Only those types and their groups change.
        """
        if to not in self.vertices or to == self.alpha:
            raise ParameterError(f"move target {to} is not a declared ordinary vertex")
        recs = [*map(self._live.get, amounts)]
        for (key, t), rec in zip(amounts.items(), recs):
            if not rec or not 0 <= t <= rec[C]:
                raise InvalidHingeError(f"cannot move {t} hinges of type {key} ({rec[C] if rec else 0} edges)")
        tops: dict = {}  # per color, the root of `to`, which every union below keeps
        for (key, t), rec in zip(amounts.items(), recs):
            if t:
                color, rest, p = key
                root = tops.get(color) or tops.setdefault(color, self._uf[color].find(to))
                self._add(key, -t, rec=rec)
                if rest and rec[WING] is not self._wings[color].get(root):
                    self._union(color, rest[0], to)  # `to` joins the first ordinary vertex
                i = bisect(rest, to)
                self._add((color, rest[:i] + (to,) + rest[i:], p - 1), t, root)

    def _add(self, key: tuple, t: int, root: Optional[int] = None, rec: Optional[list] = None) -> None:
        """Add t edges (t < 0: remove -t) of `key`, whose record is `rec` if it has one.

        A new type gets a record in its cell, which counts it, and its wing at
        `root` (a loop in its color's loop group); an emptied type or group
        goes.  The hinges go to the two groups the record names, and to no other.
        """
        color, rest, p = key
        if not p:
            self._done[key] = self._done.get(key, 0) + t
            return
        live, hinges = self._live, t * p
        rec = rec or live.get(key)
        if rec is None:
            cell = self._cells.get((p, rest)) or self._cells.setdefault((p, rest), [0, 0, -1, False])
            if rest:
                wings = self._wings[color]
                wing = wings.get(root) or wings.setdefault(root, [{}, 0, -1, False])
                wing[0][key] = None
            else:
                wing = self._loops[color]
            rec = live[key] = [0, p, p, wing, cell]
            cell[0] += 1
        c = rec[C] = rec[C] + t
        rec[KEY] += t * (self.h + 1)
        cell, wing = rec[CELL], rec[WING]
        cell[1] += hinges
        wing[1] += hinges
        if not c:
            del live[key]
            cell[0] -= 1
            if not cell[0]:
                del self._cells[p, rest]
            if rest:
                del wing[0][key]
                if not wing[0]:
                    del self._wings[color][self._uf[color].find(rest[0])]

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
                for r in map(self._live.__getitem__, group[0]):
                    r[WING] = into
        return rb

    def hinges_at(self) -> Mapping[tuple, tuple[int, int]]:
        """Read-only and live: each amalgam-incident type -> (count c, amalgam multiplicity p)."""
        return Ground(self._live)


def wing_decompositions(G: ColoredMultiHypergraph) -> dict[int, tuple]:
    """Per color of `G`: the group of its loop type, and its wings.

    Each group is the one `G` keeps, [types, hinges, index, solo], read in
    place, and its total is the hinges of the records that name it.  The
    loop group lists no types; the loop record names it in its wing slot.
    The wings are a live view of the color's groups by union-find root,
    each listing its types.
    """
    return {i: (G._loops[i], wings.values()) for i, wings in G._wings.items()}
