"""Multiset hypergraph core, stored as counts of interchangeable edges.

Edges with the same color and vertex multiset cannot be told apart by
any family bound, by the verifier or by the output, so the graph keeps
one count per edge type.  One designated vertex, the amalgam, may occur
several times within an edge; each occurrence is a "hinge".  A type is
keyed `(color, rest, p)`, its sorted ordinary vertices and amalgam
multiplicity: the paper's hinge group α^p U.  The types with p >= 1,
which `hinges_at` views, are counted apart from the finished ones.  Per
color, a union-find over ordinary vertices tracks the components that
wings hang off; they only merge, so it stays exact.  The graph keeps
everything a split stage reads, updated by `add_edge` and `move_hinges`
for the types they touch: the cells by (p, rest), per color the wings by
union-find root, the class and the multi-wing union, each a group with
its hinge total, and per type and side its innermost member's group and
whether it is solo.  A move takes (color, rest, p) to (color, rest +
(to,), p - 1).  Only `edges()` builds `Edge(color, sorted verts)`: one
record per type, repeated `count` times; an edge's id is its position.
"""

from __future__ import annotations

import math
from bisect import bisect
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from types import MappingProxyType
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


# A kept group is [types, hinges Σ c·p, its member index in the family last
# built over it, valid until the next move]; this one holds no member.
NO_MEMBER: list = [(), 0, -1]


class Computed(partial):
    """A collection this call computes when read, from a graph's containers (not the graph)."""

    def __iter__(self):
        return iter(self())

    def __len__(self):
        return len(self())


def _seat(inner: dict, solo: dict, keys: Iterable, group: list, alone: bool) -> None:
    """Map each of `keys` to `group`, its innermost member's, and keep it in `solo` iff `alone`."""
    for x in keys:
        inner[x] = group
        if alone:
            solo[x] = None
        else:
            solo.pop(x, None)


def _class_types(live: dict, color: int) -> list:
    return [x for x in live if x[0] == color]


def _multi_types(live: dict, wings: dict, loop: Optional[tuple]) -> list:
    """The loop type, if in the union (h >= 2), and the types of the wings with 2+ hinges."""
    return ([loop] if loop in live else []) + [x for w in wings.values() if w[1] >= 2 for x in w[0]]


def _regroup(groups: dict, g, key: tuple, hinges: int, kept: int) -> list:
    """Add `hinges` to group g's total and keep `key` in it while `kept`; drop it once emptied."""
    group = groups.get(g) or groups.setdefault(g, [{}, 0, -1])
    group[1] += hinges
    if kept:
        group[0][key] = None
    else:
        del group[0][key]
        if not group[0]:
            del groups[g]
    return group


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
        # type (color, rest, p) -> (c, p) for the types with p >= 1, -> c for the finished ones
        self._live: dict[tuple, tuple] = {}
        self._done: dict[tuple, int] = {}
        self._ground = MappingProxyType(self._live)
        self._uf = {i: UnionFind() for i in range(1, k + 1)}
        # the groups: cells by (p, rest); per color its class and multi-wing
        # union, whose types are computed when read, and its wings by root
        self._cells: dict[tuple, list] = {}
        self._wings: dict[int, dict] = {i: {} for i in range(1, k + 1)}
        self._classes = {i: [Computed(_class_types, self._live, i), 0, -1] for i in self._wings}
        self._multi = {i: [Computed(_multi_types, self._live, w, (i, (), h) if h > 1 else None), 0, -1]
                       for i, w in self._wings.items()}
        self._pairs = {i: Computed(map, itemgetter(0, 1), w.values()) for i, w in self._wings.items()}
        # per side (wing, cell): type -> its innermost member's group, in the
        # order of `_live`, and the solo types
        self._inner: tuple[dict, dict] = ({}, {})
        self._solo: tuple[dict, dict] = ({}, {})

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
        counts = chain(done.values(), map(itemgetter(0), live.values()))
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
        joins the color's component of rest.  Only the state of the moved
        types, their groups and the types that share those changes.
        """
        if to not in self.vertices or to == self.alpha:
            raise ParameterError(f"move target {to} is not a declared ordinary vertex")
        live = self._live
        for key, t in amounts.items():
            if key not in live or not 0 <= t <= live[key][0]:
                raise InvalidHingeError(
                    f"cannot move {t} hinges of type {key} ({live.get(key, (0,))[0]} edges)")
        for key, t in amounts.items():
            if t:
                color, rest, p = key
                self._add(key, -t, self._uf[color].find(rest[0]) if rest else None)
                # `to` joins the first ordinary vertex, if the type had one
                root = self._union(color, rest[0] if rest else to, to)
                i = bisect(rest, to)
                self._add((color, rest[:i] + (to,) + rest[i:], p - 1), t, root)

    def _add(self, key: tuple, t: int, root: Optional[int]) -> None:
        """Add t edges (t < 0: remove -t) of `key` to its count and groups; `root` is None for a loop.

        An emptied type leaves every group and map, an emptied group goes.  A
        type is seated when new, and again when its cell or wing keeps it alone
        or its lone wing crosses 2 hinges; a wing gaining a second type seats both.
        """
        color, rest, p = key
        if not p:
            self._done[key] = self._done.get(key, 0) + t
            return
        live, hinges, inner, solo = self._live, t * p, self._inner, self._solo
        was = live.get(key)
        c = (was[0] if was else 0) + t
        self._classes[color][1] += hinges
        if c:
            live[key] = (c, p)
        else:
            del live[key], inner[0][key], inner[1][key]
            for side in solo:
                side.pop(key, None)
        cell = _regroup(self._cells, (p, rest), key, hinges, c)
        n = len(cell[0])
        if not was and n > 2:
            inner[1][key] = cell
        elif not was or n == 1 and not c:
            _seat(inner[1], solo[1], cell[0], NO_MEMBER if n == 1 else cell, n == 1)
        multi, whole = self._multi[color], self._classes[color]
        if not rest:  # a loop lies in the multi-wing union at h >= 2, its innermost member
            multi[1] += hinges if self.h > 1 else 0
            if not was:
                inner[0][key] = multi if self.h > 1 else whole
            return
        wing = _regroup(self._wings[color], root, key, hinges, c)
        was_big, big, n = wing[1] - hinges >= 2, wing[1] >= 2, len(wing[0])
        multi[1] += (wing[1] if big else 0) - (wing[1] - hinges if was_big else 0)
        if not was and n > 2:
            inner[0][key] = wing
        elif not was or n == 1 and (not c or big != was_big):
            _seat(inner[0], solo[0], wing[0], (multi if big else whole) if n == 1 else wing, n == 1)

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
                self._multi[color][1] += (into[1] == 1) + (group[1] == 1)  # lone hinges join it
                into[0].update(group[0])
                into[1] += group[1]
                keys = into[0] if len(into[0]) == 2 else group[0]
                _seat(self._inner[0], self._solo[0], keys, into, False)
        return rb

    def hinges_at(self) -> Mapping[tuple, tuple[int, int]]:
        """Read-only and live: each amalgam-incident type -> (count c, amalgam multiplicity p)."""
        return self._ground


def wing_decompositions(G: ColoredMultiHypergraph, ground) -> dict[int, tuple]:
    """Per color of `G`: its loop type (or None), and its other wings' (types, hinges) read in place."""
    loops = {i: (i, (), G.h) for i in G._pairs}
    return {i: (loops[i] if loops[i] in ground else None, pairs) for i, pairs in G._pairs.items()}
