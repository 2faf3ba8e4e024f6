"""Laminar families over edge types and equalized selection on their forests.

At each stage the splitting pipeline must take, from every structurally
relevant group of the amalgam's hinges, a 1/m share rounded either way,
where m is the number of splits still to come plus one.  The ground set
is the amalgam-incident types: a type of c edges with amalgam
multiplicity p weighs c * p, and the selector picks how many of its
edges give up a hinge, within [c*floor(p/m), c*ceil(p/m)].  The wing
family (color class, multi-hinge wing union, wing) and the cell family
(amalgam multiplicity plus ordinary vertex set) group the types; each
member gets the floor/ceiling of its weight over m.  A wing or cell of
one type x is no member: x is solo, one item of size c * p inside x's own
bounds.  The wing builder lists the groups of the graph's wing view and
sums the class and union sizes from them, the cell builder the graph's
cells; each writes into every group it visits its types' innermost
member index and solo flag, a type's record points at its wing and its
cell, and `forest()` reads the parents and those indices back.

For laminar inputs a selection always exists: the bounds form a
circulation on the two forests (down A's, across one arc per element,
up B's, back to A's root along the ground arc) with a totally
unimodular constraint matrix, and weight/m everywhere is fractionally
feasible.  Elements start at their floors; one pass in ascending (c, p)
order raises each by the most that cures a deficit above it within
every ceiling above it.  Members still short are forced to their
floors, and each excess this leaves moves to the first deficit a
depth-first search finds on the residual graph; a search that reaches
none has found a closed set, whose excess has nowhere to go.  Each
selection is re-checked against every bound arithmetic leaves open: not
an unchosen element or empty member with c * p or size below m.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, count, filterfalse, repeat
from operator import itemgetter, or_
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import CELL, WING, ColoredMultiHypergraph


class Member(NamedTuple):
    """One family set, as a collection of its elements, and its builder's tag."""

    elements: Collection
    tag: tuple


class LaminarFamily:
    """A laminar family over `ground`, from containment its builder knows.

    `entries` holds (size, tag, parent entry index or -1), each after its
    parent; nothing is checked.  `inner` maps each element of `ground`, in
    ground order, to its record: c, p, a key in (c, p) order, and at `at`
    its group [_, size, index, solo], whose index is the element's
    innermost member (-1: none) and whose flag marks the element solo.
    The stage builders pass the records `G` keeps, at each type's wing or
    cell.  Nothing is copied, and the members' elements are read off the
    records only when `members` is.
    """

    def __init__(self, ground, entries: Sequence[tuple], inner: Mapping, at: int):
        self.ground, self.entries, self.inner, self.at = ground, entries, inner, at
        self.sizes = tuple(map(itemgetter(0), entries))
        self.parents = [*map(itemgetter(2), entries)]

    @cached_property
    def members(self) -> tuple:
        """Each entry as a `Member` of its elements, in ground order, and tag; built on first read.

        Element x lies in member i when i is on the parent chain of x's innermost member.
        """
        held, parents, at = [[] for _ in self.entries], self.parents, self.at
        for x, r in self.inner.items():
            i = r[at][2]
            while i >= 0:
                held[i].append(x)
                i = parents[i]
        return tuple(map(Member, held, map(itemgetter(1), self.entries)))

    @cached_property
    def solo(self) -> dict:
        """The solo elements, read off the flags of their groups in `inner` once."""
        groups = map(itemgetter(self.at), self.inner.values())
        return dict.fromkeys(compress(self.inner, map(itemgetter(3), groups)))

    def forest(self) -> tuple[list[int], dict]:
        """The kept forest: each entry's parent (-1: a root) and each element's innermost member (-1: none)."""
        at = self.at
        return self.parents, {x: r[at][2] for x, r in self.inner.items()}

    def totals(self, pairs: Iterable) -> list[int]:
        """Per member, the sum of the amounts in (element, amount) `pairs` it holds."""
        inner, at, total = self.inner, self.at, [0] * (len(self.parents) + 1)  # -1: outside every member
        for x, t in pairs:
            total[inner[x][at][2]] += t
        return _rollup(self.parents, total)


def _rollup(parent: list[int], total: list[int]) -> list[int]:
    """Per member, `total` summed over it and all below it; entry -1, outside every member, goes."""
    for i in range(len(parent) - 1, -1, -1):  # parents precede their children
        total[parent[i]] += total[i]
    total.pop()
    return total


class Selection(NamedTuple):
    """The amount chosen of each element (only nonzero ones) and the divisor."""

    amounts: dict
    m: int

    @property
    def chosen(self) -> frozenset:
        return frozenset(self.amounts)


def bounds_for(size: int, m: int) -> tuple[int, int]:
    """Floor/ceiling bounds on how much of a size-`size` set gets selected."""
    return size // m, -(-size // m)


def selection_respects_bounds(chosen: Iterable, ground, famA: LaminarFamily, famB: LaminarFamily,
                              m: int) -> Optional[tuple]:
    """First violated bound as a witness tuple, or None when all hold.

    `chosen` maps elements to amounts, or is a plain iterable taking each
    element once.  Checked in order: strays, the ground total, each chosen
    element, each element left out with c * p >= m (no other can have a
    floor above 0), then every member with an amount or a size >= m (any
    other meets its bounds 0 and 1), totalled in one pass over the amounts.
    `ground` must be both families' own ground object, as in `equalized_select`;
    all is read off their records, and a solo element is one item of size c * p.
    """
    if not (famA.ground is ground is famB.ground):
        raise ParameterError("families must share the selection ground set, as one object")
    amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
    A, B, a, b = famA.inner, famB.inner, famA.at, famB.at
    for x in filterfalse(A.__contains__, amounts):
        return ("stray", x)
    weights = [r[0] * r[1] for r in A.values()]
    lo, hi = bounds_for(sum(weights), m)
    got = sum(amounts.values())
    if not lo <= got <= hi:
        return ("ground", got, lo, hi)
    floored = [x for x, w in zip(A, weights) if w >= m and x not in amounts]
    for x, got in chain(amounts.items(), zip(floored, repeat(0))):
        r = A[x]
        c, p = (1, r[0] * r[1]) if r[a][3] or (r if B is A else B[x])[b][3] else (r[0], r[1])
        if not c * (p // m) <= got <= c * -(-p // m):
            return ("element", x, got, c * (p // m), c * -(-p // m))
    for fam in (famA, famB):
        sizes, total = fam.sizes, fam.totals(amounts.items())
        for i in compress(count(), map(or_, total, map(m.__le__, sizes))):
            lo, hi = sizes[i] // m, -(-sizes[i] // m)
            if not lo <= total[i] <= hi:
                return (fam.entries[i][1], total[i], lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(G: ColoredMultiHypergraph, ground, decomps: dict) -> LaminarFamily:
    """Wing-side family over `ground = G.hinges_at()`, from `decomps = wing_decompositions(G)`.

    Per color, as (size, tag, parent) entries: the class, the union of its
    wings with 2+ hinges and each wing of 2+ types, a group `G` keeps; a
    wing with 2+ hinges lies in the union, any other in the class.  The
    class weighs the loop group's and the wings' hinges.  At h >= 2 the
    union holds the loop, whose edges have h hinges each, and every wing
    but those of 1 hinge, each of which is one type; at h = 1 every type
    is the loop and the union is empty.  A wing of one type is no member:
    its type is solo, inside the union or the class.  Every group gets its
    index and solo flag, which hold until the next move; a type's members
    are then the chain of parents above its group's index.  Costs O(groups).
    """
    entries, multi = [], G.h > 1
    for i, (loop, wings) in decomps.items():
        top = len(entries)
        sizes = [*map(itemgetter(1), wings)]
        whole = loop[1] + sum(sizes)
        big = whole - sizes.count(1) if multi else 0
        loop[2] = top + multi
        entries += [(whole, ("color", i), -1), (big, ("multiwing", i), top if big else -1)]
        for j, w in enumerate(wings):
            if len(w[0]) > 1:
                w[2], w[3] = len(entries), False
                entries.append((w[1], ("wing", i, j), top + 1))
            else:
                w[2], w[3] = top + (w[1] >= 2), True
    return LaminarFamily(ground, entries, G._live, WING)


def build_cell_family(G: ColoredMultiHypergraph, ground) -> LaminarFamily:
    """Cell-side family over `ground = G.hinges_at()`: the types of one shape (p, rest).

    The cells that `G` keeps whose count is 2+ types; a cell of one type is
    no member, and its type is solo.  Every cell gets its index (-1: none)
    and solo flag, which hold until the next move.  Cells are disjoint, so
    the family is flat; its bounds keep shapes on schedule across splits.
    """
    entries = []
    for shape, cell in G._cells.items():
        if cell[0] > 1:
            cell[2], cell[3] = len(entries), False
            entries.append((cell[1], ("cell",) + shape, -1))
        else:
            cell[2], cell[3] = -1, True
    return LaminarFamily(ground, entries, G._live, CELL)


# -- selection -------------------------------------------------------------


def equalized_select(ground: Iterable, famA: LaminarFamily, famB: LaminarFamily, m: int,
                     seed: int = 0) -> Selection:
    """Choose an amount of every element meeting all floor/ceiling bounds.

    `ground` must be both families' own ground object.  Bounds apply to
    every element, to every member of both families and to the ground
    total; an element solo in either family is one item of size c * p.
    Malformed families, for which no selection may exist, raise an
    internal invariant error.  The seed rotates the ground, in the order
    both families' records share, before its stable (c, p) sort.
    """
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    if not (famA.ground is ground is famB.ground):
        raise ParameterError("families must share the selection ground set, as one object")
    A, B = famA.inner, famB.inner

    # Nodes: A's members, A's root rA, B's members, B's root rB.  Node u
    # owns arc own[u] to its parent up[u]: into an A member, out of a B
    # member, and rB -> rA, the ground arc, for both roots.  Arc k keeps
    # over[k] = flow - floor and slack[k] = ceiling - flow.
    parentA, parentB = famA.parents, famB.parents
    rA, rB = len(parentA), len(parentA) + 1 + len(parentB)
    nodeA, nodeB = [*range(rA + 1)], [*range(rA + 1, rB + 1)]  # index -1: the root
    up = [rA if u < 0 else u for u in parentA] + [rB, *map(nodeB.__getitem__, parentB), rA]
    own = [*range(rB), rA]
    # per element: its (c, p) key, itself and both records; seed-rotated, by key
    held, live, tails, heads, room, ia, ib, total = [], [], [], [], [], famA.at, famB.at, 0
    rows = [*zip(map(itemgetter(2), A.values()), A, A.values(), B.values())]
    r = seed % (len(rows) or 1)
    for _, x, ra, rb in sorted(rows[r:] + rows[:r], key=itemgetter(0)):
        c, p = ra[0], ra[1]
        total += c * p
        ga, gb = ra[ia], rb[ib]
        k = 1 if ga[3] or gb[3] else c  # k items of size q, the element's arc bounds
        q = c * p // k
        a, b = ga[2], gb[2]
        if q >= m:  # its floor
            held.append((x, k * (q // m), a, b))
        if q % m:  # it can rise: live element j is arc rB + j
            live.append(x), tails.append(nodeA[a]), heads.append(nodeB[b]), room.append(k)
    flows = [0] * (rA + 1), [0] * (len(parentB) + 1)  # the floors in each innermost member
    for _, t, a, b in held:
        flows[0][a] += t
        flows[1][b] += t
    flows = _rollup(parentA, flows[0]) + [sum(t for _, t, _, _ in held)] + _rollup(parentB, flows[1])
    sizes = [*famA.sizes, total, *famB.sizes]
    over = [f - s // m for s, f in zip(sizes, flows)]
    slack = [-(-s // m) - f for s, f in zip(sizes, flows)]
    above = [()] * (rB + 1)  # arcs from a node to its root; from A's also the ground arc
    above[rA] = (rA,)
    down: list[list] = [[] for _ in range(rB + 1)]  # arcs of the moves down
    for u in [*range(rA), *range(rA + 1, rB)]:  # each after its parent
        above[u] = (u,) + above[up[u]]
        down[up[u]].append(u)
    opened = [True] * (rB + 1)  # no arc above the node has been closed

    def close(k):  # arc k is at its ceiling: nothing below it can rise
        stack = [k]
        while stack:
            u = stack.pop()
            if opened[u]:
                opened[u] = False
                stack += down[u]

    # the greedy pass, in order
    over += repeat(0, len(live))
    slack += room
    short = min(over, default=0) < 0
    for k, a, b in zip(count(rB), tails, heads) if short else ():
        if opened[a] and opened[b]:
            arcs = above[a] + above[b]
            d = min(slack[k], -min(map(over.__getitem__, arcs)), *map(slack.__getitem__, arcs))
            if d > 0:
                over[k], slack[k] = d, slack[k] - d
                for j in arcs:
                    over[j] += d
                    slack[j] -= d
                    if not slack[j] and j != rA:
                        close(j)
                if not slack[rA]:
                    break  # every element lies below the ground arc

    excess = [0] * (rB + 1)
    for k in compress(range(rB), map((0).__gt__, map(min, over, slack))):  # force it into its bounds
        d = max(-over[k], min(slack[k], 0))  # the d units added (floors over a ceiling: taken)
        excess[k if k <= rA else up[k]] += d  # reach its head and leave its tail
        excess[up[k] if k <= rA else k] -= d
        over[k], slack[k] = over[k] + d, slack[k] - d
    sources = [u for u, e in enumerate(excess) if e > 0]
    # moves from u: up its own arc, down to a child member or across an element
    # with room (from A, forward) or flow (from B, back); up the other way
    for k, a, b in zip(count(rB), tails, heads) if sources else ():
        if slack[k]:
            down[a].append(k)
        if over[k]:
            down[b].append(k)
    for s in sources:
        while excess[s] > 0:
            # depth first, each move checked as it is generated; the up
            # move is pushed last, so it is taken first
            pred, stack, t = {s: None}, [s], None
            while stack and t is None:
                u = stack.pop()
                res, rev, far = (slack, over, heads) if u <= rA else (over, slack, tails)
                moves = [(k, far[k - rB] if k >= rB else k) for k in reversed(down[u]) if res[k] > 0]
                if rev[own[u]] > 0:
                    moves.append((own[u], up[u]))
                for k, v in moves:
                    if v not in pred:
                        pred[v] = (u, k)
                        if excess[v] < 0:
                            t = v
                            break
                        stack.append(v)
            if t is None:
                raise InternalInvariantError(
                    "equalized selection infeasible; input families are not laminar "
                    "or do not cover a common ground", witness=(len(ground), m))
            path, v = [], t
            while v != s:
                u, k = pred[v]
                path.append((u, v, k, (slack, over) if (u <= rA) != (k == own[u]) else (over, slack)))
                v = u
            d = min(excess[s], -excess[t], *(res[k] for _, _, k, (res, _) in path))
            for u, v, k, (res, rev) in path:
                if k >= rB and not rev[k]:  # the way back opens: list it
                    down[v].append(k)
                res[k] -= d
                rev[k] += d
            excess[s] -= d
            excess[t] += d

    amounts = {x: t for x, t, _, _ in held}
    for x, t in compress(zip(live, over[rB:]), over[rB:]):
        amounts[x] = amounts.get(x, 0) + t
    bad = selection_respects_bounds(amounts, ground, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(amounts, m)
