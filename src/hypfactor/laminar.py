"""Laminar families over edge types and equalized selection on their forests.

At each stage the splitting pipeline must take, from every structurally
relevant group of the amalgam's hinges, a 1/m share rounded either way,
where m is the number of splits still to come plus one.  Edges of one
type are interchangeable, so the ground set is the amalgam-incident
types: a type of c edges with amalgam multiplicity p weighs c * p, and
the selector picks how many of its edges give up a hinge, within
[c*floor(p/m), c*ceil(p/m)].  The wing family (color class, multi-hinge
wing union, wing) and the cell family (amalgam multiplicity plus
ordinary vertex set) group the types; each member gets the floor/ceiling
of its weight over m.  A wing or cell of one type x is no member: its
bounds lie inside x's own, so x goes to the family's `solo` and is
bounded as one item of size c * p.  Both builders know each member's
size and parent, so `LaminarFamily` takes exactly that, in the
builder's order, and checks nothing; equal sets chain.  `forest()`
recomputes the forest with the laminarity and ground checks.  Selection
and its re-check also take a plain iterable ground of unit elements.

For laminar inputs such a selection always exists: the bounds form a
circulation on the two forests (down A's, across one arc per element,
up B's, back to A's root along the ground arc) with a totally
unimodular constraint matrix, and weight/m everywhere is fractionally
feasible.  The selector works on the forests themselves.  Elements start
at their floors; one pass in ascending (c, p) order raises each by the
most that cures a deficit above it within every ceiling above it.
Members still short are forced to their floors, and each excess this
leaves moves to the first deficit a depth-first search finds on the
residual graph.  A search that reaches no deficit has found a closed
set: every arc leaving it is at its ceiling and every arc entering it
at its floor, so no later push can open it and its excess has nowhere
to go.  Each selection is re-checked against every bound; of the
elements left out it visits only those with c * p >= m, as no other
has a floor above 0.  Stage tests compare each stage with a rebuild.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat, starmap
from operator import mul
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, ParameterError
from .hypercore import ColoredMultiHypergraph


def weighted(ground) -> dict:
    """`ground` as {element: (c, p)}, c items of size p; unit items for a plain iterable."""
    return dict(ground) if isinstance(ground, Mapping) else dict.fromkeys(ground, (1, 1))


class Member(NamedTuple):
    """One family set, as the collection its builder made, and its builder's tag."""

    elements: Collection
    tag: tuple


def containment_forest(ground: Mapping, members: Sequence[Member]) -> tuple[list[int], dict]:
    """Containment forest of `members`: parent index per member (-1 for a root).

    Also returns the innermost member index per ground element (-1 when
    an element lies in no member).  Raises on any laminarity or ground
    violation.  One pass over members listed parents first: when a set
    arrives, every element it contains must sit in one and the same
    innermost set, its parent.  A set listed before a proper superset
    raises; equal sets chain.
    """
    innermost: dict = dict.fromkeys(ground, -1)
    parent = []
    for idx, mb in enumerate(members):
        try:
            seen = {innermost[x] for x in mb.elements}
        except KeyError as exc:
            x = exc.args[0]
            raise InternalInvariantError(
                f"member {idx} contains {x!r} outside the ground set",
                witness=(mb.tag, x),
            ) from None
        if len(seen) > 1:
            raise InternalInvariantError(
                f"family is not laminar: member {idx} straddles {sorted(seen)}",
                witness=(mb.tag, sorted(seen)),
            )
        parent.append(seen.pop() if seen else -1)
        innermost.update(dict.fromkeys(mb.elements, idx))
    return parent, innermost


class LaminarFamily:
    """A laminar family over `ground` {element: (c, p)}, from containment its builder knows.

    `entries` holds (elements, size, tag, parent entry index or -1), each
    after its parent; nothing is checked.  Each entry is one member and one
    update of the innermost map, so the last holding an element is its
    innermost.  `solo` holds the elements whose c * p hinges form a member
    on their own, carried by the element's bounds.  The ground, `solo` and
    the entries' elements are kept, not copied; an element outside every
    member has none.  `forest()` is the laminarity and ground check.
    """

    def __init__(self, ground: dict, entries: Sequence[tuple], solo: Collection = ()):
        self.ground = ground
        self.solo = solo
        self.members = tuple([Member(xs, tag) for xs, _, tag, _ in entries])
        self.sizes = tuple([size for _, size, _, _ in entries])
        innermost: dict = {}
        for i, (xs, _, _, _) in enumerate(entries):
            innermost.update(zip(xs, repeat(i)))
        self._forest = ([up for _, _, _, up in entries], innermost)

    def forest(self) -> tuple[list[int], dict]:
        """The members' containment forest, recomputed after the `solo` ground check."""
        for x in self.solo:
            if x not in self.ground:
                raise InternalInvariantError(
                    f"solo element {x!r} outside the ground set", witness=(("solo",), x))
        return containment_forest(self.ground, self.members)

    def totals(self, pairs: Iterable) -> list[int]:
        """Per member, the sum of the amounts in (element, amount) `pairs` it holds."""
        parent, innermost = self._forest
        total = [0] * (len(self.members) + 1)  # index -1: outside every member
        for x, t in pairs:
            total[innermost.get(x, -1)] += t
        for i in range(len(self.members) - 1, -1, -1):  # parents precede their children
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


def selection_respects_bounds(
    chosen: Iterable, ground, famA: LaminarFamily, famB: LaminarFamily, m: int
) -> Optional[tuple]:
    """First violated bound as a witness tuple, or None when all hold.

    `chosen` maps elements to amounts, or is a plain iterable taking each
    element once.  Checked in order: strays, the ground total, each chosen
    element, each element left out with c * p >= m (no other can have a
    floor above 0), then every member, totalled in one pass over the
    amounts.  An element in either family's `solo` is one item of size
    c * p.  A dict `ground` is read in place.
    """
    amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
    g = ground if isinstance(ground, Mapping) else weighted(ground)
    for x in amounts:
        if x not in g:
            return ("stray", x)
    lo, hi = bounds_for(sum(starmap(mul, g.values())), m)
    got = sum(amounts.values())
    if not lo <= got <= hi:
        return ("ground", got, lo, hi)
    soloA, soloB = famA.solo, famB.solo
    floored = [x for x, (c, p) in g.items() if c * p >= m and x not in amounts]
    for x in chain(amounts, floored):
        c, p = g[x]
        if x in soloA or x in soloB:
            c, p = 1, c * p
        lo, hi = bounds_for(p, m)
        got = amounts.get(x, 0)
        if not c * lo <= got <= c * hi:
            return ("element", x, got, c * lo, c * hi)
    for fam in (famA, famB):
        for mb, size, got in zip(fam.members, fam.sizes, fam.totals(amounts.items())):
            lo, hi = bounds_for(size, m)
            if not lo <= got <= hi:
                return (mb.tag, got, lo, hi)
    return None


# -- family builders ----------------------------------------------------


def build_wing_family(G: ColoredMultiHypergraph, ground: dict, decomps: dict) -> LaminarFamily:
    """Wing-side family over `ground = G.hinges_at()` and its wings `decomps`.

    `decomps` is `hypercore.wing_decompositions(G, ground)`: the wing
    groups `G` keeps, with their hinge totals, which the wing members hold
    in place.  Per color: the class's types, the union of its wings with
    2+ hinges, and each non-loop wing's types; a wing with 2+ hinges lies
    in the union, any other in the class, and that nesting is the forest.
    Single edges need no member: each element's own bounds hold every edge.
    A wing of one type is no member either: the type goes to `solo`.
    """
    h, entries, solo = G.h, [], {}
    for i in range(1, G.k + 1):
        loop, wings = decomps[i]
        top = len(entries)  # the class's entry; its multi-hinge union's is next
        # a loop type of c edges is c one-edge wings of h hinges each, with no member of their own
        whole, total = ([loop], ground[loop][0] * h) if loop else ([], 0)
        big, held = (whole[:], total) if h >= 2 else ([], 0)
        entries += [None, None]
        for j, (w, x) in enumerate(wings):
            whole += w
            total += x
            if x >= 2:
                big += w
                held += x
                if len(w) > 1:
                    entries.append((w, x, ("wing", i, j), top + 1))
                    continue
            solo.update(w)  # a wing of one type
        entries[top] = (whole, total, ("color", i), -1)
        entries[top + 1] = (big, held, ("multiwing", i), top if big else -1)
    return LaminarFamily(ground, entries, solo)


def build_cell_family(G: ColoredMultiHypergraph, ground: dict) -> LaminarFamily:
    """Cell-side family over `ground = G.hinges_at()`: the types of one shape (p, rest).

    Reads the cells and their hinge totals that `G` keeps; each member
    holds its kept cell in place, valid until the next move.  Cells are
    pairwise disjoint, so the family is laminar and flat; its
    bounds keep shape multiplicities on schedule across splits.  A cell
    of one type is no member: the type goes to `solo`.
    """
    cells = G._cells.items()
    entries = [(ts, total, ("cell",) + shape, -1) for shape, (ts, total) in cells if len(ts) > 1]
    solo = {x: None for _, (ts, _) in cells if len(ts) == 1 for x in ts}
    return LaminarFamily(ground, entries, solo)


# -- selection -------------------------------------------------------------


def equalized_select(
    ground: Iterable, famA: LaminarFamily, famB: LaminarFamily, m: int, seed: int = 0
) -> Selection:
    """Choose an amount of every element meeting all floor/ceiling bounds.

    Bounds apply to every element, to every member of both families and
    to the ground total; an element in either family's `solo` is one item
    of size c * p.  Malformed families, for which no selection may
    exist, raise an internal invariant error rather than return a partial
    answer.  The seed rotates the ground before its stable (c, p) sort.
    """
    if m < 1:
        raise ParameterError(f"divisor m must be >= 1, got {m}")
    g = ground if famA.ground is ground is famB.ground else weighted(ground)
    if g is not ground and not famA.ground == g == famB.ground:
        raise ParameterError("families must share the selection ground set")

    # Nodes: A's members, A's root rA, B's members, B's root rB.  Node u
    # owns arc own[u] to its parent up[u]: into an A member, out of a B
    # member, and rB -> rA, the ground arc, for both roots.  Arc k keeps
    # over[k] = flow - floor and slack[k] = ceiling - flow.
    (parentA, innerA), (parentB, innerB) = famA._forest, famB._forest
    rA, rB = len(parentA), len(parentA) + 1 + len(parentB)
    nodeB = [*range(rA + 1, rB + 1)]  # index -1: B's root
    up = [rA if u < 0 else u for u in parentA] + [rB, *map(nodeB.__getitem__, parentB), rA]
    own = [*range(rB), rA]
    order, r = list(g), seed % (len(g) or 1)
    order = sorted(order[r:] + order[:r], key=g.__getitem__)
    items, solo = list(map(g.__getitem__, order)), {*famA.solo, *famB.solo}
    cs = [1 if x in solo else c for x, (c, _) in zip(order, items)]
    ps = [c * p // k for (c, p), k in zip(items, cs)]  # the size of each of k items
    held = [(x, k * (p // m)) for x, k, p in zip(order, cs, ps) if p >= m]
    sizes = [*famA.sizes, sum(map(mul, cs, ps)), *famB.sizes]
    flows = famA.totals(held) + [sum(t for _, t in held)] + famB.totals(held) if held else repeat(0)
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

    # the greedy pass, in order; live element j is arc rB + j
    rises = [p % m for p in ps]
    live = list(compress(order, rises))
    tails = list(map(innerA.get, live, repeat(rA)))
    heads = list(map(nodeB.__getitem__, map(innerB.get, live, repeat(-1))))
    over += repeat(0, len(live))
    slack += compress(cs, rises)
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
    for k in range(rB):  # force each arc into its bounds
        d = max(-over[k], min(slack[k], 0))
        if d:  # the d units added (floors over a ceiling: taken) reach its head, leave its tail
            excess[k if k <= rA else up[k]] += d
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
                    "or do not cover a common ground", witness=(len(g), m))
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

    amounts = dict(held)
    for x, t in compress(zip(live, over[rB:]), over[rB:]):
        amounts[x] = amounts.get(x, 0) + t
    bad = selection_respects_bounds(amounts, g, famA, famB, m)
    if bad is not None:
        raise InternalInvariantError("selection violates a family bound", witness=bad)
    return Selection(amounts, m)
