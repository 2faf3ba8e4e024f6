"""Shared helpers: the reference family builder, random laminar instances, perturbations."""

import gc
import random
from typing import Mapping, NamedTuple, Sequence

import pytest

from hypfactor import ColoredMultiHypergraph, InternalInvariantError, LaminarFamily, construct
from hypfactor.detach import Factorization, Params
from hypfactor.laminar import Member, bounds_for, selection_respects_bounds

OUTSIDE = [(), 0, -1, False]  # the group of an element in no member


@pytest.fixture()
def collector(request):
    """The cyclic collector, off unless parametrized True, emptied first and restored after the test."""
    enabled, on = gc.isenabled(), getattr(request, "param", False)
    (gc.enable if on else gc.disable)()
    gc.collect()
    yield on
    (gc.enable if enabled else gc.disable)()


def weighted(ground) -> dict:
    """`ground` as {element: (c, p)}, c items of size p; unit items for a plain iterable."""
    return dict(ground) if isinstance(ground, Mapping) else dict.fromkeys(ground, (1, 1))


def plain_family(ground, entries, solo=()) -> LaminarFamily:
    """A family over the caller's `ground` object, its records built from `entries`.

    Each entry is (elements, size, tag, parent).  `ground` is
    {element: (c, p)} or a plain iterable of unit elements.  The
    last entry holding an element is its innermost member, whose group the
    element's record holds; `solo` names the solo elements, each of which
    gets a group of its own inside that member.  The family's entries keep
    (size, tag, parent), so its members are read off those records alone.
    Nothing is checked.
    """
    held = {}
    for i, (xs, size, _, _) in enumerate(entries):
        held.update(dict.fromkeys(xs, [xs, size, i, False]))
    inner = {}
    for x, (c, p) in weighted(ground).items():
        group = held.get(x, OUTSIDE)
        inner[x] = (c, p, (c, p), [(x,), c * p, group[2], True] if x in solo else group)
    return LaminarFamily(ground, [entry[1:] for entry in entries], inner, 3)


def containment_forest(ground: Mapping, members: Sequence[Member]) -> tuple[list[int], dict]:
    """Parent index per member (-1: a root) and innermost member index per ground element (-1: none).

    One pass over members listed parents first: every element of a set
    must sit in one and the same innermost set, its parent, or this raises,
    as it does for an element outside the ground.  Equal sets chain.
    """
    innermost: dict = dict.fromkeys(ground, -1)
    parent = []
    for idx, mb in enumerate(members):
        try:
            seen = {innermost[x] for x in mb.elements}
        except KeyError as exc:
            x = exc.args[0]
            raise InternalInvariantError(
                f"member {idx} contains {x!r} outside the ground set", witness=(mb.tag, x)) from None
        if len(seen) > 1:
            bad = sorted(seen)
            raise InternalInvariantError(
                f"family is not laminar: member {idx} straddles {bad}", witness=(mb.tag, bad))
        parent.append(seen.pop() if seen else -1)
        innermost.update(dict.fromkeys(mb.elements, idx))
    return parent, innermost


def reference_family(ground, members) -> LaminarFamily:
    """A family of (elements, tag) `members`, in any order, checked before it is built.

    The validating builder that the stage builders are compared with.
    The pairs are sorted by (-len, sorted elements), which puts parents
    first, does not depend on the caller's order for distinct sets, and
    keeps equal sets in the caller's order, so they chain.
    `containment_forest` raises on a set that straddles another or leaves
    the ground; otherwise each pair becomes one entry with its size and parent.
    """
    g = weighted(ground)
    pairs = sorted(((frozenset(xs), tag) for xs, tag in members),
                   key=lambda m: (-len(m[0]), sorted(m[0])))
    parent, _ = containment_forest(g, [Member(*m) for m in pairs])
    return plain_family(ground, [
        (s, sum(c * p for c, p in map(g.__getitem__, s)), tag, up)
        for (s, tag), up in zip(pairs, parent)
    ])


def kept_forest(fam) -> tuple:
    """`fam`'s parents and each member element's innermost member index, as its records hold them."""
    at = fam.at
    return fam.parents, {x: r[at][2] for x, r in fam.inner.items() if r[at][2] >= 0}


def fold_singletons(fam, folds=lambda tag: True) -> LaminarFamily:
    """`fam` with each one-element member whose tag `folds` moved to `solo`.

    Such a member must weigh its element's c * p; it is a leaf, unless a
    later equal member folds too, so every kept member keeps its parent.
    """
    parent, _ = kept_forest(fam)
    entries, solo, at = [], dict.fromkeys(fam.solo), {-1: -1}
    for i, (mb, size, up) in enumerate(zip(fam.members, fam.sizes, parent)):
        if len(mb.elements) == 1 and folds(mb.tag):
            (x,) = mb.elements
            c, p = fam.inner[x][:2]
            assert size == c * p, (mb.tag, size, c * p)
            solo[x] = None
        else:
            at[i] = len(entries)
            entries.append((mb.elements, size, mb.tag, at[up]))
    return plain_family(fam.ground, entries, solo)


def reference_respects_bounds(chosen, ground, famA, famB, m):
    """The re-check that walks every element of the ground, in ground order.

    The reference for `selection_respects_bounds`: strays, the ground
    total, every element (those left out take 0), then every member.
    """
    amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
    g = weighted(ground)
    for x in amounts:
        if x not in g:
            return ("stray", x)
    lo, hi = bounds_for(sum(c * p for c, p in g.values()), m)
    got = sum(amounts.values())
    if not lo <= got <= hi:
        return ("ground", got, lo, hi)
    for x in g:
        lo, hi = element_bounds(x, g, famA, famB, m)
        got = amounts.get(x, 0)
        if not lo <= got <= hi:
            return ("element", x, got, lo, hi)
    for fam in (famA, famB):
        for mb, size, got in zip(fam.members, fam.sizes, fam.totals(amounts.items())):
            lo, hi = bounds_for(size, m)
            if not lo <= got <= hi:
                return (mb.tag, got, lo, hi)
    return None


def element_bounds(x, g, famA, famB, m):
    """Bounds on element x of {element: (c, p)} `g`: c items of size p, or one of c * p if solo."""
    c, p = g[x]
    if x in famA.solo or x in famB.solo:
        return bounds_for(c * p, m)
    lo, hi = bounds_for(p, m)
    return c * lo, c * hi


def same_verdict(chosen, ground, famA, famB, m):
    """`selection_respects_bounds` against the reference walk; returns the verdict.

    The verdicts must be equal, except that two element witnesses may
    name different elements: each must name a failing one, with its
    amount and bounds.
    """
    got = selection_respects_bounds(chosen, ground, famA, famB, m)
    want = reference_respects_bounds(chosen, ground, famA, famB, m)
    if got and want and got[0] == want[0] == "element":
        amounts = chosen if isinstance(chosen, Mapping) else dict.fromkeys(chosen, 1)
        g = weighted(ground)
        for _, x, t, lo, hi in (got, want):
            assert t == amounts.get(x, 0) and (lo, hi) == element_bounds(x, g, famA, famB, m)
            assert not lo <= t <= hi
    else:
        assert got == want
    return want


def breaks(rng, amounts, ground, m):
    """Broken copies of `amounts`.

    One unit more or less on a random element, and the same with that unit
    taken from or given to a second element; a chosen floored element
    (c * p >= m) dropped, and the same with its amount given to the second
    element; a stray added.
    """
    g = weighted(ground)
    x, y = rng.choice(list(g)), rng.choice(list(g))
    d = rng.choice((-1, 1))
    out = [{**amounts, x: amounts.get(x, 0) + d}]
    out.append({**out[0], y: out[0].get(y, 0) - d})
    floored = [x for x in amounts if g[x][0] * g[x][1] >= m]
    if floored:
        x = rng.choice(floored)
        out.append({z: t for z, t in amounts.items() if z != x})
        if y != x:
            out.append({**out[-1], y: amounts.get(y, 0) + amounts[x]})
    return out + [{**amounts, "stray": 1}]


def type_key(e, alpha):
    """The graph's key of `Edge` e's type: (color, ordinary vertices, amalgam multiplicity p)."""
    rest = tuple(v for v in e.verts if v != alpha)
    return e.color, rest, len(e.verts) - len(rest)


def rebuilt(G):
    """A fresh graph holding `G`'s explicit edges, added one by one."""
    R = ColoredMultiHypergraph(G.vertices, G.alpha, G.h, G.k)
    for e in G.edges():
        R.add_edge(e.verts, e.color)
    return R


def _random_blocks(rng: random.Random, items: list) -> list:
    """Split `items` into consecutive nonempty blocks at random."""
    pool = items[:]
    rng.shuffle(pool)
    blocks = []
    i = 0
    while i < len(pool):
        j = i + rng.randrange(1, len(pool) - i + 1)
        blocks.append(pool[i:j])
        i = j
    return blocks


def _random_laminar_sets(rng: random.Random, items: list, depth: int) -> list:
    out = []
    if depth == 0 or len(items) <= 1:
        return out
    for block in _random_blocks(rng, items):
        if len(block) == len(items):
            continue
        if rng.random() < 0.7:
            out.append(frozenset(block))
        out.extend(_random_laminar_sets(rng, block, depth - 1))
    return out


def random_laminar_sets(rng: random.Random, items: list) -> list:
    """Random distinct laminar sets over `items`, possibly including all of them."""
    sets = _random_laminar_sets(rng, items, depth=rng.randrange(1, 4))
    if rng.random() < 0.5:
        sets.append(frozenset(items))
    return sets


def random_laminar_family(rng: random.Random, ground) -> LaminarFamily:
    """A random laminar family over `ground`, possibly including it."""
    sets = random_laminar_sets(rng, sorted(ground))
    return reference_family(ground, [(s, ("set", i)) for i, s in enumerate(sets)])


def random_laminar_pair(rng: random.Random, ground_size: int):
    """Two independent random laminar families over a fresh integer ground."""
    ground = frozenset(range(ground_size))
    return ground, random_laminar_family(rng, ground), random_laminar_family(rng, ground)


# -- perturbation fixtures ---------------------------------------------------
#
# Five corruptions of valid factorizations, each with the exact expected
# status of every final check.  Shapes, cover, regularity, and
# connectivity each admit a corruption failing only themselves.  The
# degree-sum check does not: it reads only the declared fields, and any
# field edit that breaks it necessarily breaks cover (lambda edits) or
# regularity (r edits), so its fixture documents that forced collateral.


def cycle_order(factor) -> list:
    """Vertex order around a single cycle given as pair edges."""
    adj: dict = {}
    for a, b in factor:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    order = [min(adj)]
    prev = None
    while len(order) < len(adj):
        nxt = [x for x in adj[order[-1]] if x != prev][0]
        prev = order[-1]
        order.append(nxt)
    return order


def _editable(f: Factorization) -> list:
    return [[tuple(e) for e in factor] for factor in f.factors]


def _pack(f: Factorization, factors) -> Factorization:
    return Factorization(f.n, f.h, f.lam, f.r, tuple(tuple(x) for x in factors))


def _hexagon_base() -> Factorization:
    # two Hamiltonian hexagons plus a perfect matching covering K_6
    f1 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    f2 = [(1, 3), (3, 5), (2, 5), (2, 6), (4, 6), (1, 4)]
    f3 = [(1, 5), (2, 4), (3, 6)]
    return Factorization.canonical(6, 2, 1, (2, 2, 1), [f1, f2, f3])


def perturbation_fixtures() -> list:
    """(name, corrupted Factorization, expected status per check)."""
    base = construct(Params(5, 2, 1, (2, 2)), seed=0, check_mode="final")
    out = []

    # repeat a vertex inside one edge: only the shape check may fail, and
    # the gate keeps the now-meaningless counting checks out of the way
    fs = _editable(base)
    v = fs[0][0][0]
    fs[0][0] = (v, v)
    out.append(
        (
            "edge-shapes",
            _pack(base, fs),
            {
                "edge-shapes": "fail",
                "cover-multiplicity": "skipped",
                "regularity": "skipped",
                "connectivity": "pass",
                "degree-sum": "pass",
            },
        )
    )

    # degree-preserving rewiring inside one factor: two cycle edges
    # (w1,w2), (w3,w4) become the chords (w1,w3), (w2,w4), leaving every
    # degree intact and the factor a (different) cycle, but putting two
    # subsets at count 0 and two at count 2
    fs = _editable(base)
    w = cycle_order(fs[0])
    fs[0].remove(tuple(sorted((w[0], w[1]))))
    fs[0].remove(tuple(sorted((w[2], w[3]))))
    fs[0] += [tuple(sorted((w[0], w[2]))), tuple(sorted((w[1], w[3])))]
    out.append(
        (
            "cover-multiplicity",
            _pack(base, fs),
            {
                "edge-shapes": "pass",
                "cover-multiplicity": "fail",
                "regularity": "pass",
                "connectivity": "pass",
                "degree-sum": "pass",
            },
        )
    )

    # move one edge to the other factor: the global edge multiset is
    # untouched, a cycle minus an edge stays connected, a cycle plus a
    # chord stays connected, so only regularity can object
    fs = _editable(base)
    moved = fs[0].pop(0)
    fs[1].append(moved)
    out.append(
        (
            "regularity",
            _pack(base, fs),
            {
                "edge-shapes": "pass",
                "cover-multiplicity": "pass",
                "regularity": "fail",
                "connectivity": "pass",
                "degree-sum": "pass",
            },
        )
    )

    # swap two matching edges for two hexagon edges: the hexagon falls
    # into two triangles (still 2-regular), the matching stays 1-regular,
    # the union is untouched, so only connectivity can object
    hx = _hexagon_base()
    fs = _editable(hx)
    for e in [(2, 5), (1, 4)]:
        fs[1].remove(e)
    fs[1] += [(1, 5), (2, 4)]
    for e in [(1, 5), (2, 4)]:
        fs[2].remove(e)
    fs[2] += [(2, 5), (1, 4)]
    out.append(
        (
            "connectivity",
            _pack(hx, fs),
            {
                "edge-shapes": "pass",
                "cover-multiplicity": "pass",
                "regularity": "pass",
                "connectivity": "fail",
                "degree-sum": "pass",
            },
        )
    )

    # raise a declared degree: the sum check fails, and the factor built
    # for the old degree necessarily fails regularity alongside (no
    # single edit can break the sum check alone, since it reads only the
    # declared fields and every field edit that moves it also moves a
    # counting check)
    bumped = Factorization(hx.n, hx.h, hx.lam, (3, 2, 1), hx.factors)
    out.append(
        (
            "degree-sum",
            bumped,
            {
                "edge-shapes": "pass",
                "cover-multiplicity": "pass",
                "regularity": "fail",
                "connectivity": "pass",
                "degree-sum": "fail",
            },
        )
    )
    return out


# -- split-connectivity oracle helpers (shared by wing and acceptance tests)


BETA = -1


def detached_is_connected(edges, alpha, A):
    """Direct oracle: move hinge set A to a fresh vertex, test connectivity.

    A hinge names its edge by the edge's position in `edges`.  The fresh
    vertex exists whether or not it receives hinges, mirroring the split
    step which always creates it.
    """
    from hypfactor import is_connected

    chosen = set(A)
    new_edges = []
    verts = {alpha, BETA}
    for i, e in enumerate(edges):
        take = sum(1 for ref in chosen if ref.edge_id == i)
        p = e.verts.count(alpha)
        vs = [v for v in e.verts if v != alpha]
        vs.extend([BETA] * take)
        vs.extend([alpha] * (p - take))
        new_edges.append(vs)
        verts.update(vs)
    return is_connected(verts, new_edges)


class ClassEdge(NamedTuple):
    """An explicit edge of a random class; `id` is its position in the class."""

    id: int
    verts: tuple
    color: int


def random_connected_class(rng, n_verts, n_edges, h):
    """A connected color class touching the amalgam, by construction."""
    from hypfactor import is_connected

    alpha = 0
    verts = list(range(1, n_verts + 1))
    edges = []
    reached = {alpha}
    for eid in range(n_edges):
        base = [rng.choice(sorted(reached))]
        pool = [alpha] + verts
        base += [rng.choice(pool) for _ in range(h - 1)]
        if eid < 2 and alpha not in base:
            base[-1] = alpha
        edges.append(ClassEdge(eid, tuple(sorted(base)), 1))
        reached.update(base)
    if not is_connected(reached, [e.verts for e in edges]):
        return None
    if not any(alpha in e.verts for e in edges):
        return None
    return edges
