"""Count-based stages against a hinge-level reference built from explicit edges.

At every split stage the selector chooses an amount t per edge type.
Expanded to hinges (t edges of the type, one hinge each), that choice
must meet every floor/ceiling bound of the hinge-level wing family
(class, multi-hinge union, wing, edge) and cell family, built here from
`G.edges()` with `wing_decomposition` alone.  The class, multi-hinge
union and wing members of the count-level wing family must also hold
the same edge types and hinges as the reference's; a reference wing of
one type is a `solo` element of the same c * p hinges instead.

The graph's split state (its two count dicts, the union-finds, the
cells and the wing groups) is kept across stages, so at every stage its
families must also match those of a graph rebuilt from `G.edges()`
through `add_edge`.
"""

import math
import random
from collections import Counter

import pytest

from conftest import (
    breaks,
    containment_forest,
    fold_singletons,
    kept_forest,
    rebuilt,
    reference_family,
    same_verdict,
    type_key,
)
from hypfactor import (
    Edge,
    HingeRef,
    build_cell_family,
    build_wing_family,
    check_feasibility,
    construct,
    initial_amalgam,
    split_step,
    wing_decomposition,
    wing_decompositions,
)
from hypfactor import detach
from hypfactor.detach import Params
from hypfactor.hypercore import CELL
from hypfactor.laminar import selection_respects_bounds


def _feasible_vectors(n, h, lam):
    S = lam * math.comb(n - 1, h - 1)
    d = h // math.gcd(h, n)
    out = []
    for v in ((S,), (d,) * (S // d), (S - d, d)):
        v = tuple(sorted(v, reverse=True))
        if min(v) >= 1 and v not in out and check_feasibility(Params(n, h, lam, v)).ok:
            out.append(v)
    return out


GRID = [
    (n, h, lam, r)
    for h in (2, 3, 4)
    for n in range(h + 1, 9)
    for lam in (1, 2)
    for r in _feasible_vectors(n, h, lam)
]


def hinge_reference(G):
    """Explicit edges, the hinge ground and both hinge-level families.

    A hinge names its edge by the edge's position in `G.edges()`.
    """
    alpha = G.alpha
    edges = list(G.edges())
    hinges = [
        [HingeRef(x, s) for s in range(1, e.verts.count(alpha) + 1)] for x, e in enumerate(edges)
    ]
    ground = frozenset(x for hs in hinges for x in hs)
    wing_side, cells = [], {}
    for i in range(1, G.k + 1):
        # the class's edges by position; `wing_decomposition` numbers them 0, 1, ...
        at = [x for x, e in enumerate(edges) if e.color == i]
        d = wing_decomposition([edges[x] for x in at], alpha)

        def placed(refs):
            return frozenset(HingeRef(at[ref.edge_id], ref.slot) for ref in refs)

        wing_side.append(([x for e in at for x in hinges[e]], ("color", i)))
        wing_side.append((placed(d.big_hinges), ("multiwing", i)))
        wing_side += [(placed(w.hinges), ("wing", i, j)) for j, w in enumerate(d.wings)]
    for x, e in enumerate(edges):
        if hinges[x]:
            wing_side.append((hinges[x], ("edge", x)))
            rest = tuple(v for v in e.verts if v != alpha)
            cells.setdefault((len(hinges[x]), rest), set()).update(hinges[x])
    cell_side = [(hs, ("cell",) + key) for key, hs in cells.items()]
    return edges, ground, reference_family(ground, wing_side), reference_family(ground, cell_side)


def expand(edges, amounts, alpha):
    """t edges of each type, one hinge each."""
    chosen = []
    for key, t in amounts.items():
        of_type = [x for x, e in enumerate(edges) if type_key(e, alpha) == key]
        assert t <= len(of_type)
        chosen += [HingeRef(x, 1) for x in of_type[:t]]
    return chosen


def wing_family(G):
    """The count-level wing family a split stage builds on `G`."""
    ground = G.hinges_at()
    return build_wing_family(G, ground, wing_decompositions(G))


def cell_family(G):
    return build_cell_family(G, G.hinges_at())


def wing_members(fam, type_of, loops):
    """A wing family seen by edge type.

    Returns {tag: (types, weight)} for every ("color", i) and
    ("multiwing", i) tag, per color the multiset of (types, weight) over
    its non-loop wings of 2+ types, and the set of (type, weight) over
    the non-loop wings of one type and the `solo` elements, each of
    weight c * p; `type_of` maps an element to its edge type, and
    `loops` holds the loop types.
    """
    tagged, wings = {}, {}
    solo = {(x, c * p) for x in fam.solo for c, p in [fam.ground[x]]}
    for (xs, tag), size in zip(fam.members, fam.sizes):
        types = frozenset(map(type_of, xs))
        if tag[0] in ("color", "multiwing"):
            tagged[tag] = (types, size)
        elif tag[0] == "wing" and not types <= loops:
            if len(types) == 1:
                solo.add((*types, size))
            else:
                wings.setdefault(tag[1], Counter())[types, size] += 1
    return tagged, wings, solo


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("spec", GRID, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_has_the_reference_wing_members(spec, seed):
    # the class, multi-hinge union and wings of every color carry the same
    # types and hinges as the hinge-level reference; its wings of one type
    # are the family's `solo` elements, of no wing member
    p = Params(*spec)
    G = initial_amalgam(p)
    loops = {type_key(Edge(i, (G.alpha,) * G.h), G.alpha) for i in range(1, G.k + 1)}
    for ell in range(1, p.n):
        edges, _, ref, _ = hinge_reference(G)
        want = wing_members(ref, lambda x: type_key(edges[x.edge_id], G.alpha), loops)
        fam = wing_family(G)
        assert all(len(mb.elements) > 1 for mb in fam.members if mb.tag[0] == "wing")
        assert wing_members(fam, lambda x: x, loops) == want
        split_step(G, ell, p, seed=seed)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("spec", GRID, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_is_hinge_exact(spec, seed, monkeypatch):
    picks = []
    select = detach.equalized_select

    def recording_select(ground, famA, famB, m, seed=0):
        sel = select(ground, famA, famB, m, seed)
        picks.append(sel.amounts)
        return sel

    monkeypatch.setattr(detach, "equalized_select", recording_select)
    p = Params(*spec)
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        edges, ground, famA, famB = hinge_reference(G)
        split_step(G, ell, p, seed=seed)
        chosen = expand(edges, picks[-1], G.alpha)
        m = p.n - ell + 1
        assert selection_respects_bounds(chosen, ground, famA, famB, m) is None
    assert len(picks) == p.n - 1


@pytest.mark.parametrize("spec", GRID, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_recheck_matches_the_full_walk(spec, monkeypatch):
    # the selector's own arguments at every stage: its selection and its
    # breaks get the verdict of the walk over every element
    rng = random.Random(str(spec))
    kinds = Counter()
    select = detach.equalized_select

    def checking_select(ground, famA, famB, m, seed=0):
        sel = select(ground, famA, famB, m, seed)
        assert same_verdict(sel.amounts, ground, famA, famB, m) is None
        for broken in breaks(rng, sel.amounts, ground, m):
            bad = same_verdict(broken, ground, famA, famB, m)
            kinds[bad and (bad[0] if isinstance(bad[0], str) else "member")] += 1
        return sel

    monkeypatch.setattr(detach, "equalized_select", checking_select)
    p = Params(*spec)
    construct(p, seed=0, check_mode="off")
    assert kinds["stray"] == p.n - 1 and kinds["ground"] >= p.n - 1


def family_shape(fam):
    """{tag: (element set, size, parent tag)} and {element: innermost tag}.

    Keyed by tag, not by element set, so equal sets stay apart.
    """
    parent, innermost = kept_forest(fam)
    tags = [mb.tag for mb in fam.members] + [None]  # index -1: no member
    by_tag = {mb.tag: (frozenset(mb.elements), size, tags[up])
              for mb, size, up in zip(fam.members, fam.sizes, parent)}
    assert len(by_tag) == len(fam.members)  # one member per tag
    return by_tag, {x: tags[i] for x, i in innermost.items()}


def rebuild_shape(fam):
    """`family_shape` without the wings' positions, which depend on the order of the moves.

    A wing's tag ("wing", i, j) holds only its position j among its
    color's groups, so the wings become a multiset of (color, element set,
    size, parent tag), and each element's innermost member its element set.
    """
    by_tag, innermost = family_shape(fam)
    sets = {tag: xs for tag, (xs, _, _) in by_tag.items()}
    wings = Counter((tag[1],) + by_tag.pop(tag) for tag in list(by_tag) if tag[0] == "wing")
    return by_tag, wings, {x: sets.get(tag) for x, tag in innermost.items()}


def assert_matches_rebuild(G):
    R = rebuilt(G)
    assert G.hinges_at() == R.hinges_at()
    for build in (wing_family, cell_family):
        assert rebuild_shape(build(G)) == rebuild_shape(build(R))


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("spec", GRID, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_matches_a_rebuild(spec, seed):
    p = Params(*spec)
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        assert_matches_rebuild(G)
        split_step(G, ell, p, seed=seed)
    assert_matches_rebuild(G)


def generic_wing_family(G, ground, decomps):
    """The wing family as `reference_family` builds it from unordered members.

    Only the wings' types come from `decomps`.  The class members are
    built here from `G.edges()`, the multi-hinge ones from `ground`: a
    loop type's edges are wings of h hinges each, a non-loop wing holds
    the c * p hinges of its types, and a wing with 2+ hinges joins the
    multi-hinge union.
    """
    members = []
    for i in range(1, G.k + 1):
        wings = [frozenset(w[0]) for w in decomps[i][1]]
        whole = {type_key(e, G.alpha) for e in G.edges() if e.color == i and G.alpha in e.verts}
        big = {key for key in whole if ground[key][1] == G.h >= 2}
        big.update(*(w for w in wings if sum(c * p for c, p in map(ground.get, w)) >= 2))
        members.append((whole, ("color", i)))
        members.append((big, ("multiwing", i)))
        members += [(w, ("wing", i, j)) for j, w in enumerate(wings)]
    return reference_family(ground, members)


def generic_cell_family(G, ground):
    """The cell family as `reference_family` builds it, cells keyed by (p, ordinary vertices).

    Each type's shape comes from its explicit edges, not from its key.
    """
    cells = {}
    for e in G.edges():
        rest = tuple(v for v in e.verts if v != G.alpha)
        if len(rest) < G.h:
            cells.setdefault((G.h - len(rest), rest), set()).add(type_key(e, G.alpha))
    return reference_family(ground, [(ts, ("cell",) + k) for k, ts in cells.items()])


def assert_same_family(fam, ref):
    """Per tag its set, size and parent tag, and the innermost tag per type; see `family_shape`.

    The reference's wings and cells of one type, each of c * p hinges,
    must be the family's `solo` elements; see `fold_singletons`.
    """
    for mb in fam.members:
        assert len(set(mb.elements)) == len(mb.elements)  # a member holds no element twice
    ref = fold_singletons(ref, lambda tag: tag[0] in ("wing", "cell"))
    assert family_shape(fam) == family_shape(ref)
    assert len(fam.solo) == len(ref.solo) and set(fam.solo) == set(ref.solo)
    parent, innermost = containment_forest(fam.ground, fam.members)  # the generic laminarity check passes too
    assert (parent, {x: i for x, i in innermost.items() if i >= 0}) == kept_forest(fam)
    assert fam.forest() == (parent, innermost)


# at h = 1 every type is a loop, no class has a multi-hinge member, and
# all colours share the one empty multiwing member
H1 = [(3, 1, 1, (1,)), (5, 1, 2, (1, 1)), (6, 1, 3, (2, 1))]


@pytest.mark.parametrize("spec", GRID + H1, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_keeps_no_edge_and_lists_the_edges_of_a_rebuild(spec):
    # a record ends at its cell: `edges()` builds each type's `Edge` when
    # called, and lists the edges a graph rebuilt from them lists
    p = Params(*spec)
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        split_step(G, ell, p, seed=ell)
        assert all(len(r) == CELL + 1 for r in G._live.values())
        assert Counter(G.edges()) == Counter(rebuilt(G).edges())


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("spec", GRID + H1, ids=lambda s: f"n{s[0]}h{s[1]}l{s[2]}k{len(s[3])}")
def test_every_stage_builds_the_generic_families(spec, seed):
    p = Params(*spec)
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        ground = G.hinges_at()
        decomps = wing_decompositions(G)
        assert_same_family(build_wing_family(G, ground, decomps), generic_wing_family(G, ground, decomps))
        assert_same_family(build_cell_family(G, ground), generic_cell_family(G, ground))
        split_step(G, ell, p, seed=seed)
