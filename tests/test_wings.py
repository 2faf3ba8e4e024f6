"""Tests for wing decompositions and the split connectivity criterion."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from hypfactor import (
    HingeRef,
    binom,
    build_wing_family,
    initial_amalgam,
    is_connected,
    split_is_connected,
    wing_decomposition,
    wing_decompositions,
)
from hypfactor.detach import Params, split_step
from hypfactor.hypercore import Edge, UnionFind
from hypfactor.wings import joins

from conftest import detached_is_connected as _detached_is_connected
from conftest import random_connected_class as _random_connected_class


def _member(fam, tag):
    """The elements of the wing-family member carrying `tag`."""
    return next(mb.elements for mb in fam.members if mb.tag == tag)


def _size(fam, tag):
    """The size of the wing-family entry carrying `tag`."""
    return next(size for size, t, _ in fam.entries if t == tag)


def _big_hinges(fam, i, ground):
    """Hinges in the multi-hinge wings of class i: c * p summed over its multiwing member."""
    return sum(ground[x][0] * ground[x][1] for x in _member(fam, ("multiwing", i)))


# -- is_connected -----------------------------------------------------------


def test_single_loop_is_connected():
    assert is_connected([0], [(0, 0, 0)])


def test_two_disjoint_edges_are_not_connected():
    assert not is_connected([1, 2, 3, 4], [(1, 2), (3, 4)])


def test_cycle_is_connected():
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    assert is_connected(range(1, 6), edges)


def test_isolated_declared_vertex_breaks_connectivity():
    assert not is_connected([1, 2, 3], [(1, 2)])


def test_single_vertex_no_edges_is_connected():
    assert is_connected([7], [])


def test_joins_agrees_with_a_union_find_reference():
    # the inline unions count the joins a UnionFind makes, and stop at
    # `need`: edges of size 1 to 4 with repeated vertices, empty edges,
    # need <= 0 and need above the number of vertices
    rng = random.Random("joins-reference")
    for _ in range(3000):
        size = rng.randint(1, 12)
        edges = [rng.choices(range(size), k=rng.choice((1, rng.randint(0, 4))))
                 for _ in range(rng.randrange(12))]
        dsu = UnionFind()
        made = sum(dsu.union(e[0], v) for e in edges for v in e[1:])
        for need in (-1, 0, made - 1, made, made + 1, size + 1):
            assert joins(edges, need) == (made >= need), (edges, need)
    assert joins([], 0) and not joins([], 1) and not joins([(5,)] * 3, 1)


# -- wing structure ---------------------------------------------------------


def test_single_edge_forms_one_small_wing():
    e = Edge(1, (1, 2, 5))
    d = wing_decomposition([e], alpha=5)
    assert len(d.wings) == 1
    w = d.wings[0]
    assert w.hinges == frozenset([HingeRef(0, 1)])
    assert w.d_alpha == 1
    assert d.big_hinges == frozenset()
    assert d.delta == 0


def test_each_loop_is_its_own_wing():
    loops = [Edge(1, (9, 9, 9))] * 4
    d = wing_decomposition(loops, alpha=9)
    assert len(d.wings) == 4
    assert all(w.d_alpha == 3 for w in d.wings)
    assert d.delta == 12


def test_mixed_class_wing_decomposition():
    # loop wing (3 hinges), a two-edge wing glued at vertex 2 (2 hinges),
    # and a lone edge wing (1 hinge)
    alpha = 9
    edges = [
        Edge(1, (alpha, alpha, alpha)),
        Edge(1, (1, 2, alpha)),
        Edge(1, (2, 3, alpha)),
        Edge(1, (4, 5, alpha)),
    ]
    d = wing_decomposition(edges, alpha)
    assert len(d.wings) == 3
    by_min_edge = {min(w.edge_ids): w for w in d.wings}
    assert by_min_edge[0].d_alpha == 3
    assert by_min_edge[1].d_alpha == 2
    assert by_min_edge[1].edge_ids == frozenset([1, 2])
    assert by_min_edge[1].vertex_set == frozenset([1, 2, 3, alpha])
    assert by_min_edge[3].d_alpha == 1
    # hinges of the loop wing and the double wing are the big ones
    assert d.delta == 5


def test_wings_partition_amalgam_hinges():
    # per class, the family's class and multi-wing members, read off the
    # records, are the sets of types their definitions give and their
    # entries weigh those types' hinges; the loop group holds the loop
    # type's hinges, and the loop type and the wings partition the class's
    # amalgam-incident types, one wing per union-find component
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    for ell in (1, 2):
        split_step(G, ell, p, seed=4)
    ground = G.hinges_at()
    decomps = wing_decompositions(G)
    fam = build_wing_family(G, ground, decomps)

    def hinges(types):
        return sum(c * q for c, q in map(ground.get, types))

    for i in range(1, p.k + 1):
        loop, wings = decomps[i]
        assert loop[0] is None  # the loop group lists no types
        cls, multi = _member(fam, ("color", i)), _member(fam, ("multiwing", i))
        loops = {key for key in cls if ground[key][1] == G.h}
        assert loops == ({(i, (), G.h)} if (i, (), G.h) in ground else set())
        assert loop[1] == hinges(loops)
        seen = set(loops)
        for w in wings:
            assert not (seen & set(w[0])) and w[1] == hinges(w[0])
            seen |= set(w[0])
            assert len({G._uf[i].find(key[1][0]) for key in w[0]}) == 1
        assert len(cls) == len(seen) == len(set(cls))
        assert seen == set(cls) == {key for key in ground if key[0] == i}
        assert _size(fam, ("color", i)) == hinges(cls)
        assert set(multi) == loops.union(*(w[0] for w in wings if w[1] >= 2))
        assert _size(fam, ("multiwing", i)) == hinges(multi)
        cls = [e for e in G.edges() if e.color == i]
        assert _big_hinges(fam, i, ground) == wing_decomposition(cls, G.alpha).delta


def test_base_amalgam_delta_is_class_degree():
    # every loop carries h >= 2 hinges, so delta equals r_i * n
    G = initial_amalgam(Params(5, 3, 1, (3, 3)))
    ground = G.hinges_at()
    fam = build_wing_family(G, ground, wing_decompositions(G))
    assert _big_hinges(fam, 1, ground) == 3 * 5
    assert _big_hinges(fam, 2, ground) == 3 * 5


# -- split connectivity criterion -------------------------------------------


def test_split_empty_selection_disconnects():
    e = Edge(1, (9, 9, 9))
    d = wing_decomposition([e], alpha=9)
    assert not split_is_connected(d, [])
    assert not _detached_is_connected([e], 9, [])


def test_split_whole_wing_disconnects():
    e = Edge(1, (9, 9, 9))
    d = wing_decomposition([e], alpha=9)
    all_hinges = [HingeRef(0, 1), HingeRef(0, 2), HingeRef(0, 3)]
    assert not split_is_connected(d, all_hinges)
    assert not _detached_is_connected([e], 9, all_hinges)


def test_split_proper_part_of_loop_stays_connected():
    # taking one of the three loop hinges leaves an edge joining both sides
    e = Edge(1, (9, 9, 9))
    d = wing_decomposition([e], alpha=9)
    assert split_is_connected(d, [HingeRef(0, 1)])
    assert _detached_is_connected([e], 9, [HingeRef(0, 1)])


def test_split_needs_a_straddled_big_wing():
    # two single-hinge wings: every selection grabs whole wings, so the
    # split always disconnects
    edges = [Edge(1, (1, 2, 9)), Edge(1, (3, 4, 9))]
    d = wing_decomposition(edges, alpha=9)
    for refs in ([HingeRef(0, 1)], [HingeRef(1, 1)], [HingeRef(0, 1), HingeRef(1, 1)]):
        assert not split_is_connected(d, refs)
        assert not _detached_is_connected(edges, 9, refs)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_split_criterion_matches_detachment_oracle(seed):
    rng = random.Random(seed)
    edges = _random_connected_class(rng, n_verts=4, n_edges=4, h=3)
    if edges is None:
        return
    alpha = 0
    d = wing_decomposition(edges, alpha)
    ground = [
        HingeRef(i, s)
        for i, e in enumerate(edges)
        for s in range(1, e.verts.count(alpha) + 1)
    ]
    # a handful of random subsets plus all singletons and the extremes
    subsets = [frozenset(), frozenset(ground)]
    subsets += [frozenset([ref]) for ref in ground]
    for _ in range(10):
        size = rng.randrange(len(ground) + 1)
        subsets.append(frozenset(rng.sample(ground, size)))
    for A in subsets:
        assert split_is_connected(d, A) == _detached_is_connected(edges, alpha, A)


def test_wing_count_one_when_alpha_not_cut():
    # a class connected after deleting the amalgam has exactly one wing
    alpha = 9
    edges = [
        Edge(1, (1, 2, alpha)),
        Edge(1, (2, 3, alpha)),
        Edge(1, (3, 4, alpha)),
    ]
    d = wing_decomposition(edges, alpha)
    assert len(d.wings) == 1
    assert d.wings[0].d_alpha == 3
    assert d.delta == 3


def test_loop_hinge_count_matches_subsets():
    # derived check: for the single 3-loop, exactly the 6 proper nonempty
    # subsets of its hinges keep the split connected
    e = Edge(1, (9, 9, 9))
    d = wing_decomposition([e], alpha=9)
    ground = [HingeRef(0, s) for s in (1, 2, 3)]
    good = 0
    for size in range(4):
        for combo in combinations(ground, size):
            if split_is_connected(d, combo):
                good += 1
                assert 0 < size < 3
    assert good == 6
