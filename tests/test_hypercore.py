"""Tests for the edge-colored multi-hypergraph container."""

import gc
import random
import weakref
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebuilt, type_key
from hypfactor import (
    ColoredMultiHypergraph,
    Edge,
    InvalidHingeError,
    ParameterError,
    binom,
    initial_amalgam,
    split_step,
)
from hypfactor.detach import Params
from hypfactor.hypercore import C, CELL, KEY, P, WING, wing_decompositions
from hypfactor.laminar import build_cell_family, build_wing_family


def _degree(G, u, color=None):
    """Occurrences of `u` over the explicit edges, or over one color class."""
    return sum(e.verts.count(u) for e in G.edges() if color in (None, e.color))


def _color_class(G, color):
    return [e for e in G.edges() if e.color == color]


def _edge_count(G):
    return len(list(G.edges()))


def _multiplicity(G, p, U):
    """Edges, over all colors, whose multiset is exactly {alpha^p} + U."""
    verts = tuple(sorted((G.alpha,) * p + tuple(U)))
    return sum(e.verts == verts for e in G.edges())


def _cell_types(G):
    """Each kept cell's types by shape, read off the records whose cell slot is that group.

    Checks that every record names a kept cell and that each cell's count
    is the number of records naming it, at least 1.
    """
    types = {id(cell): set() for cell in G._cells.values()}
    for x, r in G._live.items():
        types[id(r[CELL])].add(x)
    for cell in G._cells.values():
        assert cell[0] == len(types[id(cell)]) >= 1
    return {shape: frozenset(types[id(cell)]) for shape, cell in G._cells.items()}


def _kept(G):
    """Everything the graph keeps for a stage, in terms a rebuild must match.

    The cells by shape, their types read off the records, and per color the
    multiset of wing groups, each as (types, hinges); per color the class
    and multi-wing sizes and types, as the entries and members of a wing
    family built afresh; per side (wing, cell) each type's innermost member
    and the solo types, read off families built afresh and named by their
    members.  Also
    checks that every wing group sits at the union-find root of its types'
    ordinary vertices, so roots that a rebuild picks differently still
    compare equal, that each record holds its type's count, p and sort
    key, its cell `_cells[p, rest]` and its wing: the group at the root of
    rest, or for a loop its color's loop group; and that every kept group's
    total (cell, wing and loop) is Σ c·p over the records that name it, so
    a loop group holds its loop type's c·h, or 0.
    """
    for i, wings in G._wings.items():
        for root, (types, _, _, _) in wings.items():
            assert {G._uf[i].find(v) for _, rest, _ in types for v in rest} == {root}
    for (i, rest, p), r in G._live.items():
        assert r[C] >= 1 and r[P] == p == G.h - len(rest) and len(r) == CELL + 1
        assert r[KEY] == r[C] * (G.h + 1) + p
        assert r[CELL] is G._cells[p, rest]
        assert r[WING] is (G._wings[i][G._uf[i].find(rest[0])] if rest else G._loops[i])
    named = Counter()
    for r in G._live.values():
        named[id(r[CELL])] += r[C] * r[P]
        named[id(r[WING])] += r[C] * r[P]
    for group in chain(G._cells.values(), *(ws.values() for ws in G._wings.values()), G._loops.values()):
        assert group[1] == named[id(group)]
    for i, loop in G._loops.items():
        x = (i, (), G.h)
        assert loop[1] == (G._live[x][C] * G.h if x in G._live else 0)
    cells = {shape: (ts, G._cells[shape][1]) for shape, ts in _cell_types(G).items()}
    wings = {i: Counter((frozenset(ts), x) for ts, x, _, _ in ws.values()) for i, ws in G._wings.items()}
    ground, inner, solo = G.hinges_at(), [], []
    wing_side = build_wing_family(G, ground, wing_decompositions(G))
    for fam in (wing_side, build_cell_family(G, ground)):
        name = [("wing", frozenset(xs)) if tag[0] == "wing" else ("cell", tag[1:]) if tag[0] == "cell" else tag
                for xs, tag in fam.members] + [None]  # index -1: no member
        inner.append({x: name[r[fam.at][2]] for x, r in G._live.items()})
        solo.append(set(fam.solo))
    types = {tag: frozenset(xs) for xs, tag in wing_side.members}
    sizes = {tag: size for size, tag, _ in wing_side.entries}
    tops = {i: (sizes[("color", i)], types[("color", i)], sizes[("multiwing", i)], types[("multiwing", i)])
            for i in G._loops}
    return cells, wings, tops, inner, solo


def _records(G):
    """Each record's identity and fields, its groups by identity: equal iff no record changed."""
    return {x: (id(r), *(v if type(v) is not list else id(v) for v in r)) for x, r in G._live.items()}


def _defined(G):
    """`_kept(G)`'s totals, innermost members and solo types, from their definitions.

    The class holds a color's types, the multi-wing union its loop (at
    h >= 2) and the types of its wings with 2+ hinges.  A type's innermost
    member is its cell or wing if that holds 2+ types; else no cell
    member, and the union or the class by its wing's hinges (a loop's is
    the union at h >= 2).  A cell or wing of one type makes that type solo.
    """
    live, tops, inner, solo = G.hinges_at(), {}, [{}, {}], [set(), set()]
    cells = _cell_types(G)
    for i in G._loops:
        wings = G._wings[i].values()
        loop = [x for x in live if x[:2] == (i, ()) and G.h > 1]
        big = [w for w in wings if w[1] >= 2]
        tops[i] = (sum(c * p for (j, _, _), (c, p) in live.items() if j == i),
                   frozenset(x for x in live if x[0] == i),
                   sum(live[x][0] * G.h for x in loop) + sum(w[1] for w in big),
                   frozenset(loop).union(*(w[0] for w in big)))
    for x in live:
        i, rest, p = x
        cell = cells[p, rest]
        inner[1][x] = ("cell", (p, rest)) if len(cell) > 1 else None
        if len(cell) == 1:
            solo[1].add(x)
        if not rest:
            inner[0][x] = ("multiwing" if G.h > 1 else "color", i)
            continue
        w = G._wings[i][G._uf[i].find(rest[0])]
        inner[0][x] = ("wing", frozenset(w[0])) if len(w[0]) > 1 else ("multiwing" if w[1] >= 2 else "color", i)
        if len(w[0]) == 1:
            solo[0].add(x)
    return tops, inner, solo


def test_binom_small_values():
    assert binom(5, 3) == 10
    assert binom(4, 0) == 1
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1


def test_binom_rejects_negative_n():
    with pytest.raises(ParameterError):
        binom(-1, 0)


def test_binom_out_of_range_k_is_zero():
    assert binom(6, -2) == 0
    assert binom(2, 7) == 0


# -- base amalgam bookkeeping -----------------------------------------------


@pytest.fixture
def amalgam_533():
    # n=5, h=3, lam=1, two 3-regular classes
    return initial_amalgam(Params(5, 3, 1, (3, 3)))


def test_amalgam_loop_count(amalgam_533):
    G = amalgam_533
    assert _edge_count(G) == binom(5, 3)
    assert all(e.verts == (G.alpha,) * 3 for e in G.edges())


def test_amalgam_degree_per_color(amalgam_533):
    # each class contributes r_i * n occurrences of the amalgam
    G = amalgam_533
    assert _degree(G, G.alpha, 1) == 3 * 5
    assert _degree(G, G.alpha, 2) == 3 * 5
    assert _degree(G, G.alpha) == 30


def test_amalgam_hinge_count(amalgam_533):
    # h occurrences per loop, lam * C(n, h) loops, held by one type per color
    G = amalgam_533
    ground = G.hinges_at()
    assert sum(c * p for c, p in ground.values()) == 3 * binom(5, 3)
    assert ground == {type_key(Edge(i, (5, 5, 5)), 5): (5, 3) for i in (1, 2)}


def test_amalgam_loop_multiplicity(amalgam_533):
    G = amalgam_533
    assert _multiplicity(G, 3, ()) == binom(5, 3)


def test_hinges_at_lists_types_with_counts():
    # edges of one color and one multiset share a type, keyed by
    # (color, ordinary vertices, p); p counts the amalgam inside the
    # type, and types without it are left out
    G = ColoredMultiHypergraph([0, 1, 2], alpha=0, h=3, k=2)
    for verts, color in [((0, 0, 1), 1), ((1, 0, 0), 1), ((0, 0, 1), 2), ((1, 2, 2), 1)]:
        G.add_edge(verts, color)
    assert G.hinges_at() == {(1, (1,), 2): (2, 2), (2, (1,), 2): (1, 2)}
    assert _edge_count(G) == 4


def test_edges_repeat_each_type_count_times():
    # the finished types, then the amalgam-incident ones, each in the
    # order it gained its count, `count` times, as one `Edge` record that
    # equals the plain (color, verts) tuple; verts come back sorted, so
    # the amalgam, the least label here, goes before the ordinary vertices
    G = ColoredMultiHypergraph([0, 1, 2], alpha=0, h=2, k=2)
    G.add_edge((2, 1), 2, mult=2)
    G.add_edge((1, 0), 1)
    G.add_edge((1, 2), 2)
    G.add_edge((2, 2), 1)
    G.add_edge((0, 0), 2)
    edges = list(G.edges())
    assert edges == [(2, (1, 2))] * 3 + [(1, (2, 2)), (1, (0, 1)), (2, (0, 0))]
    assert all(type(e) is Edge for e in edges)
    assert [(e.color, e.verts) for e in edges] == edges
    assert edges[0] is edges[2]  # one record per type


def test_edges_are_the_edges_edge_make_builds():
    # finished and amalgam-incident types alike come back as `Edge`s equal
    # to what `Edge._make` builds from their keys, each `count` times
    p = Params(7, 3, 1, (3, 3, 3, 3, 3))
    G = initial_amalgam(p)
    for ell in range(1, p.n):
        split_step(G, ell, p, seed=ell)
        want = [Edge._make((color, rest)) for (color, rest, _), c in G._done.items() for _ in range(c)]
        want += [Edge._make((color, tuple(sorted(rest + (G.alpha,) * q))))
                 for (color, rest, q), r in G._live.items() for _ in range(r[C])]
        edges = list(G.edges())
        assert edges == want and all(type(e) is Edge for e in edges)
    assert len(edges) == binom(7, 3) and G._done and G._live  # the amalgam is vertex 7


# -- hinge moves ------------------------------------------------------------

LOOP = type_key(Edge(1, (5, 5, 5)), 5)  # the color-1 loop type of amalgam_533


def test_move_hinge_on_loop(amalgam_533):
    G = amalgam_533
    G.add_vertex(1)
    G.move_hinges({LOOP: 1}, 1)
    assert [e.verts for e in _color_class(G, 1)].count((1, G.alpha, G.alpha)) == 1
    assert _multiplicity(G, 3, ()) == binom(5, 3) - 1
    assert _multiplicity(G, 2, (1,)) == 1


def test_move_hinge_shifts_degree_by_one(amalgam_533):
    G = amalgam_533
    G.add_vertex(1)
    d_alpha = _degree(G, G.alpha)
    G.move_hinges({LOOP: 1}, 1)
    assert _degree(G, G.alpha) == d_alpha - 1
    assert _degree(G, 1) == 1


def test_move_hinge_preserves_color(amalgam_533):
    G = amalgam_533
    G.add_vertex(1)
    G.move_hinges({LOOP: 1}, 1)
    assert [(e.color, e.verts) for e in G.edges() if 1 in e.verts] == [(1, (1, 5, 5))]
    assert len(_color_class(G, 1)) == 5 and len(_color_class(G, 2)) == 5


def test_move_hinges_moves_one_hinge_per_edge(amalgam_533):
    # t = 3 of the 5 loops give up one hinge each; the rest stay loops
    G = amalgam_533
    G.add_vertex(1)
    G.move_hinges({LOOP: 3}, 1)
    assert G.hinges_at()[LOOP] == (2, 3)
    assert G.hinges_at()[type_key(Edge(1, (1, 5, 5)), 5)] == (3, 2)
    # the successor of (color, rest, p) is (color, rest + (to,), p - 1)
    assert list(G.hinges_at()) == [LOOP, (2, (), 3), (1, (1,), 2)]
    assert _degree(G, 1, 1) == 3


def test_move_hinges_rejects_more_edges_than_the_type_has(amalgam_533):
    # a request sized for an earlier stage is rejected once the type has
    # fewer edges left, and nothing moves
    G = amalgam_533
    G.add_vertex(1)
    G.move_hinges({LOOP: 4}, 1)
    before = dict(G.hinges_at()), _records(G), dict(G._done), _kept(G)
    with pytest.raises(InvalidHingeError):
        G.move_hinges({type_key(Edge(2, (5, 5, 5)), 5): 1, LOOP: 2}, 1)
    assert (dict(G.hinges_at()), _records(G), dict(G._done), _kept(G)) == before


def test_a_type_that_empties_and_comes_back_gets_a_fresh_record(amalgam_533):
    # moving every edge of a type away drops its record; when a move makes
    # the type again, it starts a new record
    G = amalgam_533
    G.add_vertex(1)
    G.move_hinges({LOOP: 2}, 1)
    succ = type_key(Edge(1, (1, 5, 5)), 5)
    old = G._live[succ]
    assert list(G.edges()).count(Edge(1, (1, 5, 5))) == 2
    G.add_vertex(2)
    G.move_hinges({succ: 2}, 2)
    assert succ not in G._live and succ not in G.hinges_at()
    G.move_hinges({LOOP: 1}, 1)
    assert G._live[succ] is not old and G._live[succ][C] == 1
    assert _kept(G) == _kept(rebuilt(G)) and _kept(G)[2:] == _defined(G)


def test_hinges_at_is_a_read_only_view_that_follows_the_moves(amalgam_533):
    G = amalgam_533
    ground = G.hinges_at()
    with pytest.raises(TypeError):
        ground[LOOP] = (1, 3)
    with pytest.raises(TypeError):
        del ground[LOOP]
    G.add_vertex(1)
    G.move_hinges({LOOP: 5}, 1)
    assert LOOP not in ground and ground[type_key(Edge(1, (1, 5, 5)), 5)] == (5, 2)


def test_move_hinge_rejects_unknown_edge(amalgam_533):
    # a type the graph does not hold, and a type without the amalgam
    G = amalgam_533
    G.add_vertex(1)
    with pytest.raises(InvalidHingeError):
        G.move_hinges({type_key(Edge(1, (1, 5, 5)), 5): 1}, 1)
    G.move_hinges({LOOP: 1}, 1)
    G.add_vertex(2)
    with pytest.raises(InvalidHingeError):
        G.move_hinges({type_key(Edge(1, (1, 2, 2)), 5): 0}, 2)


def test_move_hinge_rejects_undeclared_target(amalgam_533):
    G = amalgam_533
    with pytest.raises(ParameterError):
        G.move_hinges({LOOP: 1}, 42)
    with pytest.raises(ParameterError):
        G.move_hinges({LOOP: 1}, G.alpha)


def test_moves_merge_color_components():
    # the target joins the component of every moved edge in its color only
    G = ColoredMultiHypergraph([0, 1, 2, 3], alpha=0, h=2, k=2)
    G.add_edge((0, 1), 1)
    G.add_edge((0, 2), 1)
    G.add_edge((0, 0), 2)
    assert G._uf[1].find(1) != G._uf[1].find(2)
    moved = [Edge(1, (0, 1)), Edge(1, (0, 2)), Edge(2, (0, 0))]
    G.move_hinges({type_key(e, 0): 1 for e in moved}, 3)
    assert G._uf[1].find(1) == G._uf[1].find(2) == G._uf[1].find(3)
    assert G._uf[2].find(3) != G._uf[2].find(1)


def test_move_onto_a_vertex_below_its_root_keeps_the_groups_exact():
    # vertex 2 joins 1's component, whose root is 1, through an
    # amalgam-incident type; moves onto 2 must key the joined groups at
    # the root, as a graph rebuilt from the edges does
    G = ColoredMultiHypergraph([0, 1, 2, 3, 4], alpha=0, h=3, k=2)
    G.add_edge((0, 1, 2), 1)
    G.add_edge((0, 0, 3), 1, mult=2)
    G.add_edge((0, 0, 4), 1)
    G.add_edge((0, 0, 0), 2, mult=3)
    assert G._uf[1].find(2) == 1
    G.move_hinges({type_key(Edge(1, (0, 0, 3)), 0): 1, type_key(Edge(2, (0, 0, 0)), 0): 2}, 2)
    assert _kept(G) == _kept(rebuilt(G))
    assert [w[1] for w in G._wings[1].values()] == [1 + 2 + 1, 2]
    moved = [Edge(1, (0, 0, 4)), Edge(1, (0, 0, 3)), Edge(2, (0, 0, 2))]
    G.move_hinges({type_key(e, 0): 1 for e in moved}, 2)
    assert _kept(G) == _kept(rebuilt(G))
    assert [w[1] for w in G._wings[1].values()] == [1 + 2 + 1]
    both = [type_key(Edge(2, (0, 0, 2)), 0), type_key(Edge(2, (0, 2, 2)), 0)]
    assert [w[:2] for w in G._wings[2].values()] == [[dict.fromkeys(both), 2 + 1]]


def test_edges_that_join_two_wings_add_their_totals():
    # the groups at 1 and 2 join through an amalgam-incident edge, then
    # the group at 3 through an edge without the amalgam
    G = ColoredMultiHypergraph([0, 1, 2, 3], alpha=0, h=3, k=1)
    G.add_edge((0, 0, 1), 1, mult=2)
    G.add_edge((0, 0, 2), 1)
    G.add_edge((0, 0, 3), 1)
    assert sorted(w[1] for w in G._wings[1].values()) == [2, 2, 4]
    G.add_edge((0, 1, 2), 1)
    assert sorted(w[1] for w in G._wings[1].values()) == [2, 4 + 2 + 1]
    G.add_edge((1, 2, 3), 1)
    assert [w[1] for w in G._wings[1].values()] == [4 + 2 + 1 + 2]
    assert _kept(G) == _kept(rebuilt(G))
    lone = type_key(Edge(1, (0, 0, 3)), 0)
    assert G._cells[2, (3,)][:2] == [1, 2] and G._live[lone][CELL] is G._cells[2, (3,)]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), h=st.integers(1, 4), high=st.booleans())
def test_random_adds_and_moves_keep_the_state_of_a_rebuild(data, h, high):
    # the amalgam is the least or the greatest label; an added edge holds
    # p = 0..h amalgam occurrences, so moves reach successors with p >= 2,
    # and a move target is any ordinary vertex, often one below its root.
    # Types are named only as `hinges_at()` lists them.
    alpha = 9 if high else 0
    G = ColoredMultiHypergraph([alpha, 1, 2, 3, 4], alpha, h, k=2)
    ordinary = st.sampled_from([1, 2, 3, 4])
    for _ in range(data.draw(st.integers(1, 16))):
        ground = G.hinges_at()
        if not ground or data.draw(st.integers(0, 2)) == 0:
            p = data.draw(st.integers(0, h))
            rest = data.draw(st.lists(ordinary, min_size=h - p, max_size=h - p))
            color, mult = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
            G.add_edge([alpha] * p + rest, color, mult)
        else:
            moved = data.draw(st.lists(st.sampled_from(list(ground)), min_size=1, unique=True))
            amounts = {x: data.draw(st.integers(0, ground[x][0])) for x in moved}
            G.move_hinges(amounts, data.draw(ordinary))
        R = rebuilt(G)
        assert _kept(G) == _kept(R)
        assert _kept(G)[2:] == _defined(G)
        assert G.hinges_at() == R.hinges_at()
        assert Counter(G.edges()) == Counter(R.edges())


def test_a_stage_move_rewrites_only_the_records_of_the_types_it_moves():
    # the groups carry their types' place, so a move leaves the record of
    # every type it neither moves nor makes as it was, but for the wing
    # slot of a type whose wing a union absorbed: that now holds its root's
    rewritten, watched = [], 0
    for spec in [(7, 3, 1, (3,) * 5), (8, 2, 1, (2, 2, 2, 1)), (6, 4, 2, (10, 10)), (10, 2, 1, (9,)),
                 (9, 3, 1, (4,) * 7)]:
        p = Params(*spec)
        G = initial_amalgam(p)
        move = G.move_hinges

        def watching(amounts, to, G=G, move=move):
            nonlocal watched
            moved = [x for x, t in amounts.items() if t]
            touched = {*moved, *((i, tuple(sorted(rest + (to,))), q - 1) for i, rest, q in moved)}
            before = {x: (r, r[:]) for x, r in G._live.items() if x not in touched}
            move(amounts, to)
            kept = {id(w) for ws in G._wings.values() for w in ws.values()}  # the old groups are held
            for (i, rest, q), (r, old) in before.items():
                now = r[:]
                if rest and id(old[WING]) not in kept and r[WING] is G._wings[i][G._uf[i].find(rest[0])]:
                    now[WING] = old[WING]  # its wing was absorbed
                if G._live.get((i, rest, q)) is not r or not all(
                        u is v if type(u) is list else u == v for u, v in zip(now, old)):
                    rewritten.append((spec, i, rest, q))
            watched += len(before)

        G.move_hinges = watching
        for ell in range(1, p.n):
            split_step(G, ell, p, seed=ell)
    assert watched and rewritten == []


# -- construction and validation --------------------------------------------


def test_add_edge_rejects_wrong_size():
    G = ColoredMultiHypergraph([0, 1], alpha=0, h=3, k=1)
    with pytest.raises(ParameterError):
        G.add_edge((0, 1), 1)


def test_add_edge_rejects_bad_color():
    G = ColoredMultiHypergraph([0, 1], alpha=0, h=2, k=2)
    with pytest.raises(ParameterError):
        G.add_edge((0, 1), 3)


def test_add_edge_rejects_undeclared_vertex():
    G = ColoredMultiHypergraph([0, 1], alpha=0, h=2, k=1)
    with pytest.raises(ParameterError):
        G.add_edge((0, 7), 1)


def test_add_edge_rejects_zero_multiplicity():
    G = ColoredMultiHypergraph([0, 1], alpha=0, h=2, k=1)
    with pytest.raises(ParameterError, match="multiplicity must be >= 1, got 0"):
        G.add_edge((0, 1), 1, mult=0)
    assert list(G.edges()) == []


def test_edge_size_and_color_count_must_be_positive():
    for h, k in ((0, 1), (2, 0)):
        with pytest.raises(ParameterError, match="need h >= 1 and k >= 1"):
            ColoredMultiHypergraph([0, 1], alpha=0, h=h, k=k)


def test_add_vertex_rejects_duplicate():
    G = ColoredMultiHypergraph([0], alpha=0, h=2, k=1)
    with pytest.raises(ParameterError):
        G.add_vertex(0)


def test_alpha_must_be_declared():
    with pytest.raises(ParameterError):
        ColoredMultiHypergraph([1, 2], alpha=0, h=2, k=1)


def test_color_class_partitions_edges(amalgam_533):
    G = amalgam_533
    sizes = [len(_color_class(G, c)) for c in (1, 2)]
    assert sizes == [5, 5]
    assert sum(sizes) == _edge_count(G)


# -- conservation properties ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_moves_conserve_hinges_and_colors(seed):
    # any sequence of valid hinge moves keeps the total occurrence count
    # at h per edge and never touches colors
    rng = random.Random(seed)
    G = initial_amalgam(Params(5, 2, 1, (2, 2)))
    for v in (1, 2):
        G.add_vertex(v)
    colors_before = sorted(e.color for e in G.edges())
    for _ in range(rng.randrange(12)):
        movable = [e for e in G.edges() if e.verts.count(G.alpha) >= 1]
        if not movable:
            break
        e = rng.choice(movable)
        G.move_hinges({type_key(e, G.alpha): 1}, rng.choice([1, 2]))
    assert all(len(e.verts) == 2 for e in G.edges())
    assert sorted(e.color for e in G.edges()) == colors_before
    total = sum(_degree(G, u) for u in G.vertices)
    assert total == 2 * _edge_count(G)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 7), h=st.integers(1, 4))
def test_degree_sum_is_h_times_edges(n, h):
    if h >= n:
        n = h + 1
    G = initial_amalgam(Params(n, h, 1, (binom(n - 1, h - 1),)))
    assert sum(_degree(G, u) for u in G.vertices) == h * _edge_count(G)


@pytest.mark.parametrize("spec", [(5, 1, 3, (1, 2)), (7, 2, 1, (2, 2, 2)), (7, 3, 1, (3,) * 5),
                                  (6, 4, 2, (10, 10))])
@pytest.mark.usefixtures("collector")
def test_a_graph_dropped_after_any_stage_is_freed_without_the_collector(spec):
    # records point at groups and no group points back at the graph, so
    # no cycle holds a graph, loops left or not
    p = Params(*spec)
    for stages in range(p.n):
        G = initial_amalgam(p)
        for ell in range(1, stages + 1):
            split_step(G, ell, p, seed=ell)
        held = weakref.ref(G)
        del G
        assert held() is None and gc.collect() == 0, stages
