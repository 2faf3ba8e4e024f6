"""Tests for laminar families, their builders, and equalized selection."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    breaks,
    fold_singletons,
    kept_forest,
    plain_family,
    random_laminar_family,
    random_laminar_pair,
    random_laminar_sets,
    reference_family,
    same_verdict,
    weighted,
)
from hypfactor import (
    InternalInvariantError,
    ParameterError,
    binom,
    build_cell_family,
    build_wing_family,
    check_feasibility,
    construct,
    equalized_select,
    exhaustive_select,
    initial_amalgam,
    split_step,
    wing_decompositions,
)
from hypfactor import detach, laminar
from hypfactor.detach import Params
from hypfactor.laminar import Member, bounds_for, containment_forest, selection_respects_bounds
from test_acceptance import _fixture_vectors

EMPTY = reference_family(frozenset(), [])


def _fam(ground, *sets):
    return reference_family(ground, [(s, ("set", i)) for i, s in enumerate(sets)])


def _empty_over(ground):
    return reference_family(ground, [])


def _wing_family(G):
    ground = G.hinges_at()
    return build_wing_family(G, ground, wing_decompositions(G))


def _degree(G, u, color=None):
    """Occurrences of `u` over the explicit edges, or over one color class."""
    return sum(e.verts.count(u) for e in G.edges() if color in (None, e.color))


# -- family construction ----------------------------------------------------


def test_bounds_for_basics():
    assert bounds_for(10, 4) == (2, 3)
    assert bounds_for(12, 4) == (3, 3)
    assert bounds_for(5, 1) == (5, 5)
    assert bounds_for(0, 3) == (0, 0)


def test_forest_parents_and_innermost():
    fam = _fam(range(1, 7), {1, 2, 3, 4}, {1, 2}, {3}, {5})
    parent, innermost = fam.forest()
    # canonical member order: {1,2,3,4}, {1,2}, {3}, {5}
    assert [sorted(m.elements) for m in fam.members] == [[1, 2, 3, 4], [1, 2], [3], [5]]
    assert parent == [-1, 0, 0, -1]
    assert innermost[1] == 1
    assert innermost[4] == 0
    assert innermost[5] == 3
    assert innermost[6] == -1


def test_equal_sets_chain():
    # equal sets stay two members: the later is the child of the earlier
    # and every element's innermost, and both bounds hold on both sides
    ground = {1: (1, 3), 2: (2, 1)}
    fam = reference_family(ground, [({1, 2}, ("a",)), ({2, 1}, ("b",))])
    assert [mb.tag for mb in fam.members] == [("a",), ("b",)]
    assert kept_forest(fam) == fam.forest() == ([-1, 0], {1: 1, 2: 1})
    for m in (1, 2, 3, 4):
        lo, hi = bounds_for(5, m)
        for seed in range(3):
            sel = equalized_select(ground, fam, fam, m, seed)
            got = fam.totals(sel.amounts.items())
            assert lo <= got[0] == got[1] <= hi
            assert selection_respects_bounds(sel.amounts, ground, fam, fam, m) is None


def test_forest_rejects_a_child_listed_before_its_parent():
    # a family's members are read off its records, which name one innermost
    # member per element, so the misordered list goes to the check itself
    ground = {1: (1, 1), 2: (1, 1), 3: (1, 1)}
    child, parent = ([1], 1, ("child",)), ([1, 2], 2, ("parent",))
    fam = plain_family(ground, [(*parent, -1), (*child, 0)])
    members = [Member([1, 2], ("parent",)), Member([1], ("child",))]
    assert fam.forest() == containment_forest(ground, members) == ([-1, 0], {1: 1, 2: 0, 3: -1})
    with pytest.raises(InternalInvariantError) as exc:
        containment_forest(ground, members[::-1])
    assert exc.value.witness == (("parent",), [-1, 0])


def test_straddling_sets_rejected():
    with pytest.raises(InternalInvariantError):
        _fam(range(1, 5), {1, 2}, {2, 3})


def test_order_and_straddle_witness_ignore_input_order():
    # {1, 2} and {1, 3} tie on (size, least element); only a non-laminar
    # family can, and every input order must name the same straddle
    sets = [{1, 3}, {0, 5}, {1, 2}, {0, 1, 4}]
    witnesses = set()
    for perm in itertools.permutations(sets):
        tags = [tuple(sorted(s)) for s in perm]
        with pytest.raises(InternalInvariantError) as exc:
            reference_family(range(6), zip(perm, tags))
        witnesses.add(repr(exc.value.witness))
    assert len(witnesses) == 1


def test_element_outside_ground_rejected():
    with pytest.raises(InternalInvariantError):
        _fam({1, 2}, {1, 3})


def test_forest_rejects_a_solo_element_outside_the_ground():
    # a stray member element is named as (tag, element); a solo mark is read
    # off the records, which cover the ground and nothing else
    ground = {1: (2, 1), 2: (1, 1)}
    pair = [([1, 2], 3, ("pair",), -1)]
    assert plain_family(ground, pair, {1: None}).forest() == ([-1], {1: 0, 2: 0})
    assert list(plain_family(ground, pair, [1, 3]).solo) == [1]
    with pytest.raises(InternalInvariantError, match="outside the ground") as exc:
        containment_forest(ground, [Member([1, 3], ("stray",))])
    assert exc.value.witness == (("stray",), 3)


def test_disjoint_sets_are_laminar():
    fam = _fam(range(6), {0, 1}, {2, 3}, {4})
    parent, _ = fam.forest()
    assert parent == [-1, -1, -1]


# -- builders on pipeline stages --------------------------------------------


def test_wing_family_on_base_amalgam():
    # every wing is a loop, so per color the family holds the class and
    # the equal multi-hinge union (15 hinges each), in builder order, each
    # union the child of its class
    G = initial_amalgam(Params(5, 3, 1, (3, 3)))
    fam = _wing_family(G)
    tags = [mb.tag for mb in fam.members]
    assert tags == [("color", 1), ("multiwing", 1), ("color", 2), ("multiwing", 2)]
    assert fam.sizes == (15, 15, 15, 15)
    assert kept_forest(fam)[0] == fam.forest()[0] == [-1, 0, -1, 2]
    for m in fam.members:
        assert len(m.elements) == 1


def test_wing_family_groups_a_split_class_by_wing():
    # after two splits each class has non-loop wings, each a wing member
    # or, when it holds one type, a `solo` type; every wing member and the
    # innermost member of every solo type nest inside the class member,
    # which weighs the class's amalgam degree
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    split_step(G, 1, p, seed=0)
    split_step(G, 2, p, seed=0)
    fam = _wing_family(G)
    parent, innermost = fam.forest()
    index = {m.tag: j for j, m in enumerate(fam.members)}
    assert fam.solo
    for i in range(1, p.k + 1):
        top = index[("color", i)]
        assert fam.sizes[top] == _degree(G, G.alpha, i)
        wings = [j for t, j in index.items() if t[:2] == ("wing", i)]
        solo = [innermost[x] for x in fam.solo if x[0] == i]
        assert wings or solo
        assert len(wings) + len(solo) == len(G._wings[i])
        for j in wings + solo:
            while j not in (top, -1):
                j = parent[j]
            assert j == top


def test_cell_family_on_base_amalgam():
    # a single all-amalgam cell holding every hinge
    G = initial_amalgam(Params(5, 3, 1, (3, 3)))
    fam = build_cell_family(G, G.hinges_at())
    assert len(fam.members) == 1
    assert fam.sizes[0] == 3 * binom(5, 3)
    assert fam.members[0].tag[:2] == ("cell", 3)


def test_cell_family_after_first_split():
    # cells after one split: pure loops of size 3 and mixed (2, {1}) shapes;
    # the mixed cell holds 2 * lam * C(4, 2) = 12 hinges
    p = Params(5, 3, 1, (3, 3))
    G = initial_amalgam(p)
    split_step(G, 1, p, seed=0)
    fam = build_cell_family(G, G.hinges_at())
    by_key = {m.tag: size for m, size in zip(fam.members, fam.sizes)}
    assert by_key[("cell", 2, (1,))] == 2 * binom(4, 2)
    assert by_key[("cell", 3, ())] == 3 * binom(4, 3)
    # cells partition the amalgam hinges
    assert sum(by_key.values()) == _degree(G, G.alpha)


def test_cell_family_members_disjoint():
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    split_step(G, 1, p, seed=3)
    fam = build_cell_family(G, G.hinges_at())
    seen = set()
    for m in fam.members:
        elements = frozenset(m.elements)
        assert not (seen & elements)
        seen |= elements


# -- equalized selection ----------------------------------------------------


def test_single_set_bound():
    ground = frozenset(range(10))
    sel = equalized_select(ground, _fam(ground, ground), _empty_over(ground), m=4)
    assert 2 <= len(sel.chosen) <= 3
    assert sel.chosen <= ground


def test_m_one_takes_everything():
    ground = frozenset(range(7))
    sel = equalized_select(ground, _fam(ground, ground), _empty_over(ground), m=1)
    assert sel.chosen == ground


def test_disjoint_cells_one_each():
    ground = frozenset(range(9))
    cells = [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
    famA = _fam(ground, ground)
    famB = _fam(ground, *cells)
    sel = equalized_select(ground, famA, famB, m=3)
    assert len(sel.chosen) == 3
    for cell in cells:
        assert len(sel.chosen & cell) == 1
    # cross-check against the exhaustive enumeration of valid selections
    space = exhaustive_select(ground, famA, famB, m=3)
    assert sel.chosen in {s.chosen for s in space}


def test_selection_is_deterministic():
    ground = frozenset(range(12))
    famA = _fam(ground, ground, {0, 1, 2, 3}, {4, 5})
    famB = _fam(ground, {0, 4, 8}, {1, 5, 9})
    a = equalized_select(ground, famA, famB, m=3, seed=11)
    b = equalized_select(ground, famA, famB, m=3, seed=11)
    assert a == b


def test_every_seed_is_valid():
    ground = frozenset(range(11))
    famA = _fam(ground, ground, {0, 1, 2, 3, 4}, {5, 6})
    famB = _fam(ground, {0, 5, 7}, {1, 6, 8}, {2, 9})
    for seed in range(12):
        sel = equalized_select(ground, famA, famB, m=4, seed=seed)
        assert selection_respects_bounds(sel.chosen, ground, famA, famB, 4) is None


def test_empty_ground():
    sel = equalized_select(EMPTY.ground, EMPTY, EMPTY, m=3)
    assert sel.chosen == frozenset()


def test_rejects_mismatched_ground():
    ground = frozenset(range(4))
    with pytest.raises(ParameterError):
        equalized_select(ground, _fam({1, 2}, {1}), _empty_over(ground), m=2)


def test_rejects_an_equal_ground_that_is_another_object():
    # the selector reads the families' records, so it takes their own ground
    # object and nothing equal to it: a copy, or a second view of the graph
    ground = {"a": (2, 1), "b": (1, 3)}
    fam = plain_family(ground, [(["a", "b"], 5, ("ab",), -1)])
    assert equalized_select(ground, fam, fam, m=2).amounts
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    stage = G.hinges_at()
    famA = build_wing_family(G, stage, wing_decompositions(G))
    famB = build_cell_family(G, stage)
    for other, A, B in ((dict(ground), fam, fam), (G.hinges_at(), famA, famB), (dict(stage), famA, famB)):
        assert other == A.ground
        with pytest.raises(ParameterError, match="as one object"):
            equalized_select(other, A, B, m=2)


def test_recheck_rejects_an_equal_ground_that_is_another_object():
    # the re-check reads the families' records too, so it takes only their
    # own ground: a dict copy and a second view of the graph are refused
    ground = {"a": (2, 1), "b": (1, 3)}
    fam = plain_family(ground, [(["a", "b"], 5, ("ab",), -1)])
    assert selection_respects_bounds({"a": 1, "b": 2}, ground, fam, fam, 2) is None
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    stage = G.hinges_at()
    famA = build_wing_family(G, stage, wing_decompositions(G))
    famB = build_cell_family(G, stage)
    chosen = equalized_select(stage, famA, famB, m=6).amounts
    assert selection_respects_bounds(chosen, stage, famA, famB, 6) is None
    for other, A, B, amounts, m in ((dict(ground), fam, fam, {"a": 1, "b": 2}, 2),
                                    (G.hinges_at(), famA, famB, chosen, 6)):
        assert other == A.ground
        with pytest.raises(ParameterError, match="as one object"):
            selection_respects_bounds(amounts, other, A, B, m)


def test_selection_the_recheck_refuses_raises_with_its_witness(monkeypatch):
    # the selector returns nothing its re-check refuses: a failed re-check
    # raises, carrying the checker's witness
    ground = frozenset(range(4))
    fam = _fam(ground, ground)
    monkeypatch.setattr(laminar, "selection_respects_bounds", lambda *args: ("ground", 0, 2, 2))
    with pytest.raises(InternalInvariantError, match="selection violates a family bound") as exc:
        equalized_select(ground, fam, _empty_over(ground), m=2)
    assert exc.value.witness == ("ground", 0, 2, 2)


def test_rejects_bad_divisor():
    ground = frozenset(range(4))
    fam = _fam(ground, ground)
    with pytest.raises(ParameterError):
        equalized_select(ground, fam, _empty_over(ground), m=0)


def test_pipeline_families_select_cleanly():
    # the two real builders on a mid-pipeline stage, full bound audit
    p = Params(6, 3, 1, (2, 2, 2, 2, 2))
    G = initial_amalgam(p)
    split_step(G, 1, p, seed=0)
    split_step(G, 2, p, seed=0)
    ground = G.hinges_at()
    famA = build_wing_family(G, ground, wing_decompositions(G))
    famB = build_cell_family(G, ground)
    m = 6 - 3 + 1
    sel = equalized_select(ground, famA, famB, m, seed=5)
    assert selection_respects_bounds(sel.amounts, ground, famA, famB, m) is None
    assert all(0 < t <= ground[x][0] for x, t in sel.amounts.items())


def test_weighted_element_bounds():
    # 5 items of size 3 at m = 2 take between 5 and 10; the ground total
    # 15 + 2 asks for 8 or 9 in all
    ground = {"a": (5, 3), "b": (1, 2)}
    fam = plain_family(ground, [])
    sel = equalized_select(ground, fam, fam, m=2)
    assert 5 <= sel.amounts["a"] <= 10 and sel.amounts.get("b", 0) == 1
    assert 8 <= sum(sel.amounts.values()) <= 9
    assert selection_respects_bounds({"a": 4, "b": 1}, ground, fam, fam, 2)[0] == "ground"
    assert selection_respects_bounds({"a": 11, "b": 0}, ground, fam, fam, 2) == (
        "ground", 11, 8, 9)
    assert selection_respects_bounds({"a": 8, "b": 0}, ground, fam, fam, 2) == (
        "element", "b", 0, 1, 1)


def test_elements_outside_every_member_select_cleanly():
    # the stage builders cover their whole ground, but the constructor does
    # not ask it: "c" and "d" lie in no member of A, and only "c" in one of B
    ground = {"a": (2, 3), "b": (1, 2), "c": (1, 1), "d": (3, 1)}
    famA = plain_family(ground, [(["a", "b"], 8, ("pair",), -1), (["a"], 6, ("a",), 0)])
    famB = plain_family(ground, [(["c"], 1, ("c",), -1)])
    assert famA.forest() == ([-1, 0], {"a": 1, "b": 0, "c": -1, "d": -1})
    assert famB.forest() == ([-1], {"a": -1, "b": -1, "c": 0, "d": -1})
    assert "d" not in kept_forest(famA)[1] and "d" not in kept_forest(famB)[1]
    for m in (1, 2, 3, 5):
        for seed in range(4):
            sel = equalized_select(ground, famA, famB, m, seed)
            assert selection_respects_bounds(sel.amounts, ground, famA, famB, m) is None


def test_stray_elements_are_reported():
    ground = frozenset({"x", "y"})
    fam = _empty_over(ground)
    assert selection_respects_bounds({"x", "stray"}, ground, fam, fam, m=2) == ("stray", "stray")
    assert selection_respects_bounds({"x"}, ground, fam, fam, m=2) is None


def test_deep_opposite_chains_select_without_recursion():
    # two chains of 1200 nested sets growing from opposite ends of the
    # ground, so flow paths run the full depth of both forests
    size, m = 1200, 1199
    ground = frozenset(range(size))
    famA = _fam(ground, *(range(i) for i in range(1, size + 1)))
    famB = _fam(ground, *(range(size - i, size) for i in range(1, size + 1)))
    sel = equalized_select(ground, famA, famB, m)
    assert selection_respects_bounds(sel.amounts, ground, famA, famB, m) is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**7), gsize=st.integers(1, 24), m=st.integers(2, 6))
def test_random_laminar_selection_respects_bounds(seed, gsize, m):
    rng = random.Random(seed)
    ground, famA, famB = random_laminar_pair(rng, gsize)
    sel = equalized_select(ground, famA, famB, m, seed=seed)
    assert selection_respects_bounds(sel.chosen, ground, famA, famB, m) is None


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_recheck_matches_the_full_walk_on_broken_selections(m):
    # unit grounds from `random_laminar_pair`, and weighted grounds with
    # every one-element member folded into `solo`: each selection and its
    # breaks get the verdict of the walk over every element
    rng = random.Random(f"recheck-{m}")
    kinds = Counter()
    for trial in range(200):
        if trial % 2:
            ground, *pair = random_laminar_pair(rng, rng.randint(1, 16))
        else:
            ground = {x: (rng.randint(1, 4), rng.randint(1, 6)) for x in range(rng.randint(1, 16))}
            pair = [fold_singletons(random_laminar_family(rng, ground)) for _ in "AB"]
        amounts = equalized_select(ground, *pair, m, seed=trial).amounts
        assert same_verdict(amounts, ground, *pair, m) is None
        for broken in breaks(rng, amounts, ground, m):
            bad = same_verdict(broken, ground, *pair, m)
            kinds[bad and (bad[0] if isinstance(bad[0], str) else "member")] += 1
    assert kinds["stray"] == 200 and kinds["ground"] >= 200 and kinds["element"] >= 150
    assert kinds["member"] >= (0 if m == 1 else 20)  # at m = 1 every bound is exact


def test_a_folded_bound_is_an_element_bound():
    # at m = 2, x (2 items of size 3) may take 2..4 on its own, but the
    # member {x} of 6 hinges asks for exactly 3; folded into `solo`, the
    # element check catches what the member check caught
    ground = {"x": (2, 3), "y": (1, 1)}
    fam = reference_family(ground, [({"x"}, ("x",))])
    folded, empty = fold_singletons(fam), _empty_over(ground)
    assert folded.members == () and list(folded.solo) == ["x"]
    assert selection_respects_bounds({"x": 4}, ground, fam, empty, 2) == (("x",), 4, 3, 3)
    assert selection_respects_bounds({"x": 4}, ground, folded, empty, 2) == ("element", "x", 4, 3, 3)
    assert selection_respects_bounds({"x": 4}, ground, empty, folded, 2) == ("element", "x", 4, 3, 3)
    assert equalized_select(ground, folded, empty, 2).amounts["x"] == 3


def test_recheck_catches_a_small_member_taking_two():
    # at m = 3 the member {a, b} of size 2 may take 0 or 1, and one with
    # nothing chosen and a size below m is skipped by arithmetic; this one
    # took 2, which only its own bound forbids
    ground = dict.fromkeys("abcdef", (1, 1))
    famA, empty = reference_family(ground, [({"a", "b"}, ("ab",))]), _empty_over(ground)
    assert selection_respects_bounds({"a": 1, "b": 1}, ground, famA, empty, 3) == (("ab",), 2, 0, 1)
    assert same_verdict({"a": 1, "b": 1}, ground, famA, empty, 3) == (("ab",), 2, 0, 1)
    assert same_verdict({"a": 1, "c": 1}, ground, famA, empty, 3) is None
    assert same_verdict({"c": 1, "d": 1}, ground, famA, empty, 3) is None


@pytest.mark.parametrize("m", [2, 3, 5])
def test_folding_one_element_members_keeps_the_constraint_set(m):
    # on weighted grounds (c >= 2) every one-element member becomes a
    # `solo` element; the selection on the folded pair meets every bound of
    # the unfolded one, and a unit moved from one element to another breaks
    # a bound of both pairs or of neither.  When only a folded bound
    # breaks, the element check names that element.
    rng = random.Random(f"fold-{m}")
    folds = caught = 0
    for trial in range(150):
        ground = {x: (rng.randint(2, 4), rng.randint(1, 6)) for x in range(rng.randint(1, 16))}
        pair = [random_laminar_family(rng, ground) for _ in "AB"]
        folded = [fold_singletons(fam) for fam in pair]
        solo = {**folded[0].solo, **folded[1].solo}
        folds += len(solo)
        amounts = equalized_select(ground, *folded, m, seed=trial).amounts
        assert selection_respects_bounds(amounts, ground, *pair, m) is None
        for _ in range(10):
            x, y = rng.choice(list(ground)), rng.choice(list(ground))
            moved = {**amounts, x: amounts.get(x, 0) - 1, y: amounts.get(y, 0) + 1}
            want = selection_respects_bounds(moved, ground, *pair, m)
            got = selection_respects_bounds(moved, ground, *folded, m)
            assert (want is None) == (got is None)
            if got is not None and got[0] == "element" != want[0]:
                z, t, lo, hi = got[1:]
                c, p = ground[z]
                assert z in solo and t == moved[z] and (lo, hi) == bounds_for(c * p, m)
                caught += 1
    assert folds >= 300 and caught >= 100


# -- exhaustive enumeration -------------------------------------------------


def test_exhaustive_two_subsets():
    ground = frozenset(range(4))
    out = exhaustive_select(ground, _fam(ground, ground), _empty_over(ground), m=2)
    assert len(out) == 6
    assert all(len(s.chosen) == 2 for s in out)


def test_exhaustive_refuses_weighted_ground():
    # a weighted ground would be enumerated as unit elements, and every
    # selection would then break the ground total
    ground = {"a": (3, 2), "b": (1, 1)}
    fam = _empty_over(ground)
    with pytest.raises(ParameterError):
        exhaustive_select(ground, fam, fam, m=2)
    unit = dict.fromkeys("ab", (1, 1))
    fam = _empty_over(unit)
    assert [s.amounts for s in exhaustive_select(unit, fam, fam, m=2)] == [{"a": 1}, {"b": 1}]


def test_exhaustive_refuses_large_ground():
    ground = frozenset(range(21))
    with pytest.raises(ParameterError):
        exhaustive_select(ground, _fam(ground, ground), _empty_over(ground), m=2)


def test_exhaustive_refuses_bad_divisor():
    ground = frozenset(range(4))
    with pytest.raises(ParameterError, match="divisor m must be >= 1, got 0"):
        exhaustive_select(ground, _fam(ground, ground), _empty_over(ground), m=0)


def test_containment_in_exhaustive_space():
    rng = random.Random(4)
    for trial in range(25):
        ground, famA, famB = random_laminar_pair(rng, rng.randrange(2, 12))
        m = rng.randrange(2, 6)
        space = {s.chosen for s in exhaustive_select(ground, famA, famB, m)}
        assert space, "laminar instance admits no selection"
        sel = equalized_select(ground, famA, famB, m, seed=trial)
        assert sel.chosen in space


# -- selection against a Dinic reference -----------------------------------


def test_routing_takes_back_a_greedy_unit():
    # at m = 2 the ground total and {c, d} are exact: 2 and 1.  With seed
    # 0 the greedy pass takes a and b, the first two in (c, p) order, and
    # fills the ground before {c, d} gets its unit.  Every valid selection
    # drops a or b, so the routing must step back across a raised element
    ground = dict.fromkeys("abcd", (1, 1))
    famA = reference_family(ground, [({"c", "d"}, ("cd",)), ({"a"}, ("a",))])
    famB = reference_family(ground, [({"b", "d"}, ("bd",)), ({"c"}, ("c",))])
    assert selection_respects_bounds({"a": 1, "b": 1}, ground, famA, famB, 2) == (("cd",), 0, 1, 1)
    space = {s.chosen for s in exhaustive_select(ground, famA, famB, 2)}
    assert space and all(not {"a", "b"} <= chosen for chosen in space)
    for seed in range(4):
        assert equalized_select(ground, famA, famB, 2, seed).chosen in space


def test_family_sizes_that_lie_are_infeasible():
    # at m = 2, a member claiming 4 hinges over one of weight 1 has its
    # floor 2 above the element's ceiling 1, and one claiming 1 hinge
    # over x of weight 4 has its ceiling 1 below x's floor 2
    for ground, size in (({"x": (1, 1)}, 4), ({"x": (1, 4), "y": (1, 1)}, 1)):
        fam = plain_family(ground, [(["x"], size, ("lie",), -1)])
        for famB in (fam, plain_family(ground, [])):
            with pytest.raises(InternalInvariantError, match="equalized selection infeasible") as exc:
                equalized_select(ground, fam, famB, 2)
            assert exc.value.witness == (len(ground), 2)


def reference_max_flow(adj, to, cap, s, t):
    """Dinic max flow from `s` to `t`, updating the residual capacities `cap`.

    Each BFS labels every node it can reach.  `adj[u]` lists the arcs out
    of node u; arc a enters `to[a]` and its reverse is arc a ^ 1.
    """
    n = len(adj)
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        it = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                f = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                total += f
                path.clear()
                u = s
            for i in range(it[u], len(adj[u])):
                a = adj[u][i]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if not path:
                    break
                it[u] = len(adj[u])
                u = to[path.pop() ^ 1]
                it[u] += 1


def reference_select(ground, famA, famB, m, seed=0):
    """The bounds as a wired network, solved by `reference_max_flow`.

    Nodes: source, sink, one root per family, one node per member, then
    the super-source and super-sink; one `arc` call per arc, each with a
    residual pair, lo == hi or not.  An element in either family's `solo`
    is bounded as one item of size c * p.  Asserts that the flow routes
    its full need, so a selection exists, and returns the amounts of the
    elements, taken in seeded order, with the number of arcs with lo == hi.
    """
    g = weighted(ground)
    parentA, innerA = kept_forest(famA)
    parentB, innerB = kept_forest(famB)
    offB = 4 + len(famA.members)
    n = offB + len(famB.members)
    nodeA = [*range(4, offB), 2]
    nodeB = [*range(offB, n), 3]
    adj = [[] for _ in range(n + 2)]
    to, cap, excess, fixed = [], [], [0] * (n + 2), []

    def arc(u, v, lo, hi):
        adj[u].append(len(to))
        to.append(v)
        cap.append(hi - lo)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        excess[v] += lo
        excess[u] -= lo
        fixed.append(lo == hi)

    lo, hi = bounds_for(sum(c * p for c, p in g.values()), m)
    arc(0, 2, lo, hi)
    arc(3, 1, lo, hi)
    for i, size in enumerate(famA.sizes):
        arc(nodeA[parentA[i]], nodeA[i], *bounds_for(size, m))
    for i, size in enumerate(famB.sizes):
        arc(nodeB[i], nodeB[parentB[i]], *bounds_for(size, m))
    order = list(g)
    random.Random(seed).shuffle(order)
    first_element_arc = len(to)
    amounts = {}
    for x in order:
        c, p = g[x]
        if x in famA.solo or x in famB.solo:
            c, p = 1, c * p
        lo, hi = bounds_for(p, m)
        arc(nodeA[innerA.get(x, -1)], nodeB[innerB.get(x, -1)], c * lo, c * hi)
        amounts[x] = c * lo
    fixed_arcs = sum(fixed)
    arc(1, 0, 0, 1 << 60)
    need = sum(e for e in excess if e > 0)
    for v in range(n):
        if excess[v] > 0:
            arc(n, v, 0, excess[v])
        elif excess[v] < 0:
            arc(v, n + 1, 0, -excess[v])
    assert reference_max_flow(adj, to, cap, n, n + 1) == need
    for j, x in enumerate(order):
        amounts[x] += cap[first_element_arc + 2 * j + 1]
    return {x: f for x, f in amounts.items() if f}, fixed_arcs


def assert_both_select(ground, famA, famB, m, seed=0) -> int:
    """The reference routes its need and the selector meets every bound.

    The two may pick different valid amounts.  Returns the reference's
    number of arcs with lo == hi.
    """
    want, fixed = reference_select(ground, famA, famB, m, seed)
    assert selection_respects_bounds(want, ground, famA, famB, m) is None
    got = equalized_select(ground, famA, famB, m, seed).amounts
    assert selection_respects_bounds(got, ground, famA, famB, m) is None
    return fixed


def test_wiring_matches_reference_on_criterion_5_pairs():
    rng = random.Random(20260822)  # criterion 5's instances
    for i in range(1000):
        gsize = rng.randint(3, 12) if i % 2 == 0 else rng.randint(3, 40)
        ground, famA, famB = random_laminar_pair(rng, gsize)
        assert_both_select(ground, famA, famB, rng.randint(2, 6), seed=i)


def test_wiring_matches_reference_when_m_divides_sizes():
    # weighted grounds, and m a divisor of some member or item size, so
    # some bounds are exact
    rng = random.Random("wiring-divisors")
    fixed = 0
    for trial in range(400):
        ground = {x: (rng.randint(1, 3), rng.randint(1, 6)) for x in range(rng.randint(1, 24))}
        famA, famB = random_laminar_family(rng, ground), random_laminar_family(rng, ground)
        sizes = [s for s in famA.sizes + famB.sizes if s >= 2] + [p for _, p in ground.values() if p >= 2]
        m = rng.choice([d for s in sizes for d in range(2, s + 1) if s % d == 0] or [2])
        fixed += assert_both_select(ground, famA, famB, m, seed=trial)
    assert fixed >= 400


def test_wiring_matches_reference_at_m_one():
    # every bound is exact, so nothing is left to choose
    rng = random.Random("wiring-m-one")
    for trial in range(100):
        ground = {x: (rng.randint(1, 3), rng.randint(1, 4)) for x in range(rng.randint(0, 16))}
        famA, famB = random_laminar_family(rng, ground), random_laminar_family(rng, ground)
        fixed = assert_both_select(ground, famA, famB, 1, seed=trial)
        assert fixed == 2 + len(famA.members) + len(famB.members) + len(ground)


def test_wiring_matches_reference_on_the_acceptance_grid(monkeypatch):
    select, calls = detach.equalized_select, []

    def both(ground, famA, famB, m, seed=0):
        calls.append(assert_both_select(ground, famA, famB, m, seed))
        return select(ground, famA, famB, m, seed)

    monkeypatch.setattr(detach, "equalized_select", both)
    grid = [
        Params(n, h, lam, r)
        for h in (2, 3, 4)
        for n in range(h + 1, 11)
        for lam in (1, 2)
        for r in _fixture_vectors(n, h, lam)
        if check_feasibility(Params(n, h, lam, r)).ok
    ]
    for p in grid:
        for seed in (0, 5):
            construct(p, seed=seed, check_mode="off")
    assert len(calls) == 2 * sum(p.n - 1 for p in grid) and sum(calls) > 0


# -- members on first read ----------------------------------------------------


@pytest.mark.parametrize("weights", [False, True], ids=["unit", "weighted"])
def test_members_read_off_the_records_are_the_sets_the_entries_came_from(weights):
    # over random laminar sets plus a copy of one of them, which chains
    # below it, an empty set, a root like an empty multi-wing union, and an
    # element in no set: each member is its set, in ground order
    rng = random.Random(31)
    for _ in range(300):
        size = rng.randrange(1, 9)
        out = size  # in no set
        ground = range(size + 1)
        if weights:
            ground = {x: (rng.randrange(1, 4), rng.randrange(1, 4)) for x in ground}
        sets = random_laminar_sets(rng, list(range(size)))
        twin = rng.randrange(len(sets)) if sets else None
        sets += ([] if twin is None else [sets[twin]]) + [frozenset()]
        fam = reference_family(ground, [(s, ("set", i)) for i, s in enumerate(sets)])
        assert len(fam.members) == len(fam.entries) == len(sets)
        at = {}
        for i, (mb, (_, tag, _)) in enumerate(zip(fam.members, fam.entries)):
            at[tag[1]] = i
            assert mb.tag == tag and list(mb.elements) == [x for x in ground if x in sets[tag[1]]]
        assert fam.parents[at[len(sets) - 1]] == -1 and fam.members[at[len(sets) - 1]].elements == []
        if twin is not None:
            assert fam.parents[at[len(sets) - 2]] == at[twin]
        assert fam.inner[out][fam.at][2] == -1 and all(out not in mb.elements for mb in fam.members)


def test_stage_families_leave_their_members_unbuilt(monkeypatch):
    # nothing on the construction's path reads `members`; a first read
    # builds one `Member` per entry, in entry order and with its tag, of
    # the types, in ground order, whose chain of parents from their
    # innermost member passes through it, and every later read gets the
    # same tuple
    select, stages = detach.equalized_select, []

    def watched(ground, famA, famB, m, seed=0):
        sel = select(ground, famA, famB, m, seed)
        assert "members" not in vars(famA) and "members" not in vars(famB)
        for fam in (famA, famB):
            chains = {}
            for x, r in fam.inner.items():
                i, chains[x] = r[fam.at][2], set()
                while i >= 0:
                    chains[x].add(i)
                    i = fam.parents[i]
            assert len(fam.members) == len(fam.entries)
            for i, (mb, (_, tag, _)) in enumerate(zip(fam.members, fam.entries)):
                assert type(mb) is Member and mb.tag == tag
                assert list(mb.elements) == [x for x in ground if i in chains[x]]
            assert fam.members is fam.members and type(fam.members) is tuple
        stages.append(len(famA.members) + len(famB.members))
        return sel

    monkeypatch.setattr(detach, "equalized_select", watched)
    grid = [Params(5, 2, 1, (2, 2)), Params(7, 2, 1, (2, 2, 2)), Params(6, 3, 1, (6, 4)),
            Params(8, 4, 1, (7, 7, 7, 7, 7)), Params(6, 3, 2, (2,) * 10)]
    for p in grid:
        construct(p, seed=3, check_mode="full")
    assert len(stages) == sum(p.n - 1 for p in grid) and min(stages) > 0


def test_a_forced_bound_violation_names_its_member():
    # at stage 1 of n=6, h=2, r=(3, 2) each color class must take exactly
    # r_i; moving a unit from color 2 to color 1 keeps the ground total and
    # every element's bounds, so the class of color 1 is the first to fail
    p = Params(6, 2, 1, (3, 2))
    G = initial_amalgam(p)
    ground = G.hinges_at()
    famA = build_wing_family(G, ground, wing_decompositions(G))
    famB = build_cell_family(G, ground)
    assert "members" not in vars(famA)
    bad = {(1, (), 2): 4, (2, (), 2): 1}
    assert selection_respects_bounds(bad, ground, famA, famB, 6) == (("color", 1), 4, 3, 3)
    assert "members" not in vars(famA) and "members" not in vars(famB)  # the witness is the entry's tag
    assert famA.members[0].tag == famA.entries[0][1] == ("color", 1)
    assert same_verdict(bad, ground, famA, famB, 6) == (("color", 1), 4, 3, 3)
