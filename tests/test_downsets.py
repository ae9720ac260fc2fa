"""The down-set kernel against the brute-force subset filters it replaced.

Every algebra built on `DownsetAlgebra` must agree with the tabulating
`helpers.HeytingAlgebra` over the brute-force carrier: the same `elements` tuple,
top and bottom, and the same order, meet, join, implication and negation on
all pairs.  Every enumeration must equal its old `range(1 << n)` filter as a
list, order included.
"""
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    ALL_BASES,
    CHAIN3,
    DIAMOND,
    MONOID,
    TWO,
    HeytingAlgebra,
    brute_downsets,
    brute_frame_classes,
    brute_posets,
    brute_sieves,
    brute_subobjects,
    brute_subsets,
    brute_upsets,
    budget,
    canonical_carrier_by_key,
    presheaf_fixture_pool,
    set_presheaf,
    subobject_of_id,
    transitive_closure,
    _posets,
)

from toposlang import _canon, heyting
from toposlang._canon import canon_sorted
from toposlang.category import (
    CategoryError,
    FiniteCategory,
    Morphism,
    from_poset,
    sieve_heyting,
    sieves_on,
)
from toposlang.errors import CapExceeded
from toposlang.heyting import (
    DEFAULT_CAP,
    DownsetAlgebra,
    InvalidOrder,
    LatticeError,
    TopologyError,
    UnknownElement,
    canonical_carrier,
    iter_downsets,
    lower_set_algebra,
    open_set_algebra,
    poset_below,
    powerset_algebra,
    preorder_closure,
)
from toposlang.presheaf import (
    SUB_ENUM_CAP,
    Presheaf,
    PresheafError,
    enumerate_subobjects,
    sub_heyting,
    terminal_presheaf,
)
from toposlang.project import build_project, load_project
from toposlang.prop.decide import _classes, _frames

PROJECT = load_project(Path(__file__).resolve().parent.parent / "fixtures" / "two_point.json")


def assert_same_algebra(new, old):
    """Compared before and after `new` lists its carrier: its operations
    decode ids through the point index first, through the listing after."""
    assert isinstance(new, DownsetAlgebra)
    for listed in (False, True):
        if listed:
            assert new.elements == old.elements
        assert (new.top, new.bottom) == (old.top, old.bottom)
        for a in old.elements:
            assert new.negate(a) == old.negate(a)
            for b in old.elements:
                assert new.leq(a, b) == old.leq(a, b)
                assert new.meet(a, b) == old.meet(a, b)
                assert new.join(a, b) == old.join(a, b)
                assert new.implies(a, b) == old.implies(a, b)
        assert new.meet_all(old.elements) == old.meet_all(old.elements)
        assert new.join_all(old.elements) == old.join_all(old.elements)


def reach(needs, x):
    """Points x needs directly or through other points, x included."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for z in range(len(needs)):
            if needs[y] >> z & 1 and z not in seen:
                seen.add(z)
                todo.append(z)
    return frozenset(seen)


@st.composite
def relations(draw):
    """A relation on at most 7 points."""
    n = draw(st.integers(0, 7))
    return [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]


def relation_downsets(needs):
    """The preorder a drawn relation generates on range(n), and its
    down-sets found by brute force."""
    n = len(needs)
    expected = brute_downsets(range(n), {x: reach(needs, x) for x in range(n)})
    return preorder_closure(needs), expected


@settings(max_examples=60, deadline=None)
@given(relations())
def test_random_preorders_match_generic_algebra(relation):
    below, expected = relation_downsets(relation)
    masks = list(iter_downsets(below))
    assert len(masks) == len(set(masks))
    alg = DownsetAlgebra(below, range(len(below)))
    assert_same_algebra(alg, HeytingAlgebra(canon_sorted(expected), frozenset.issubset))


@settings(max_examples=60, deadline=None)
@given(relations())
def test_membership_holds_exactly_on_the_downsets(relation):
    below, expected = relation_downsets(relation)
    n = len(below)
    alg = DownsetAlgebra(below, range(n))
    for listed in (False, True):
        if listed:
            len(alg)
        for s in brute_subsets(range(n)):
            assert (s in alg) == (s in expected)
        for other in (frozenset({n}), frozenset({"0"}), set(), 0, (), None):
            assert other not in alg


# Points of every kind canon_key orders, listed out of canonical order.
MIXED_POINTS = ("b", 3, ("t", 1), Fraction(1, 2), "a", -1, Fraction(7, 3), ("s",), 0, "c")


@st.composite
def pointed_preorders(draw):
    """Up to 10 mixed points in a drawn order, and a preorder on them."""
    n = draw(st.integers(0, len(MIXED_POINTS)))
    points = draw(st.permutations(MIXED_POINTS))[:n]
    needs = [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    return points, preorder_closure(needs)


@settings(max_examples=80, deadline=None)
@given(pointed_preorders())
def test_canonical_carrier_matches_the_frozenset_key_on_random_preorders(pointed):
    points, below = pointed
    masks = list(iter_downsets(below))
    assert canonical_carrier(points, masks) == canonical_carrier_by_key(points, masks)


@pytest.mark.parametrize("n", range(11))
def test_canonical_carrier_matches_the_frozenset_key_on_powersets_and_chains(n, monkeypatch):
    points = MIXED_POINTS[:n]
    chain = [(1 << (i + 1)) - 1 for i in range(n)]
    for masks in (range(1 << n), iter_downsets(chain)):
        masks = list(masks)
        assert canonical_carrier(points, masks) == canonical_carrier_by_key(points, masks)
    # One key per point, none per frozenset of the 2^n in the carrier.
    keyed = []
    monkeypatch.setattr(heyting, "canon_key", lambda v: keyed.append(v) or _canon.canon_key(v))
    canonical_carrier(points, range(1 << n))
    assert sorted(keyed, key=_canon.canon_key) == canon_sorted(points)


@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    elems = [f"e{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return elems, pairs


@settings(max_examples=40, deadline=None)
@given(posets())
def test_lower_and_open_set_algebras_match_generic_algebra(poset):
    elems, pairs = poset
    lower = canon_sorted(brute_downsets(elems, transitive_closure(elems, pairs)))
    oracle = HeytingAlgebra(lower, frozenset.issubset)
    assert_same_algebra(lower_set_algebra(elems, pairs), oracle)
    # the lower sets of a poset are the opens of its Alexandrov topology
    assert_same_algebra(open_set_algebra(reversed(lower)), oracle)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
def test_poset_below_matches_set_valued_closure(n, raw_pairs):
    """Same order, same UnknownElement for a pair outside the elements, and
    the same InvalidOrder message on a cycle."""
    elems = [f"e{i}" for i in range(n)]
    pairs = [(f"e{p}", f"e{q}") for p, q in raw_pairs]
    try:
        expected = transitive_closure(elems, pairs)
    except LatticeError as exc:
        with pytest.raises(type(exc)) as got:
            poset_below(elems, pairs)
        assert str(got.value) == str(exc)
        return
    below = poset_below(elems, pairs)
    assert [frozenset(e for j, e in enumerate(elems) if m >> j & 1) for m in below] == \
        [expected[e] for e in elems]


def closed_under_pairs(family):
    return all(a & b in family and a | b in family for a in family for b in family)


@settings(max_examples=40, deadline=None)
@given(posets(), st.data())
def test_open_sets_rejected_exactly_when_not_a_topology(poset, data):
    elems, pairs = poset
    lower = brute_downsets(elems, transitive_closure(elems, pairs))
    inner = [s for s in lower if s and len(s) < len(elems)]
    if not inner:
        return
    family = set(lower) - {data.draw(st.sampled_from(inner))}
    if closed_under_pairs(family):
        assert set(open_set_algebra(family).elements) == family
    else:
        with pytest.raises(TopologyError, match="not closed under"):
            open_set_algebra(family)


# -- the certificate: a DownsetAlgebra is built on a preorder's down-sets only --

CHAIN_BELOW = [0b001, 0b011, 0b111]  # 0 < 1 < 2
CHAIN_DOWNSETS = [0b000, 0b001, 0b011, 0b111]


@pytest.mark.parametrize("below, message", [
    ([0b001, 0b001, 0b111], "order not reflexive at point 1"),
    ([0b001, 0b011, 0b110],
     "order not transitive: point 1 is below point 2, but not all that is below 1"),
    ([0b001, 0b1011, 0b111], "point 1 is below point 3, past the 3 points"),
], ids=["not-reflexive", "not-transitive", "bit-past-the-points"])
def test_certificate_rejects_a_planted_bad_order(below, message):
    with pytest.raises(InvalidOrder, match=message):
        DownsetAlgebra(below, range(3))


def plant_listing(monkeypatch, masks):
    """Make the next listing see `masks` in place of the down-sets."""
    monkeypatch.setattr(heyting, "iter_downsets", lambda below, **kw: iter(masks))


@pytest.mark.parametrize("below, masks, message", [
    (CHAIN_BELOW, CHAIN_DOWNSETS + [0b010],
     "element frozenset\\(\\{1\\}\\) \\(mask 0b10\\) is not a down-set"),
    # Every down-set twice, once with a bit past the points: closed under
    # joins with every point's down-set, so only the mask's width shows it.
    (CHAIN_BELOW, CHAIN_DOWNSETS + [m | 0b1000 for m in CHAIN_DOWNSETS],
     "element frozenset\\(\\) \\(mask 0b1000\\) is not a down-set"),
    (CHAIN_BELOW, [0b000, 0b001, 0b111], "lacks the down-set 0b11: frozenset\\(\\) joined "
     "with what is below point 1"),
    (CHAIN_BELOW, [0b000, 0b001, 0b001, 0b011, 0b111],
     "element frozenset\\(\\{0\\}\\) repeats the mask 0b1"),
    (CHAIN_BELOW, [0b001, 0b011, 0b111], "lacks the empty down-set"),
], ids=["not-a-down-set", "past-the-points", "missing", "duplicate", "no-zero"])
def test_certificate_rejects_a_planted_bad_carrier(below, masks, message, monkeypatch):
    alg = DownsetAlgebra(below, range(len(below)))
    plant_listing(monkeypatch, masks)
    with pytest.raises(LatticeError, match=message):
        len(alg)


def test_certificate_is_exhaustive_at_the_cap(monkeypatch):
    """One down-set missing from 4096 is found: no sampling."""
    alg = DownsetAlgebra([1 << i for i in range(12)], range(12))
    plant_listing(monkeypatch, [m for m in range(1 << 12) if m != 0b100110100101])
    with pytest.raises(LatticeError, match="lacks the down-set 0b100110100101"):
        len(alg)


def test_powerset_matches_generic_algebra():
    for n in range(6):
        items = [f"s{i}" for i in range(n)]
        oracle = HeytingAlgebra(canon_sorted(brute_subsets(items)), frozenset.issubset)
        assert_same_algebra(powerset_algebra(reversed(items)), oracle)


def test_a_composite_of_the_wrong_signature_is_refused_at_construction():
    # f: x -> y with f o id[x] recorded as id[x]: the composite is not an
    # arrow into y.  No category is built, so no sieve order meets it.
    mors = [Morphism("id[x]", "x", "x"), Morphism("id[y]", "y", "y"), Morphism("f", "x", "y")]
    comp = {("id[x]", "id[x]"): "id[x]", ("id[y]", "id[y]"): "id[y]",
            ("id[y]", "f"): "f", ("f", "id[x]"): "id[x]"}
    with pytest.raises(CategoryError, match=re.escape("('bad-signature', 'f', 'id[x]', 'id[x]')")):
        FiniteCategory(["x", "y"], mors, {"x": "id[x]", "y": "id[y]"}, comp)


CATEGORIES = ALL_BASES + [DIAMOND] + list(PROJECT.categories.values())


@pytest.mark.parametrize("cat", CATEGORIES, ids=lambda c: "+".join(c.objects))
def test_sieves_match_subset_filter(cat):
    for obj in cat.objects:
        expected = brute_sieves(cat, obj)
        assert sieves_on(cat, obj) == expected
        assert_same_algebra(sieve_heyting(cat, obj),
                            HeytingAlgebra(canon_sorted(expected), frozenset.issubset))


def test_a_restriction_that_leaves_its_stage_is_refused_at_construction():
    # x1 restricts to y9, outside the stage at p: no presheaf, so no
    # category of elements is ever built for it.
    with pytest.raises(PresheafError, match=re.escape("('bad-codomain', 'le[p,q]', 'x1')")):
        Presheaf(TWO, {"q": ("x0", "x1"), "p": ("y0",)}, {"le[p,q]": {"x0": "y0", "x1": "y9"}})


PRESHEAVES = presheaf_fixture_pool(12) + list(PROJECT.presheaves.values()) + [
    set_presheaf([1, 2, 3]),
    # y9 at p is the restriction of x1 alone; y1 is no element's.
    Presheaf(TWO, {"q": ("x0", "x1"), "p": ("y0", "y1", "y9")},
             {"le[p,q]": {"x0": "y0", "x1": "y9"}}),
    Presheaf(MONOID, {"x": ("u", "v", "w")}, {"e": {"u": "u", "v": "u", "w": "w"}}),
    Presheaf(CHAIN3, {"a": ("a0",), "b": ("b0", "b1"), "c": ("c0", "c1")},
             {"le[a,b]": {"b0": "a0", "b1": "a0"}, "le[b,c]": {"c0": "b0", "c1": "b1"},
              "le[a,c]": {"c0": "a0", "c1": "a0"}}),
    # Objects listed out of name order, elements of mixed kinds.
    Presheaf(from_poset(["z", "a"], [("z", "a")]),
             {"a": ("b", Fraction(5, 2), ("t", 0), -3), "z": (1, "a", Fraction(1, 3))},
             {"le[z,a]": {"b": 1, Fraction(5, 2): "a", ("t", 0): 1, -3: Fraction(1, 3)}}),
]


def subobject_points(k):
    """The element id of a sub-object in `sub_heyting`: its (object, element) points."""
    return frozenset((obj, el) for obj, part in k.parts.items() for el in part)


@pytest.mark.parametrize("x", PRESHEAVES, ids=lambda x: "+".join(x.base.objects))
def test_subobjects_match_subset_filter(x):
    expected = brute_subobjects(x)
    assert enumerate_subobjects(x) == expected
    sa = sub_heyting(x)
    by_id = {subobject_points(k): k for k in expected}

    def leq(a, b):
        return all(by_id[a].parts[obj] <= by_id[b].parts[obj] for obj in x.base.objects)

    assert_same_algebra(sa.algebra, HeytingAlgebra(canon_sorted(by_id), leq))
    assert {key: subobject_of_id(x, key) for key in sa.algebra.elements} == by_id


CHAIN_POSET = (["c", "a", "b"], [("a", "b"), ("b", "c")])
ORDERED_BUILDS = {
    "powerset": (lambda: powerset_algebra(reversed(MIXED_POINTS[:6])),
                 lambda: brute_subsets(MIXED_POINTS[:6])),
    "lower-sets": (lambda: lower_set_algebra(*CHAIN_POSET),
                   lambda: brute_downsets(CHAIN_POSET[0], transitive_closure(*CHAIN_POSET))),
    "open-sets": (lambda: open_set_algebra([(), (2,), (1,), (1, 2), (1, 2, 3)]),
                  lambda: [frozenset(s) for s in ((), (2,), (1,), (1, 2), (1, 2, 3))]),
    "sieves": (lambda: sieve_heyting(DIAMOND, DIAMOND.objects[-1]),
               lambda: brute_sieves(DIAMOND, DIAMOND.objects[-1])),
    "sub-objects": (lambda: sub_heyting(PRESHEAVES[-1]).algebra,
                    lambda: map(subobject_points, brute_subobjects(PRESHEAVES[-1]))),
}


@pytest.mark.hash_seeds
@pytest.mark.parametrize("builder", ORDERED_BUILDS)
def test_elements_list_in_canonical_order(builder):
    build, expected = ORDERED_BUILDS[builder]
    assert build().elements == tuple(canon_sorted(expected()))


@pytest.mark.hash_seeds
def test_canonical_order_is_by_the_ranks_of_the_points():
    assert powerset_algebra(["b", 2, "a"]).elements == tuple(map(frozenset, (
        (), (2,), (2, "a"), (2, "a", "b"), (2, "b"), ("a",), ("a", "b"), ("b",))))


@pytest.mark.parametrize("listed", [False, True])
def test_unknown_points_and_other_ids_are_refused(listed):
    alg = lower_set_algebra(["a", "b"], [("a", "b")])  # {b} is no down-set
    good = frozenset({"a"})
    if listed:
        len(alg)
    for bad in [frozenset({"c"}), frozenset({"a", "c"}), frozenset({"b"}), {"a"}, "a", 1]:
        assert bad not in alg
        for op in (lambda: alg.leq(bad, good), lambda: alg.leq(good, bad),
                   lambda: alg.meet(good, bad), lambda: alg.join(bad, good),
                   lambda: alg.implies(bad, good), lambda: alg.implies(good, bad),
                   lambda: alg.negate(bad), lambda: alg.meet_all([good, bad]),
                   lambda: alg.join_all([bad])):
            with pytest.raises(UnknownElement, match="unknown element id"):
                op()


def _bitmasks(upset_of) -> tuple:
    return tuple(sum(1 << j for j in ups) for ups in upset_of)


@pytest.mark.hash_seeds
def test_classes_are_the_first_labelled_order_of_each_class():
    for n in range(1, 6):
        assert list(_classes(n)) == [_bitmasks(upset_of) for upset_of in brute_frame_classes(n)]
    # OEIS A000112: posets on n unlabelled points
    assert [len(_classes(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]


@pytest.mark.hash_seeds
def test_kripke_upsets_match_subset_filter():
    # the frames are the classes with a least point, which each has at w0
    for n in range(1, 6):
        rooted = [_bitmasks(upset_of) for upset_of in brute_frame_classes(n)
                  if any(len(ups) == n for ups in upset_of)]
        assert [frame[0] for frame in _frames(n)] == rooted
        for up, masks in _frames(n):
            upset_of = tuple(tuple(j for j in range(n) if u >> j & 1) for u in up)
            assert list(masks) == [sum(1 << i for i in ups)
                                   for ups in brute_upsets(upset_of)]
    # OEIS A000112 once more: a rooted frame is a root below any order
    assert [len(_frames(n)) for n in range(1, 6)] == [1, 1, 2, 5, 16]


def test_classes_on_six_points_are_the_318_of_oeis_a000112():
    assert len(_classes(6)) == 318


def test_frames_label_every_world_below_the_worlds_above_it():
    # the forcing evaluator reaches the worlds above by right shifts only
    for n in range(1, 6):
        for up, _ in _frames(n):
            assert all(v > w for w in range(n) for v in range(n) if v != w and up[w] >> v & 1)


def test_posets_match_pairwise_transitivity_scan():
    for n in range(1, 5):
        assert list(_posets(n)) == list(brute_posets(n))
    # OEIS A001035: labelled posets on n points
    assert [len(_posets(n)) for n in range(1, 6)] == [1, 3, 19, 219, 4231]


# -- output sensitivity: cost follows the down-sets, not the 2^n subsets ------

def test_powerset_at_the_cap_builds_quickly():
    with budget("powerset_algebra(range(12)) with its Boolean check", 2.0):
        size = len(powerset_algebra(range(12)))
    assert size == DEFAULT_CAP == 4096


def test_declared_six_point_powerset_builds_quickly():
    document = {"algebras": [{"name": "bool6", "kind": "powerset", "base": list("abcdef")}]}
    with budget("build_project with a declared 6-point powerset", 0.5):
        project = build_project(document)
    assert len(project.algebras["bool6"]) == 64


def chain(n: int) -> FiniteCategory:
    points = [f"p{i:02d}" for i in range(n)]
    return from_poset(points, list(zip(points, points[1:])))


def test_sieves_on_long_chain_scan_only_the_sieves():
    long_chain = chain(21)
    with budget("sieves_on at the top of a 21-point chain", 1.0):
        sieves = sieves_on(long_chain, "p20")
    assert len(sieves) == 22


def test_subobjects_of_the_terminal_presheaf_on_a_long_chain():
    sa = sub_heyting(terminal_presheaf(chain(21)))
    assert len(sa.algebra) == 22


# -- the caps count down-sets, not points ---------------------------------------

def test_thirteen_point_chain_declares_its_fourteen_element_algebras():
    elements = list(chain(13).objects)
    order = [list(pair) for pair in zip(elements, elements[1:])]
    project = build_project({
        "posets": [{"name": "chain13", "elements": elements, "order": order}],
        "algebras": [
            {"name": "lower", "kind": "lower_sets", "elements": elements, "order": order},
            {"name": "sieves", "kind": "sieves", "category": "chain13", "object": "p12"},
        ]})
    lower, sieves = project.algebras["lower"], project.algebras["sieves"]
    assert len(lower) == len(sieves) == 14


def test_cap_counts_the_downsets_it_enumerates(monkeypatch):
    monkeypatch.setattr(heyting, "DEFAULT_CAP", 8)
    assert len(powerset_algebra(range(3))) == 8
    monkeypatch.setattr(heyting, "DEFAULT_CAP", 7)
    with pytest.raises(CapExceeded, match=r"more than 7 subsets of 3 points \(cap 7\)"):
        len(powerset_algebra(range(3)))
    monkeypatch.setattr(heyting, "DEFAULT_CAP", 2)
    with pytest.raises(CapExceeded, match="more than 2 lower sets of 2 points"):
        len(lower_set_algebra(["a", "b"], []))
    assert sorted(iter_downsets([1, 3, 7], cap=4)) == [0, 1, 3, 7]
    with pytest.raises(CapExceeded):
        list(iter_downsets([1, 3, 7], cap=3))


def test_discrete_presheaf_past_the_cap_is_refused_in_time():
    with budget("2^21 sub-objects refused at the 2^20 cap", 5.0):
        with pytest.raises(CapExceeded, match=f"more than {SUB_ENUM_CAP} sub-objects"):
            enumerate_subobjects(set_presheaf(range(21)))
