"""The exponential-element format that `presheaf` owns, written cell by cell
by the reference `helpers.exp_element`, and the canonical stage order that
products and exponentials keep.

An element comes out in canon_key order without a sort, and keeps its hash
after the first use; neither may show to a caller.  A product's stages also
come out in canon_key order without a sort, and so do an exponential's,
read off the hom search: the same stages, tables and order as the
construction through a representable and a product.  Every builder of
power-object elements (the exponential's stages, a transpose, a
comprehension, `delta_element`) must give elements that are equal, and
hash-equal, to each other and to plain tuples of the same cells.
`canon_sorted` sorts plain stages, strs or tuples of strs, without the key,
and must give the key's order on every kind.
"""
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    CHAIN3,
    DIAMOND,
    MONOID,
    PT,
    TWO,
    VEE,
    assert_equality_matches_reference,
    budget,
    exp_element,
    principal_sieve,
    random_presheaf,
    reference_exponential,
    reference_presheaf_key,
    reversed_copy,
    set_presheaf,
    two_point_presheaf,
)

from toposlang import presheaf
from toposlang._canon import canon_key, canon_sorted
from toposlang.errors import CapExceeded
from toposlang.intervals import IntervalSet
from toposlang.local import RQ, SIGMA, PowerType, Signature, parse_term
from toposlang.presheaf import (
    PRODUCT_CAP,
    NatTransform,
    Presheaf,
    PresheafError,
    classifier_kit,
    exponential,
    power_object,
    product_presheaf,
    terminal_presheaf,
    validate_presheaf,
)
from toposlang.prop.semantics import ClassicalSystem
from toposlang.rep import EffectiveClassicalRep, build_rep, interpret_term, prop_family

BASES = [PT, CHAIN3, VEE, DIAMOND, MONOID]


def sample(base):
    """A presheaf on the base; on the one-object base, a set of mixed kinds
    whose canonical order is not the order of their reprs."""
    if base is PT:
        return Presheaf(PT, {"pt": (Fraction(5, 2), 10, "a", -3, ("t", 0), Fraction(1, 3))}, {})
    return random_presheaf(base, random.Random(f"format:{'+'.join(base.objects)}"), max_size=2)


def assert_interchangeable(elements):
    """Pairwise equal and hash-equal, each a dict key the others find, and
    the same for plain tuples of the same cells, rebuilt cell by cell."""
    plain = [tuple(elements[0]), tuple((tuple(key), y) for key, y in elements[0])]
    assert all(type(p) is tuple for p in plain)
    for a, b in itertools.product(elements + plain, repeat=2):
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"


@pytest.mark.parametrize("base", BASES, ids=lambda c: "+".join(c.objects))
def test_exp_element_is_its_cells_in_canonical_order(base):
    x = sample(base)

    def value(b, g, xv):
        return (g, xv)

    for obj in base.objects:
        cells = [((base.morphism(g).dom, g, xv), value(base.morphism(g).dom, g, xv))
                 for g in base.into(obj) for xv in x.stage(base.morphism(g).dom)]
        assert exp_element(base, obj, x, value) == tuple(sorted(cells, key=canon_key))


@pytest.mark.hash_seeds
@pytest.mark.parametrize("base", BASES, ids=lambda c: "+".join(c.objects))
def test_product_stages_come_out_in_canonical_order(base):
    # Factors of every element kind: numbers and strings given out of
    # canonical order, with 1 in one factor and Fraction(1) in another, the
    # classifier's frozensets, power-object elements and the sampled
    # presheaf's strings.
    mixed = (Fraction(5, 2), 1, "b", -3, "a", Fraction(1, 3))
    constant = Presheaf(base, {obj: mixed for obj in base.objects},
                        {m.id: {v: v for v in mixed} for m in base.morphisms})
    ones = Presheaf(base, {obj: (Fraction(1), "1", 0) for obj in base.objects},
                    {m.id: {v: v for v in (Fraction(1), "1", 0)} for m in base.morphisms})
    omega = classifier_kit(base).omega
    power = power_object(terminal_presheaf(base))
    for factors in ([constant], [omega], [power], [constant, omega], [power, ones],
                    [sample(base), constant], [omega, ones, power],
                    [constant, power, sample(base)]):
        prod = product_presheaf(factors)
        for obj in base.objects:
            stage = prod.stage(obj)
            assert stage == tuple(canon_sorted(set(stage)))
        assert prod == Presheaf(base, prod.at, prod.maps)


@pytest.mark.hash_seeds
@pytest.mark.parametrize("base", BASES + [TWO], ids=lambda c: "+".join(c.objects))
def test_exponential_matches_the_construction_through_representables(base):
    # Power objects of the sample, the terminal object and the classifier,
    # and Y^X for small random X and Y, the sample among the Ys.
    rng = random.Random(f"exponential:{'+'.join(base.objects)}")
    omega, one = classifier_kit(base).omega, terminal_presheaf(base)
    pairs = [(sample(base), omega), (one, omega), (omega, omega),
             (random_presheaf(base, rng, max_size=2), sample(base))]
    pairs += [(random_presheaf(base, rng, max_size=2), random_presheaf(base, rng, max_size=3))
              for _ in range(4)]
    for x, y in pairs:
        got, expected = exponential(x, y), reference_exponential(x, y)
        for obj in base.objects:
            assert got.stage(obj) == expected.stage(obj)
            assert got.stage(obj) == tuple(canon_sorted(got.stage(obj)))
        assert got.maps == expected.maps
        assert got == expected and validate_presheaf(got).ok


@pytest.mark.hash_seeds
def test_exponential_stage_past_the_product_cap_is_refused_at_once(monkeypatch):
    # 2^(PRODUCT_CAP + 1) subsets at the one stage: refused before the search.
    wide = Presheaf(PT, {"pt": tuple(range(PRODUCT_CAP + 1))}, {})
    with budget("a power object past the cap refused", 1.0):
        with pytest.raises(CapExceeded, match=f"has {PRODUCT_CAP + 1} cells, exceeds cap"):
            power_object(wide)
    # On the two-point base the stage at q has a cell for each element at q
    # and at p; the stage at p has one for each element at p.
    x = Presheaf(TWO, {"q": ("x0", "x1"), "p": ("y0", "y1")},
                 {"le[p,q]": {"x0": "y0", "x1": "y1"}})
    monkeypatch.setattr(presheaf, "PRODUCT_CAP", 4)
    assert len(power_object(x).stage("q")) == 9
    monkeypatch.setattr(presheaf, "PRODUCT_CAP", 3)
    with pytest.raises(CapExceeded, match="exponential stage 'q' has 4 cells, exceeds cap 3"):
        exponential(x, x)


@pytest.mark.parametrize("base", BASES, ids=lambda c: "+".join(c.objects))
def test_presheaf_equality_matches_the_reference_key(base):
    # Each presheaf next to an equal copy whose stages and tables were
    # listed in reverse, so its dicts were filled in another order.
    x = sample(base)
    pool = [x, reversed_copy(x), terminal_presheaf(base), classifier_kit(base).omega,
            power_object(terminal_presheaf(base)), product_presheaf([x, x])]
    pool += [reversed_copy(p) for p in pool[2:]]
    assert_equality_matches_reference(pool, reference_presheaf_key)


def test_equality_of_numeric_and_broken_presheaves_matches_the_reference_key():
    pool = [set_presheaf([1, 2]), set_presheaf([Fraction(1), 2]),
            set_presheaf([Fraction(1), Fraction(2)]), set_presheaf([1, Fraction(1, 2)]),
            two_point_presheaf([1, "x"], [0], {1: 0, "x": 0}),
            two_point_presheaf([Fraction(1), "x"], [Fraction(0)], {Fraction(1): 0, "x": 0}),
            two_point_presheaf(["x", 1], [0], {"x": Fraction(0), 1: Fraction(0)}),
            two_point_presheaf([1, "x"], [0, 1], {1: 0, "x": 0}),
            two_point_presheaf([1, "x"], [0, 1], {1: 0, "x": 1}),
            two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"})]
    # The broken tables never become presheaves: the constructor names
    # their first violation.
    broken = [(["x0", "x1"], ["y0"], {"x0": "y0"}, ("not-total", "le[p,q]", "x1")),
              (["x0", "x1"], ["y0"], {"x1": "y0"}, ("not-total", "le[p,q]", "x0")),
              (["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0", "junk": "y0"},
               ("junk-domain", "le[p,q]", "junk")),
              (["x0", "x1"], ["y0"], {"junk": "y0", "x1": "y0", "x0": "y0"},
               ("junk-domain", "le[p,q]", "junk")),
              (["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0", "junk": "y1"},
               ("junk-domain", "le[p,q]", "junk")),
              ([1, "x"], [0], {1: 0, "x": 1}, ("bad-codomain", "le[p,q]", "x"))]
    for at_q, at_p, down, first in broken:
        with pytest.raises(PresheafError, match=re.escape(f"violates functor laws: {first}")):
            two_point_presheaf(at_q, at_p, down)
    with pytest.raises(PresheafError, match=re.escape("('not-total', 'id[q]', 'x0')")):
        Presheaf(TWO, {"q": ("x0",), "p": ("y0",)}, {"le[p,q]": {"x0": "y0"}, "id[q]": {}})
    pool += [reversed_copy(p) for p in pool]
    assert_equality_matches_reference(pool, reference_presheaf_key)


@pytest.mark.parametrize("base", BASES, ids=lambda c: "+".join(c.objects))
def test_every_builder_gives_interchangeable_elements(base):
    x = sample(base)
    identity = NatTransform(x, x, {obj: {e: e for e in x.stage(obj)} for obj in base.objects})
    rep = build_rep(Signature({"A": (SIGMA, RQ)}), base, {"Sigma": x, "R": x}, {"A": identity})
    # With A the identity, the transpose and the comprehension both send D
    # to D; the comprehension's source is the one-factor context product.
    family = prop_family("A", rep)
    comprehension = interpret_term(parse_term("{ s : Sigma | A(s) in D }", rep.signature),
                                   (("D", PowerType(RQ)),), rep)
    px = power_object(x)
    for obj in base.objects:
        stage = px.stage(obj)
        assert len({theta: None for theta in stage}) == len(stage)
        for theta in stage:
            assert_interchangeable([theta, family.apply(obj, theta),
                                    comprehension.apply(obj, (theta,))])


def test_delta_elements_are_interchangeable_with_the_power_object_stage():
    system = ClassicalSystem(
        states=("s1", "s2", "s3", "s4"),
        quantities={"A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(-4),
                          "s4": Fraction(1, 3)}})
    eff = EffectiveClassicalRep.build(system)
    values = eff.rep.ground("R")
    stage = power_object(values).stage(eff.point)
    by_members = {frozenset(v for (_, _, v), truth in theta if truth): theta for theta in stage}
    family = prop_family("A", eff.rep)
    top = principal_sieve(eff.rep.base, eff.point)
    for r in range(len(values.stage(eff.point)) + 1):
        for chosen in itertools.combinations(values.stage(eff.point), r):
            delta = IntervalSet.empty()
            for v in chosen:
                delta = delta.union(IntervalSet.point(v))
            element = eff.delta_element(delta)
            written = exp_element(eff.rep.base, eff.point, values,
                                  lambda b, g, v: top if v in chosen else frozenset())
            assert_interchangeable([element, by_members[frozenset(chosen)], written])
            image = family.apply(eff.point, element)
            assert frozenset(s for (_, _, s), truth in image if truth == top) == \
                eff.preimage("A", delta)


_TEXT = st.text("ab*", max_size=3)
_NUMBERS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
_SCALARS = st.one_of(_TEXT, _NUMBERS)
_VALUE_LISTS = st.one_of(
    st.lists(_TEXT),
    st.lists(st.lists(_TEXT, max_size=3).map(tuple)),
    st.lists(_NUMBERS),
    st.lists(st.frozensets(_TEXT, max_size=3)),
    # mixed kinds, and tuples that are not all strs
    st.lists(st.one_of(_TEXT, st.lists(_TEXT, max_size=2).map(tuple))),
    st.lists(st.lists(_SCALARS, max_size=3).map(tuple)),
    st.lists(st.one_of(_SCALARS, st.frozensets(_SCALARS, max_size=2),
                       st.lists(_SCALARS, max_size=2).map(tuple))),
)


@pytest.mark.hash_seeds
@settings(max_examples=200, deadline=None)
@given(_VALUE_LISTS)
def test_canon_sorted_is_the_canon_key_sort(values):
    assert canon_sorted(values) == sorted(values, key=canon_key)
    assert canon_sorted(iter(values)) == sorted(values, key=canon_key)
