"""The exponential-element format that `presheaf.exp_element` owns, and the
canonical stage order that products keep.

An element comes out in canon_key order without a sort, and keeps its hash
after the first use; neither may show to a caller.  A product's stages also
come out in canon_key order without a sort.  Every builder of
power-object elements (the exponential's stages, a transpose, a
comprehension, `delta_element`) must give elements that are equal, and
hash-equal, to each other and to plain tuples of the same cells.
"""
import itertools
import random
from fractions import Fraction

import pytest
from helpers import (
    CHAIN3,
    DIAMOND,
    MONOID,
    PT,
    TWO,
    VEE,
    assert_equality_matches_reference,
    random_presheaf,
    reference_presheaf_key,
    reversed_copy,
    set_presheaf,
    two_point_presheaf,
)

from toposlang._canon import canon_key, canon_sorted
from toposlang.category import principal_sieve
from toposlang.intervals import IntervalSet
from toposlang.local import RQ, SIGMA, PowerType, Signature, parse_term
from toposlang.presheaf import (
    NatTransform,
    Presheaf,
    classifier_kit,
    exp_element,
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
            two_point_presheaf([1, "x"], [0], {1: 0, "x": 1})]
    broken = [two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0"}),
              two_point_presheaf(["x0", "x1"], ["y0"], {"x1": "y0"}),
              two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"}),
              two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0", "junk": "y0"}),
              two_point_presheaf(["x0", "x1"], ["y0"], {"junk": "y0", "x1": "y0", "x0": "y0"}),
              two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0", "junk": "y1"}),
              Presheaf(TWO, {"q": ("x0",), "p": ("y0",)}, {"le[p,q]": {"x0": "y0"},
                                                          "id[q]": {}})]
    assert [validate_presheaf(b).ok for b in broken] == [False, False, True, False, False,
                                                         False, False]
    pool += broken
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
    top = principal_sieve(eff.rep.base, eff.point).members
    for r in range(len(values.stage(eff.point)) + 1):
        for chosen in itertools.combinations(values.stage(eff.point), r):
            delta = IntervalSet.empty()
            for v in chosen:
                delta = delta.union(IntervalSet.point(v))
            element = eff.delta_element(delta)
            assert_interchangeable([element, by_members[frozenset(chosen)]])
            image = family.apply(eff.point, element)
            assert frozenset(s for (_, _, s), truth in image if truth == top) == \
                eff.preimage("A", delta)
