import os
import re
import subprocess
import sys
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
    PT,
    TWO,
    HeytingAlgebra,
    assert_equality_matches_reference,
    brute_global_elements,
    budget,
    check_heyting_laws,
    compose_nats,
    evaluation,
    exp_element,
    exp_lookup,
    exp_untranspose,
    presheaf_fixture_pool,
    reference_nat_key,
    reversed_copy,
    set_presheaf,
    subobject_implies,
    two_point_presheaf,
    verify_exponential_adjunction,
    verify_product_universal,
)

from toposlang import _canon, presheaf
from toposlang._canon import canon_key
from toposlang.category import from_poset, one_object_category, principal_sieve
from toposlang.errors import CapExceeded
from toposlang.presheaf import (
    CACHE_SIZE,
    PRODUCT_CAP,
    GlobalElement,
    NatTransform,
    Presheaf,
    PresheafError,
    ShapeMismatch,
    Subobject,
    char_morphism,
    classifier_kit,
    enumerate_nats,
    enumerate_subobjects,
    exp_column,
    exp_transpose,
    exponential,
    global_elements,
    power_object,
    power_transpose,
    product,
    product_presheaf,
    sub_heyting,
    subobject_of_char,
    terminal_presheaf,
    validate_nat,
    validate_presheaf,
)


def fs(*xs):
    return frozenset(xs)


X2 = two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"})


def test_constant_presheaf_is_valid():
    for cat in ALL_BASES:
        assert validate_presheaf(terminal_presheaf(cat)).ok


def test_non_total_restriction_is_reported():
    broken = two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0"})
    report = validate_presheaf(broken)
    assert ("not-total", "le[p,q]", "x1") in report.items


def test_identity_transformation_is_natural():
    ident = NatTransform(X2, X2, {obj: {x: x for x in X2.stage(obj)}
                                  for obj in TWO.objects})
    assert validate_nat(ident).ok


def test_non_natural_transformation_is_reported():
    y = two_point_presheaf(["u"], ["v0", "v1"], {"u": "v0"})
    n = NatTransform(y, y, {"q": {"u": "u"}, "p": {"v0": "v1", "v1": "v0"}})
    report = validate_nat(n)
    assert any(v[0] == "naturality" for v in report.items)


def test_broken_identity_table_is_still_reported_by_naturality():
    # validate_nat skips the squares along identities only when both
    # presheaves' identity tables fix their stages; a swapping one keeps them
    swapped = Presheaf(PT, {"pt": ("a", "b")}, {"id[pt]": {"a": "b", "b": "a"}})
    plain = set_presheaf(["a", "b"])
    assert not swapped._identity_law and plain._identity_law
    ident = {"pt": {"a": "a", "b": "b"}}
    assert validate_nat(NatTransform(plain, plain, ident)).ok
    for source, target in ((swapped, plain), (plain, swapped)):
        report = validate_nat(NatTransform(source, target, ident))
        assert report.items == [("naturality", "id[pt]", "a"), ("naturality", "id[pt]", "b")]
    square = Presheaf(TWO, {"q": ("x",), "p": ("y",)},
                      {"le[p,q]": {"x": "y"}, "id[q]": {"x": "x"}, "id[p]": {}})
    assert not square._identity_law
    with pytest.raises(PresheafError, match="restriction along 'id\\[p\\]' undefined"):
        validate_nat(NatTransform(square, square, {"q": {"x": "x"}, "p": {"y": "y"}}))


def test_product_is_refused_before_it_is_built_past_its_cap():
    eight = set_presheaf(range(8))
    at_cap = product_presheaf([eight] * 5)
    assert len(at_cap.stage("pt")) == PRODUCT_CAP == 8 ** 5
    assert at_cap._identity_law and validate_presheaf(at_cap).ok
    with pytest.raises(CapExceeded, match=f"has {8 ** 8} elements, exceeds cap"):
        product_presheaf([eight] * 8)


def test_classifier_on_one_object_category_is_two_valued():
    kit = classifier_kit(PT)
    assert kit.omega.stage("pt") == (fs(), fs("id[pt]"))
    assert kit.true_arrow.apply("pt", ()) == fs("id[pt]")
    assert validate_presheaf(kit.omega).ok and validate_nat(kit.true_arrow).ok


def test_classifier_on_two_point_poset():
    kit = classifier_kit(TWO)
    assert len(kit.omega.stage("q")) == 3
    assert len(kit.omega.stage("p")) == 2
    assert kit.omega.apply("le[p,q]", fs("le[p,q]")) == fs("id[p]")
    assert kit.true_arrow.apply("q", ()) == fs("id[q]", "le[p,q]")
    for cat in ALL_BASES:
        k = classifier_kit(cat)
        assert validate_presheaf(k.omega).ok and validate_nat(k.true_arrow).ok
        for obj in cat.objects:
            ident = cat.id_of(obj)
            for s in k.omega.stage(obj):
                assert k.omega.apply(ident, s) == s


def test_char_morphism_of_whole_and_empty():
    kit = classifier_kit(TWO)
    whole = Subobject(X2, {obj: X2.stage(obj) for obj in TWO.objects})
    chi = char_morphism(whole)
    for obj in TWO.objects:
        for x in X2.stage(obj):
            assert chi.apply(obj, x) == principal_sieve(TWO, obj).members
    empty = Subobject(X2, {})
    chi0 = char_morphism(empty)
    for obj in TWO.objects:
        for x in X2.stage(obj):
            assert chi0.apply(obj, x) == fs()
    assert validate_nat(chi).ok and validate_nat(chi0).ok


def test_char_morphism_of_half_open_subterminal():
    one = terminal_presheaf(TWO)
    k = Subobject(one, {"q": (), "p": ((),)})
    chi = char_morphism(k)
    assert chi.apply("q", ()) == fs("le[p,q]")
    assert chi.apply("p", ()) == fs("id[p]")
    assert subobject_of_char(chi) == k


def test_subobject_of_char_rejects_an_arrow_that_is_not_natural():
    # the top sieve at q restricts to the top sieve at p, not to the empty one
    one = terminal_presheaf(TWO)
    chi = NatTransform(one, classifier_kit(TWO).omega,
                       {"q": {(): fs("id[q]", "le[p,q]")}, "p": {(): fs()}})
    with pytest.raises(PresheafError, match="characteristic arrow is not natural"):
        subobject_of_char(chi)


def test_char_rejects_invalid_subobject():
    bad = Subobject(X2, {"q": ("x0",), "p": ()})  # not restriction-closed
    with pytest.raises(PresheafError):
        char_morphism(bad)


def test_char_morphism_rejects_a_part_that_is_not_a_subset_or_not_closed():
    outside = Subobject(X2, {"q": ("x0", "w"), "p": ("y0",)})
    assert outside.violations() == [("not-a-subset", "q", "w")]
    with pytest.raises(PresheafError, match=r"\('not-a-subset', 'q', 'w'\)"):
        char_morphism(outside)
    open_part = Subobject(X2, {"q": ("x1",), "p": ()})
    assert open_part.violations() == [("not-restriction-closed", "le[p,q]", "x1")]
    with pytest.raises(PresheafError, match=r"\('not-restriction-closed', 'le\[p,q\]', 'x1'\)"):
        char_morphism(open_part)


@pytest.mark.hash_seeds
def test_char_morphism_names_the_first_violation_in_stage_order():
    # Every element of the q-stage leaves the part along le[p,q], and the
    # part holds two elements outside X; the messages must not depend on
    # the order a frozenset happens to list them in.
    x = two_point_presheaf(["d", "b", "a", "c"], ["y"], {e: "y" for e in "abcd"})
    unclosed = Subobject(x, {"q": ("c", "d", "a", "b"), "p": ()})
    assert unclosed.violations() == [("not-restriction-closed", "le[p,q]", e) for e in "abcd"]
    with pytest.raises(PresheafError, match=r"'le\[p,q\]', 'a'\)"):
        char_morphism(unclosed)
    outside = Subobject(x, {"q": ("a", "zz", "zb"), "p": ("y", "w")})
    assert outside.violations()[:2] == [("not-a-subset", "p", "w"), ("not-a-subset", "q", "zb")]
    with pytest.raises(PresheafError, match=r"\('not-a-subset', 'p', 'w'\)"):
        char_morphism(outside)


def test_subobject_of_char_checks_an_equal_copy_of_a_certified_arrow(monkeypatch):
    k = Subobject(X2, {"q": ("x0",), "p": ("y0",)})
    chi = char_morphism(k)
    copy = NatTransform(chi.source, chi.target, chi.components)
    assert chi._natural and not copy._natural
    assert copy == chi and hash(copy) == hash(chi)
    checked = []

    def spy(n):
        checked.append(n)
        return validate_nat(n)

    monkeypatch.setattr(presheaf, "validate_nat", spy)
    assert subobject_of_char(chi) == k and checked == []
    assert subobject_of_char(copy) == k and checked == [copy]


def test_categories_built_apart_share_a_hash_and_a_kit_cache_entry():
    first = from_poset(["kit-p", "kit-q"], [("kit-p", "kit-q")])
    second = from_poset(["kit-p", "kit-q"], [("kit-p", "kit-q")])
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != from_poset(["kit-p", "kit-q"], [])
    before = classifier_kit.cache_info()
    assert classifier_kit(first) is classifier_kit(second)
    after = classifier_kit.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_char_and_inverse_are_mutually_inverse_on_pool():
    pool = presheaf_fixture_pool(10)
    assert len(pool) >= 10
    for x in pool:
        subs = enumerate_subobjects(x)
        homs = enumerate_nats(x, classifier_kit(x.base).omega)
        assert len(subs) == len(homs)
        chis = set()
        for k in subs:
            chi = char_morphism(k)
            assert validate_nat(chi).ok
            assert subobject_of_char(chi) == k
            chis.add(chi)
        assert chis == set(homs)
        for chi in homs:
            assert char_morphism(subobject_of_char(chi)) == chi


def test_sub_of_terminal_on_two_point_poset():
    one = terminal_presheaf(TWO)
    sa = sub_heyting(one)
    assert len(sa.algebra) == 3
    # excluded middle fails at the half-open sub-object
    # an element id is the frozenset of the sub-object's (object, element) points
    half_key = frozenset({("p", ())})
    assert sa.subobjects[half_key] == Subobject(one, {"q": (), "p": ((),)})
    neg = sa.algebra.negate(half_key)
    assert sa.subobjects[neg].parts == {"q": fs(), "p": fs()}
    assert sa.algebra.join(half_key, neg) != sa.algebra.top


def test_sub_of_terminal_in_set_is_two_valued_boolean():
    sa = sub_heyting(terminal_presheaf(PT))
    assert len(sa.algebra) == 2
    for a in sa.algebra.elements:
        assert sa.algebra.join(a, sa.algebra.negate(a)) == sa.algebra.top


def test_sub_heyting_scan_matches_stagewise_formula():
    for x in (X2, terminal_presheaf(TWO), set_presheaf(["u", "v"])):
        sa = sub_heyting(x)
        assert check_heyting_laws(sa.algebra).ok
        for a in sa.algebra.elements:
            for b in sa.algebra.elements:
                got = sa.subobjects[sa.algebra.implies(a, b)]
                want = subobject_implies(sa.subobjects[a], sa.subobjects[b])
                assert got == want


def test_sub_heyting_order_matches_char_pointwise_order():
    x = X2
    sa = sub_heyting(x)
    for a in sa.algebra.elements:
        for b in sa.algebra.elements:
            chi_a = char_morphism(sa.subobjects[a])
            chi_b = char_morphism(sa.subobjects[b])
            pointwise = all(chi_a.apply(obj, el) <= chi_b.apply(obj, el)
                            for obj in x.base.objects for el in x.stage(obj))
            assert sa.algebra.leq(a, b) == pointwise


def test_product_sizes_and_projections():
    y = two_point_presheaf(["u0", "u1", "u2"], ["w0", "w1"],
                           {"u0": "w0", "u1": "w1", "u2": "w0"})
    dia = product(X2, y)
    for obj in TWO.objects:
        assert len(dia.presheaf.stage(obj)) == len(X2.stage(obj)) * len(y.stage(obj))
    for proj in dia.projections:
        assert validate_nat(proj).ok
    assert validate_presheaf(dia.presheaf).ok


def test_product_with_terminal_is_isomorphic_to_x():
    one = terminal_presheaf(TWO)
    dia = product(X2, one)
    # explicit iso (x, ()) -> x
    to_x = NatTransform(dia.presheaf, X2,
                        {obj: {(x, ()): x for x, _ in dia.presheaf.stage(obj)}
                         for obj in TWO.objects})
    back = NatTransform(X2, dia.presheaf,
                        {obj: {x: (x, ()) for x in X2.stage(obj)}
                         for obj in TWO.objects})
    assert validate_nat(to_x).ok and validate_nat(back).ok
    assert compose_nats(to_x, back) == NatTransform(
        X2, X2, {obj: {x: x for x in X2.stage(obj)} for obj in TWO.objects})


def test_product_universal_property_by_exhaustion():
    one = terminal_presheaf(TWO)
    dia = product(X2, one)
    assert verify_product_universal(dia, two_point_presheaf(["z"], ["z'"], {"z": "z'"}))


def test_exponential_sizes_in_set():
    x = set_presheaf(["a", "b"])
    y = set_presheaf([0, 1, 2])
    assert len(exponential(x, y).stage("pt")) == 9
    assert len(power_object(x).stage("pt")) == 4


def test_power_of_terminal_is_isomorphic_to_omega():
    kit = classifier_kit(TWO)
    one = terminal_presheaf(TWO)
    p1 = power_object(one)
    # Yoneda iso: theta -> theta(id,()); inverse S -> (f,()) -> pullback of S along f
    fwd = {}
    for obj in TWO.objects:
        fwd[obj] = {theta: dict(theta)[(obj, TWO.id_of(obj), ())]
                    for theta in p1.stage(obj)}
    to_omega = NatTransform(p1, kit.omega, fwd)
    assert validate_nat(to_omega).ok
    for obj in TWO.objects:
        assert sorted(map(sorted, fwd[obj].values())) == \
            sorted(map(sorted, kit.omega.stage(obj)))
        assert len(set(fwd[obj].values())) == len(p1.stage(obj)) == \
            len(kit.omega.stage(obj))


def test_exponential_restriction_is_functorial_everywhere():
    for base in (TWO, CHAIN3, MONOID):
        kit = classifier_kit(base)
        px = power_object(kit.terminal)
        assert validate_presheaf(px).ok
        po = power_object(kit.omega)
        assert validate_presheaf(po).ok


def test_eval_arrow_and_transpose_round_trip():
    x = X2
    kit = classifier_kit(TWO)
    z = terminal_presheaf(TWO)
    dia = product(z, x)
    # name of "true on all of X": transpose of constant-principal arrow
    const_true = NatTransform(dia.presheaf, kit.omega,
                              {obj: {el: principal_sieve(TWO, obj).members
                                     for el in dia.presheaf.stage(obj)}
                               for obj in TWO.objects})
    name = power_transpose(const_true, z, x)
    assert validate_nat(name).ok
    assert exp_untranspose(name, z, x, kit.omega) == const_true
    # the name is a global element of PX
    px = power_object(x)
    ge = GlobalElement(px, {obj: name.apply(obj, ()) for obj in TWO.objects})
    assert not ge.violations()
    # eval against the name recovers constant-true
    ev = evaluation(x, kit.omega)
    for obj in TWO.objects:
        for xv in x.stage(obj):
            got = ev.apply(obj, (name.apply(obj, ()), xv))
            assert got == principal_sieve(TWO, obj).members


def test_all_transposes_round_trip_on_two_point_fixture():
    z = two_point_presheaf(["z0"], ["z'"], {"z0": "z'"})
    x = terminal_presheaf(TWO)
    y = classifier_kit(TWO).omega
    dia = product(z, x)
    for f in enumerate_nats(dia.presheaf, y):
        h = exp_transpose(f, z, x, y)
        assert exp_untranspose(h, z, x, y) == f
    exp = exponential(x, y)
    for h in enumerate_nats(z, exp):
        assert exp_transpose(exp_untranspose(h, z, x, y), z, x, y) == h


def test_exp_transpose_rejects_an_arrow_that_is_not_natural():
    # the top sieve at q restricts to the top sieve at p, not to the empty one
    z, x = terminal_presheaf(TWO), X2
    omega = classifier_kit(TWO).omega
    prod = product_presheaf([z, x])
    top = {obj: principal_sieve(TWO, obj).members for obj in TWO.objects}
    f = NatTransform(prod, omega, {"q": {el: top["q"] for el in prod.stage("q")},
                                   "p": {el: fs() for el in prod.stage("p")}})
    assert not validate_nat(f).ok
    with pytest.raises(PresheafError, match="non-natural family: restriction along 'le\\[p,q\\]'"):
        exp_transpose(f, z, x, omega)
    outside = NatTransform(prod, omega, {obj: {el: fs("junk") for el in prod.stage(obj)}
                                         for obj in TWO.objects})
    with pytest.raises(PresheafError, match="outside Y's stage"):
        exp_transpose(outside, z, x, omega)


def _generated(x: Presheaf, points) -> Subobject:
    """The sub-object of x that the (object, element) points generate."""
    cat = x.base
    parts: dict = {obj: set() for obj in cat.objects}
    for obj, el in points:
        for f in cat.into(obj):
            parts[cat.morphism(f).dom].add(x.apply(f, el))
    return Subobject(x, parts)


CERTIFIED_POOL = {base: [x for x in presheaf_fixture_pool() if x.base == base]
                  + [classifier_kit(base).terminal, classifier_kit(base).omega]
                  for base in ALL_BASES + [DIAMOND]}


def _points(x: Presheaf) -> list:
    return [(obj, el) for obj in x.base.objects for el in x.stage(obj)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certified_arrows_pass_validate_nat(data):
    # Differential test of the construction-time certificate: every arrow
    # char_morphism and power_transpose certify passes validate_nat, and
    # every transposed element lies in the listed power object.
    base = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    x = data.draw(st.sampled_from(CERTIFIED_POOL[base]))
    outside = [(obj, "outside") for obj in base.objects]
    picked = data.draw(st.sets(st.sampled_from(_points(x) + outside)))
    parts = Subobject(x, {obj: {el for o, el in picked if o == obj} for obj in base.objects})
    if parts.violations():
        with pytest.raises(PresheafError, match=re.escape(str(parts.violations()[0]))):
            char_morphism(parts)
    else:
        chi = char_morphism(parts)
        assert chi._natural and validate_nat(chi).ok
        assert subobject_of_char(chi) == parts
    z = data.draw(st.sampled_from(CERTIFIED_POOL[base]))
    prod = product_presheaf([z, x])
    k = _generated(prod, data.draw(st.sets(st.sampled_from(_points(prod)), max_size=3)))
    f = char_morphism(k)
    assert f._natural and validate_nat(f).ok
    name = power_transpose(f, z, x)
    assert name._natural and validate_nat(name).ok
    listed = power_object(x)
    for obj in base.objects:
        members = set(listed.stage(obj))
        assert all(name.apply(obj, zv) in members for zv in z.stage(obj))
    assert exp_untranspose(name, z, x, classifier_kit(base).omega) == f


def test_exponential_adjunction_bijection_on_fixtures():
    z = two_point_presheaf(["z0", "z1"], ["z'"], {"z0": "z'", "z1": "z'"})
    x = X2
    y = classifier_kit(TWO).omega
    assert verify_exponential_adjunction(z, x, y)
    assert verify_exponential_adjunction(set_presheaf([0, 1]), set_presheaf(["a"]),
                                         set_presheaf(["u", "v"]))


def test_evaluation_against_general_exponential():
    x = set_presheaf(["a", "b"])
    y = set_presheaf([0, 1])
    ev = evaluation(x, y)
    exp = exponential(x, y)
    for theta in exp.stage("pt"):
        table = {cell[0][2]: cell[1] for cell in theta}
        for xv in x.stage("pt"):
            assert ev.apply("pt", (theta, xv)) == table[xv]


def test_exp_element_cells_are_sorted_and_read_back_by_lookup():
    x = X2

    def value(b, g, xv):
        return (b, g, xv, "y")

    for obj in TWO.objects:
        element = exp_element(TWO, obj, x, value)
        keys = [canon_key(cell) for cell in element]
        assert keys == sorted(keys)
        expected = {(TWO.morphism(g).dom, g, xv)
                    for g in TWO.into(obj) for xv in x.stage(TWO.morphism(g).dom)}
        assert {cell for cell, _ in element} == expected
        for b, g, xv in expected:
            assert exp_lookup(element, b, g, xv) == value(b, g, xv)
        xvs = x.stage(obj)
        assert exp_column(TWO, obj, x, [element] * len(xvs), xvs) == \
            [value(obj, TWO.id_of(obj), xv) for xv in xvs]


def test_exp_column_on_a_missing_cell_raises_presheaf_error():
    for base, x in ((PT, set_presheaf(["a", "b"])), (TWO, X2)):
        px = power_object(x)
        for obj in base.objects:
            elements = px.stage(obj)
            assert exp_column(base, obj, x, elements, [x.stage(obj)[0]] * len(elements)) == \
                [exp_lookup(el, obj, base.id_of(obj), x.stage(obj)[0]) for el in elements]
            for element in elements:
                with pytest.raises(PresheafError, match="has no cell .*'not-an-element'"):
                    exp_column(base, obj, x, [element], ["not-an-element"])


def test_process_wide_caches_stay_within_their_bounds():
    kits, exps = classifier_kit.cache_info().misses, exponential.cache_info().misses
    for i in range(CACHE_SIZE + 8):
        base = one_object_category(f"bound{i}")
        power_object(Presheaf(base, {f"bound{i}": ("a", "b")}, {}))
    assert classifier_kit.cache_info().misses - kits > CACHE_SIZE
    assert exponential.cache_info().misses - exps > CACHE_SIZE
    assert classifier_kit.cache_info().currsize <= CACHE_SIZE
    assert exponential.cache_info().currsize <= CACHE_SIZE


def test_numbers_sort_by_value_past_float_range_and_precision():
    near_one = [1 + Fraction(1, 2 ** 60), 1 + Fraction(1, 2 ** 61)]
    values = [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3), Fraction(-10 ** 401, 7),
              Fraction(1, 10 ** 400), 2 ** 60 + 1, Fraction(2 ** 61 + 1, 2), 1, 0, -3,
              Fraction(7, 2)] + near_one
    assert _canon.canon_sorted(values) == sorted(values)
    assert _canon.canon_sorted(list(reversed(values))) == sorted(values)
    assert canon_key(2 ** 60 + 1) == canon_key(Fraction(2 ** 60 + 1))
    assert canon_key(10 ** 400) == canon_key(Fraction(10 ** 400))


def test_global_elements_of_omega_on_two_point_poset():
    kit = classifier_kit(TWO)
    got = [tuple(sorted(g.choice.items())) for g in global_elements(kit.omega)]
    assert set(got) == {
        (("p", fs()), ("q", fs())),
        (("p", fs("id[p]")), ("q", fs("le[p,q]"))),
        (("p", fs("id[p]")), ("q", fs("id[q]", "le[p,q]"))),
    }
    from toposlang._canon import canon_key
    assert got == sorted(got, key=canon_key)


def test_global_elements_counting():
    assert len(global_elements(terminal_presheaf(CHAIN3))) == 1
    x = set_presheaf(["a", "b", "c"])
    assert [g.choice["pt"] for g in global_elements(x)] == ["a", "b", "c"]


def test_global_elements_match_the_brute_force_product_scan():
    pool = presheaf_fixture_pool() + [classifier_kit(b).omega for b in ALL_BASES]
    assert any(x.base == MONOID for x in pool)
    for x in pool:
        assert global_elements(x) == brute_global_elements(x)


def test_global_elements_past_the_node_cap_are_refused_in_time(monkeypatch):
    # 8^8 matching families on a discrete base: the hom search stops at the cap
    objs = [f"o{i}" for i in range(8)]
    x = Presheaf(from_poset(objs, []), {o: tuple(range(8)) for o in objs}, {})
    monkeypatch.setattr(presheaf, "ENUM_NODE_CAP", 1000)
    with budget("8^8 global elements refused at a 1000-node cap", 1.0):
        with pytest.raises(CapExceeded, match="exceeded 1000 nodes"):
            global_elements(x)


@pytest.mark.hash_seeds
def test_hom_search_results_past_the_cell_cap_are_refused(monkeypatch):
    # P(X) for a two-element X on the one-object base: 4 results of 2 cells.
    monkeypatch.setattr(presheaf, "HOM_CELL_CAP", 8)
    assert len(power_object(set_presheaf(["cap8", "b"])).stage("pt")) == 4
    monkeypatch.setattr(presheaf, "HOM_CELL_CAP", 7)
    with pytest.raises(CapExceeded, match="results of 2 cells each exceed cap 7 cells "
                                          "after 3 results"):
        power_object(set_presheaf(["cap7", "b"]))
    with pytest.raises(CapExceeded, match="exceed cap 7 cells"):
        enumerate_nats(set_presheaf(["a", "b", "c"]), set_presheaf(["y0", "y1"]))


@pytest.mark.parametrize("base", [TWO, from_poset(["q", "p"], [("p", "q")])],
                         ids=["p-first", "q-first"])
def test_hom_search_refuses_a_restriction_that_leaves_its_stage(base):
    # x1 restricts to y9, outside the stage at p: not a presheaf, on either
    # side of a hom-set, whichever object the search decides first.
    leaky = Presheaf(base, {"q": ("x0", "x1"), "p": ("y0",)},
                     {"le[p,q]": {"x0": "y0", "x1": "y9"}})
    one, omega = terminal_presheaf(base), classifier_kit(base).omega
    source = r"along 'le\[p,q\]' takes .*'x1'.* out of the source's stage 'p'"
    target = r"along 'le\[p,q\]' takes 'x1' out of the target's stage 'p'"
    for search, message in ((lambda: enumerate_nats(leaky, omega), source),
                            (lambda: enumerate_nats(leaky, one), source),
                            (lambda: power_object(leaky), source),
                            (lambda: enumerate_nats(one, leaky), target),
                            (lambda: global_elements(leaky), target),
                            (lambda: exponential(one, leaky), target)):
        with pytest.raises(PresheafError, match=message):
            search()


# Run in its own process under a 2 GB address-space limit: P(P(R)) with
# |R| = 4 holds 2^16 elements of 16 cells, 2^20 values, inside the cap.
POWER_OF_POWER_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from toposlang.category import one_object_category
from toposlang.presheaf import HOM_CELL_CAP, Presheaf, power_object
pt = one_object_category()
stage = power_object(power_object(Presheaf(pt, {"pt": range(4)}, {}))).stage("pt")
print(len(stage), len(stage[0]), HOM_CELL_CAP)
"""


def test_power_object_of_2_to_the_20_cells_builds_inside_the_cell_cap():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", POWER_OF_POWER_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    elements, cells, cap = map(int, proc.stdout.split())
    assert (elements, cells) == (1 << 16, 16) and elements * cells <= cap


HOM_ORDER_SCRIPT = """
from toposlang.category import from_poset
from toposlang.presheaf import Presheaf, classifier_kit, enumerate_nats
two = from_poset(["p", "q"], [("p", "q")])
x = Presheaf(two, {"q": ("x0", "x1", "x2"), "p": ("y0", "y1")},
             {"le[p,q]": {"x0": "y0", "x1": "y0", "x2": "y1"}})
omega = classifier_kit(two).omega
for n in enumerate_nats(x, omega):
    print([omega.stage(o).index(n.apply(o, e)) for o in two.objects for e in x.stage(o)])
"""


@pytest.mark.hash_seeds
def test_hom_set_order_is_the_same_under_three_hash_seeds():
    # enumerate_nats emits its search order unsorted; the order must come
    # from object and stage order alone, never from set iteration
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", HOM_ORDER_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        runs.append(proc.stdout)
    assert len(runs[0].splitlines()) > 1
    assert runs[0] == runs[1] == runs[2]


def test_hom_set_equality_matches_the_reference_key():
    # Arrows out of X2 and out of an equal copy built in another order,
    # the arrows into the classifier from the fixture pool, one-cell arrows
    # whose values are 1 or Fraction(1), and arrows that are not total or
    # hold a cell outside their source.
    omega = classifier_kit(TWO).omega
    arrows = enumerate_nats(X2, omega) + enumerate_nats(reversed_copy(X2), omega) \
        + enumerate_nats(X2, X2)
    for x in presheaf_fixture_pool():
        arrows += enumerate_nats(x, classifier_kit(x.base).omega)
    one, numbers = set_presheaf([0]), set_presheaf([1, 2])
    arrows += [NatTransform(one, numbers, {"pt": {0: v}}) for v in (1, Fraction(1), 2)]
    for source in (X2, reversed_copy(X2)):
        arrows += [NatTransform(source, omega, {"q": {"x0": fs()}}),
                   NatTransform(source, omega, {"q": {"x0": fs(), "junk": fs()}, "p": {}})]
    assert_equality_matches_reference(arrows, reference_nat_key)


def test_global_elements_of_omega_form_heyting_algebra_pointwise():
    kit = classifier_kit(TWO)
    gs = global_elements(kit.omega)
    ids = [g.key() for g in gs]
    by_id = {g.key(): g for g in gs}

    def leq(a, b):
        return all(by_id[a].choice[o] <= by_id[b].choice[o] for o in TWO.objects)

    alg = HeytingAlgebra(ids, leq)
    assert check_heyting_laws(alg).ok
    # pointwise meets and joins of matching families are matching
    for a in ids:
        for b in ids:
            met = alg.meet(a, b)
            assert all(by_id[met].choice[o] == by_id[a].choice[o] & by_id[b].choice[o]
                       for o in TWO.objects)
            joined = alg.join(a, b)
            assert all(by_id[joined].choice[o] == by_id[a].choice[o] | by_id[b].choice[o]
                       for o in TWO.objects)


def test_enumeration_caps_are_enforced(monkeypatch):
    big = set_presheaf(list(range(9)))
    monkeypatch.setattr(presheaf, "ENUM_NODE_CAP", 10)
    with pytest.raises(CapExceeded):
        enumerate_nats(big, big)
    monkeypatch.setattr(presheaf, "SUB_ENUM_CAP", 8)
    with pytest.raises(CapExceeded):
        enumerate_subobjects(big)


def test_initial_object_and_coproduct_stretch():
    zero = Presheaf(TWO, {}, {})
    assert validate_presheaf(zero).ok
    assert len(enumerate_nats(zero, X2)) == 1


def test_subobject_order_is_monotone_under_restriction():
    # if K <= L in Sub(X), restricting any stage of K along any arrow stays
    # inside the corresponding stage of L
    x = X2
    sa = sub_heyting(x)
    cat = x.base
    for a in sa.algebra.elements:
        for b in sa.algebra.elements:
            if not sa.algebra.leq(a, b):
                continue
            k, l = sa.subobjects[a], sa.subobjects[b]
            for m in cat.morphisms:
                moved = {x.apply(m.id, el) for el in k.parts[m.cod]}
                assert moved <= l.parts[m.dom]


# -- the shape check of exp_transpose ---------------------------------------------

def _copy_tables(x: Presheaf) -> tuple[dict, dict]:
    return {obj: list(x.stage(obj)) for obj in x.base.objects}, \
        {m: dict(table) for m, table in x.maps.items()}


def _factor(data, x: Presheaf) -> Presheaf:
    """x as it is, with an identity table that moves an element, or with a
    restriction table missing an entry."""
    how = data.draw(st.sampled_from(["lawful", "lawful", "moving identity", "partial"]))
    at, maps = _copy_tables(x)
    cat = x.base
    if how == "moving identity":
        wide = [obj for obj in cat.objects if len(at[obj]) > 1]
        if wide:
            obj = data.draw(st.sampled_from(wide))
            maps[cat.id_of(obj)][at[obj][0]] = at[obj][1]
    elif how == "partial":
        filled = [m for m, table in maps.items() if table]
        if filled:
            m = data.draw(st.sampled_from(filled))
            del maps[m][data.draw(st.sampled_from(sorted(maps[m], key=canon_key)))]
    return Presheaf(cat, at, maps)


def _shape_fault(data, p: Presheaf) -> Presheaf:
    """p with one fault in a stage or a restriction table, or none."""
    fault = data.draw(st.sampled_from(["none", "none", "drop element", "extra element", "entry",
                                       "extra key", "missing key"]))
    at, maps = _copy_tables(p)
    cat = p.base
    obj = data.draw(st.sampled_from(cat.objects))
    m = data.draw(st.sampled_from(sorted(maps)))
    keys = sorted(maps[m], key=canon_key)
    if fault == "drop element" and at[obj]:
        at[obj].remove(data.draw(st.sampled_from(at[obj])))
    elif fault == "extra element":
        at[obj].append(("extra",))
    elif fault == "entry" and keys:
        dom = at[cat.morphism(m).dom]
        maps[m][data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(dom + [("junk",)]))
    elif fault == "extra key":
        maps[m][("junk",)] = ("junk",)
    elif fault == "missing key" and keys:
        del maps[m][data.draw(st.sampled_from(keys))]
    return Presheaf(cat, at, maps)


@pytest.mark.hash_seeds
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exp_transpose_refuses_exactly_the_sources_that_are_not_the_product(data):
    # Oracle: the comparison with the built product that exp_transpose made
    # before it compared the source with the factors directly.
    base = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    z0, x0 = (data.draw(st.sampled_from(CERTIFIED_POOL[base])) for _ in range(2))
    z, x = _factor(data, z0), _factor(data, x0)
    kit = classifier_kit(base)
    origin = data.draw(st.sampled_from(["lawful product", "product", "swapped"]))
    if origin == "product":
        try:
            p = product_presheaf([z, x])
        except PresheafError:
            p = product_presheaf([z0, x0])
    else:
        p = product_presheaf([z0, x0] if origin == "lawful product" else [x0, z0])
    p = _shape_fault(data, p)
    top = {obj: principal_sieve(base, obj).members for obj in base.objects}
    f = NatTransform(p, kit.omega, {obj: {el: top[obj] for el in p.stage(obj)}
                                    for obj in base.objects})
    y = data.draw(st.sampled_from([kit.omega, kit.omega, kit.terminal]))
    try:
        wrong = f.source != product_presheaf([z, x]) or f.target != y
    except PresheafError as exc:
        expected = (type(exc), str(exc))
    else:
        expected = (ShapeMismatch, "arrow to transpose is not Z x X -> Y") if wrong else None
    try:
        exp_transpose(f, z, x, y)
    except PresheafError as exc:
        if expected is None:
            assert not isinstance(exc, ShapeMismatch), exc
        else:
            assert (type(exc), str(exc)) == expected
    else:
        assert expected is None


def test_exp_transpose_builds_no_product(monkeypatch):
    z, x = two_point_presheaf(["z0", "z1"], ["z'"], {"z0": "z'", "z1": "z'"}), X2
    omega = classifier_kit(TWO).omega
    prod = product_presheaf([z, x])
    f = NatTransform(prod, omega, {obj: {el: principal_sieve(TWO, obj).members
                                         for el in prod.stage(obj)} for obj in TWO.objects})
    built = []
    monkeypatch.setattr(presheaf, "product_presheaf",
                        lambda factors: built.append(factors) or product_presheaf(factors))
    name = exp_transpose(f, z, x, omega)
    assert built == [] and name == power_transpose(f, z, x)
    with pytest.raises(ShapeMismatch):
        exp_transpose(f, x, z, omega)
    assert built == []
