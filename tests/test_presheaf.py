import gc
import os
import random
import re
import subprocess
import sys
import weakref
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
    VEE,
    HeytingAlgebra,
    assert_equality_matches_reference,
    backtracking_hom_search,
    brute_global_elements,
    brute_sieves,
    budget,
    check_heyting_laws,
    compose_nats,
    evaluation,
    exp_element,
    exp_lookup,
    exp_untranspose,
    global_element,
    global_key,
    presheaf_fixture_pool,
    principal_sieve,
    pullback_members,
    random_presheaf,
    reference_char_morphism,
    reference_exponential,
    reference_law_violations,
    reference_nat_key,
    reference_subobject_of_char,
    reversed_copy,
    set_presheaf,
    subobject_implies,
    subobject_of_id,
    subobject_violations,
    two_point_presheaf,
    verify_exponential_adjunction,
    verify_product_universal,
)

from toposlang import _canon, presheaf
from toposlang._canon import canon_key, canon_sorted
from toposlang.category import (
    FiniteCategory,
    Morphism,
    from_poset,
    one_object_category,
    sieve_heyting,
    sieves_on,
)
from toposlang.errors import CapExceeded
from toposlang.local import OMEGA, RQ, SIGMA, PowerType, Sequent, Signature, parse_term
from toposlang.local.check import annotate
from toposlang.presheaf import (
    CACHE_SIZE,
    HOM_CELL_CAP,
    PRODUCT_CAP,
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
from toposlang.prop.semantics import ClassicalSystem
from toposlang.prop.syntax import parse_interval_set
from toposlang.rep import (
    EffectiveClassicalRep,
    ToposRep,
    build_rep,
    interpret_term,
    interpret_type,
    prop_family,
    validate_axioms,
)


def fs(*xs):
    return frozenset(xs)


X2 = two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"})
# The six hand-built bases, by name.
KIT_BASES = {"PT": PT, "TWO": TWO, "CHAIN3": CHAIN3, "VEE": VEE, "DIAMOND": DIAMOND,
             "MONOID": MONOID}


def test_constant_presheaf_is_valid():
    for cat in ALL_BASES:
        assert validate_presheaf(terminal_presheaf(cat)).ok


def test_non_total_restriction_is_reported():
    with pytest.raises(PresheafError) as err:
        two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0"})
    assert str(err.value) == "violates functor laws: ('not-total', 'le[p,q]', 'x1')"


def test_a_stage_or_table_the_base_lacks_is_reported():
    pt = one_object_category()
    with pytest.raises(PresheafError) as err:
        Presheaf(pt, {"pt": ["a"], "nowhere": ["b"]}, {"foo": {"a": "a"}})
    assert str(err.value) == "violates functor laws: ('unknown-object', 'nowhere')"
    with pytest.raises(PresheafError) as err:
        Presheaf(pt, {"pt": ["a"]}, {"id[pt]": {"a": "a"}, "foo": {"a": "a"}})
    assert str(err.value) == "violates functor laws: ('unknown-morphism', 'foo')"


def test_identity_transformation_is_natural():
    ident = NatTransform(X2, X2, {obj: {x: x for x in X2.stage(obj)}
                                  for obj in TWO.objects})
    assert validate_nat(ident).ok


def test_non_natural_transformation_is_reported():
    # validate_nat lists what an arrow built unchecked violates; the public
    # constructor refuses the same components, naming the first.
    y = two_point_presheaf(["u"], ["v0", "v1"], {"u": "v0"})
    components = {"q": {"u": "u"}, "p": {"v0": "v1", "v1": "v0"}}
    report = validate_nat(NatTransform._certified(y, y, components))
    assert any(v[0] == "naturality" for v in report.items)
    with pytest.raises(PresheafError) as err:
        NatTransform(y, y, components)
    assert str(err.value) == f"not natural: {report.items[0]}"


def test_an_arrow_is_refused_for_what_a_restriction_table_is_refused_for():
    # A component under a name the base lacks comes first; then, object by
    # object, the source elements a component misses or sends outside the
    # target, in stage order, and its entries outside the source stage, in
    # the component's order: `validate_presheaf`'s items for its tables.
    identity = {"q": {"x0": "x0", "x1": "x1"}, "p": {"y0": "y0"}}
    for components, first in [
            ({**identity, "zz": {"x0": "x0"}}, ("unknown-object", "zz")),
            ({**identity, "q": {"x9": "x0", "x0": "x0", "x1": "x1"}},
             ("junk-domain", "q", "x9")),
            ({**identity, "p": {"y0": "y0", "x0": "y0"}}, ("junk-domain", "p", "x0"))]:
        assert validate_nat(NatTransform._certified(X2, X2, components)).items == [first]
        with pytest.raises(PresheafError) as err:
            NatTransform(X2, X2, components)
        assert str(err.value) == f"invalid in a component: {first}"
    components = {"zz": {}, "q": {"junk": "x0", "x1": "nowhere"}, "p": {"y0": "y0", "y9": "y0"}}
    assert validate_nat(NatTransform._certified(X2, X2, components)).items == [
        ("unknown-object", "zz"), ("junk-domain", "p", "y9"), ("not-total", "q", "x0"),
        ("bad-codomain", "q", "x1"), ("junk-domain", "q", "junk")]
    # A restriction table with q's faults is reported in the same words.
    x = Presheaf._canonical(TWO, {"p": ("y0",), "q": ("x0", "x1")},
                            {"le[p,q]": {"junk": "y0", "x1": "nowhere"}})
    assert validate_presheaf(x).items == [("not-total", "le[p,q]", "x0"),
                                          ("bad-codomain", "le[p,q]", "x1"),
                                          ("junk-domain", "le[p,q]", "junk")]
    assert NatTransform(X2, X2, identity) == NatTransform._certified(X2, X2, identity)


def test_broken_identity_table_is_still_reported_by_naturality():
    # validate_nat skips the squares along identities, which no presheaf's
    # identity tables can fail: one that moves or misses an element is
    # refused at construction.
    with pytest.raises(PresheafError) as err:
        Presheaf(PT, {"pt": ("a", "b")}, {"id[pt]": {"a": "b", "b": "a"}})
    assert str(err.value) == "violates functor laws: ('identity-law', 'pt', 'a')"
    with pytest.raises(PresheafError) as err:
        Presheaf(TWO, {"q": ("x",), "p": ("y",)},
                 {"le[p,q]": {"x": "y"}, "id[q]": {"x": "x"}, "id[p]": {}})
    assert str(err.value) == "violates functor laws: ('not-total', 'id[p]', 'y')"
    plain = set_presheaf(["a", "b"])
    assert validate_nat(NatTransform(plain, plain, {"pt": {"a": "a", "b": "b"}})).ok
    # The squares along other arrows are all checked.
    y = two_point_presheaf(["u"], ["v0", "v1"], {"u": "v0"})
    n = NatTransform._certified(y, y, {"q": {"u": "u"}, "p": {"v0": "v1", "v1": "v0"}})
    assert validate_nat(n).items == [("naturality", "le[p,q]", "u")]


def test_product_is_refused_before_it_is_built_past_its_cap():
    eight = set_presheaf(range(8))
    at_cap = product_presheaf([eight] * 5)
    assert len(at_cap.stage("pt")) == PRODUCT_CAP == 8 ** 5
    assert validate_presheaf(at_cap).ok
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
            assert chi.apply(obj, x) == principal_sieve(TWO, obj)
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


def test_a_characteristic_arrow_that_is_not_natural_is_refused_at_construction():
    # the top sieve at q restricts to the top sieve at p, not to the empty one
    one = terminal_presheaf(TWO)
    components = {"q": {(): fs("id[q]", "le[p,q]")}, "p": {(): fs()}}
    with pytest.raises(PresheafError) as err:
        NatTransform(one, classifier_kit(TWO).omega, components)
    assert str(err.value) == "not natural: ('naturality', 'le[p,q]', ())"


def test_an_unclosed_family_is_refused_at_construction():
    with pytest.raises(PresheafError, match="invalid sub-object"):
        Subobject(X2, {"q": ("x0",), "p": ()})  # not restriction-closed


def _refusal(x: Presheaf, parts) -> str:
    """The text of the PresheafError the Subobject constructor raises."""
    with pytest.raises(PresheafError) as err:
        Subobject(x, parts)
    return str(err.value)


def test_subobject_rejects_a_part_that_is_not_a_subset_or_not_closed():
    outside = {"q": ("x0", "w"), "p": ("y0",)}
    assert subobject_violations(X2, outside) == [("not-a-subset", "q", "w")]
    assert _refusal(X2, outside) == "invalid sub-object: ('not-a-subset', 'q', 'w')"
    open_part = {"q": ("x1",), "p": ()}
    assert subobject_violations(X2, open_part) == [("not-restriction-closed", "le[p,q]", "x1")]
    assert _refusal(X2, open_part) == \
        "invalid sub-object: ('not-restriction-closed', 'le[p,q]', 'x1')"


@pytest.mark.hash_seeds
def test_subobject_names_the_first_violation_in_stage_order():
    # Every element of the q-stage leaves the part along le[p,q], and the
    # part holds two elements outside X; the messages must not depend on
    # the order a frozenset happens to list them in.
    x = two_point_presheaf(["d", "b", "a", "c"], ["y"], {e: "y" for e in "abcd"})
    unclosed = {"q": ("c", "d", "a", "b"), "p": ()}
    assert subobject_violations(x, unclosed) == \
        [("not-restriction-closed", "le[p,q]", e) for e in "abcd"]
    assert _refusal(x, unclosed) == "invalid sub-object: ('not-restriction-closed', 'le[p,q]', 'a')"
    outside = {"q": ("a", "zz", "zb"), "p": ("y", "w")}
    assert subobject_violations(x, outside)[:2] == \
        [("not-a-subset", "p", "w"), ("not-a-subset", "q", "zb")]
    assert _refusal(x, outside) == "invalid sub-object: ('not-a-subset', 'p', 'w')"


@pytest.mark.hash_seeds
def test_a_part_under_an_object_the_base_lacks_is_refused_by_name():
    # Such a part used to be dropped, so the round trip held as if it had
    # never been named.  As the Presheaf constructor does, the check names
    # each name the base lacks, in canon_key order, before any element
    # outside a stage, even where its part is empty.
    k = {"qq": ["x0"], "q": ("x0", "w"), "p": ("y0",), "aa": []}
    assert subobject_violations(X2, k) == \
        [("unknown-object", "aa"), ("unknown-object", "qq"), ("not-a-subset", "q", "w")]
    assert _refusal(X2, k) == "invalid sub-object: ('unknown-object', 'aa')"
    named = {"q": ("x0",), "p": ("y0",), "qq": []}
    assert subobject_violations(X2, named) == [("unknown-object", "qq")]
    assert _refusal(X2, named) == "invalid sub-object: ('unknown-object', 'qq')"
    valid = Subobject(X2, {"q": ("x0",), "p": ("y0",)})
    assert subobject_of_char(char_morphism(valid)) == valid


def test_an_equal_public_copy_of_a_built_arrow_is_checked_once_and_round_trips(monkeypatch):
    k = Subobject(X2, {"q": ("x0",), "p": ("y0",)})
    chi = char_morphism(k)
    checked = []

    def spy(n):
        checked.append(n)
        return validate_nat(n)

    monkeypatch.setattr(presheaf, "validate_nat", spy)
    copy = NatTransform(chi.source, chi.target, chi.components)
    assert checked == [copy] and copy == chi and hash(copy) == hash(chi)
    assert subobject_of_char(chi) == k and subobject_of_char(copy) == k
    assert checked == [copy]


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
    assert subobject_of_id(one, half_key) == Subobject(one, {"q": (), "p": ((),)})
    neg = sa.algebra.negate(half_key)
    assert subobject_of_id(one, neg).parts == {"q": fs(), "p": fs()}
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
                got = subobject_of_id(x, sa.algebra.implies(a, b))
                want = subobject_implies(subobject_of_id(x, a), subobject_of_id(x, b))
                assert got == want


def test_sub_heyting_order_matches_char_pointwise_order():
    x = X2
    sa = sub_heyting(x)
    for a in sa.algebra.elements:
        for b in sa.algebra.elements:
            chi_a = char_morphism(subobject_of_id(x, a))
            chi_b = char_morphism(subobject_of_id(x, b))
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
                              {obj: {el: principal_sieve(TWO, obj)
                                     for el in dia.presheaf.stage(obj)}
                               for obj in TWO.objects})
    name = power_transpose(const_true, z, x)
    assert validate_nat(name).ok
    assert exp_untranspose(name, z, x, kit.omega) == const_true
    # the name is a global element of PX: an arrow 1 -> PX, natural
    px = power_object(x)
    ge = global_element(px, {obj: name.apply(obj, ()) for obj in TWO.objects})
    assert ge == name and validate_nat(ge).ok
    # eval against the name recovers constant-true
    ev = evaluation(x, kit.omega)
    for obj in TWO.objects:
        for xv in x.stage(obj):
            got = ev.apply(obj, (name.apply(obj, ()), xv))
            assert got == principal_sieve(TWO, obj)


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


def test_an_arrow_to_transpose_that_is_not_natural_is_refused_at_construction():
    # the top sieve at q restricts to the top sieve at p, not to the empty one
    z, x = terminal_presheaf(TWO), X2
    omega = classifier_kit(TWO).omega
    prod = product_presheaf([z, x])
    top = {obj: principal_sieve(TWO, obj) for obj in TWO.objects}
    with pytest.raises(PresheafError) as err:
        NatTransform(prod, omega, {"q": {el: top["q"] for el in prod.stage("q")},
                                   "p": {el: fs() for el in prod.stage("p")}})
    assert str(err.value) == "not natural: ('naturality', 'le[p,q]', ((), 'x0'))"
    with pytest.raises(PresheafError) as err:
        NatTransform(prod, omega, {obj: {el: fs("junk") for el in prod.stage(obj)}
                                   for obj in TWO.objects})
    assert str(err.value) == "invalid in a component: ('bad-codomain', 'p', ((), 'y0'))"


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
    # Differential test of the arrows built unchecked: every arrow
    # char_morphism and power_transpose build passes validate_nat, and
    # every transposed element lies in the listed power object.
    base = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    x = data.draw(st.sampled_from(CERTIFIED_POOL[base]))
    outside = [(obj, "outside") for obj in base.objects]
    picked = data.draw(st.sets(st.sampled_from(_points(x) + outside)))
    parts = {obj: {el for o, el in picked if o == obj} for obj in base.objects}
    bad = subobject_violations(x, parts)
    if bad:
        with pytest.raises(PresheafError, match=re.escape(str(bad[0]))):
            Subobject(x, parts)
    else:
        k = Subobject(x, parts)
        chi = char_morphism(k)
        assert validate_nat(chi).ok
        assert subobject_of_char(chi) == k
    z = data.draw(st.sampled_from(CERTIFIED_POOL[base]))
    prod = product_presheaf([z, x])
    k = _generated(prod, data.draw(st.sets(st.sampled_from(_points(prod)), max_size=3)))
    f = char_morphism(k)
    assert validate_nat(f).ok
    name = power_transpose(f, z, x)
    assert validate_nat(name).ok
    listed = power_object(x)
    for obj in base.objects:
        members = set(listed.stage(obj))
        assert all(name.apply(obj, zv) in members for zv in z.stage(obj))
    assert exp_untranspose(name, z, x, classifier_kit(base).omega) == f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_char_morphism_and_inverse_match_the_frozenset_references(data):
    # Differential test of the mask encoding against the per-stage
    # frozenset code it replaced, on the fixture pool and on presheaves
    # over the six bases: every enumerated sub-object, every arrow
    # X -> Omega, and a family built by hand through the public constructor
    # (points of X, elements outside its stages, a name the base lacks)
    # give equal arrows, equal sub-objects and equal parts, or the
    # constructor refuses the family with its first violation.
    base = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    pool = CERTIFIED_POOL[base] + [random_presheaf(base, random.Random(data.draw(
        st.integers(0, 10 ** 6))), max_size=3)]
    x = data.draw(st.sampled_from(pool))
    omega = classifier_kit(base).omega
    subs = enumerate_subobjects(x)
    for k in subs:
        chi = char_morphism(k)
        assert chi == reference_char_morphism(k)
        back = subobject_of_char(chi)
        assert back == k == reference_subobject_of_char(chi) and back.parts == k.parts
    for chi in enumerate_nats(x, omega):
        k, want = subobject_of_char(chi), reference_subobject_of_char(chi)
        assert k == want and hash(k) == hash(want) and k.parts == want.parts
        assert k.key() == want.key() and char_morphism(k) == chi
    outside = [(obj, "outside") for obj in base.objects] + [("qq", "x0")]
    picked = data.draw(st.sets(st.sampled_from(_points(x) + outside)))
    parts: dict = {}
    for obj, el in picked:
        parts.setdefault(obj, set()).add(el)
    bad = subobject_violations(x, parts)
    if bad:
        with pytest.raises(PresheafError) as err:
            Subobject(x, parts)
        assert str(err.value) == f"invalid sub-object: {bad[0]}"
        return
    k = Subobject(x, parts)
    chi = char_morphism(k)
    assert chi == reference_char_morphism(k)
    assert k in subs and hash(k) == hash(subs[subs.index(k)])
    assert subobject_of_char(chi) == k == reference_subobject_of_char(chi)


def _count_checks(monkeypatch) -> list:
    """The arrows and part families that `validate_nat` and the sub-object
    check run on from now on, in call order."""
    calls = []
    monkeypatch.setattr(presheaf, "validate_nat",
                        lambda n, check=validate_nat: calls.append(n) or check(n))
    monkeypatch.setattr(presheaf, "_check_subobject",
                        lambda x, parts, check=presheaf._check_subobject:
                        calls.append(parts) or check(x, parts))
    return calls


@pytest.mark.hash_seeds
def test_certified_subobjects_skip_the_subobject_check(monkeypatch):
    # enumerate_subobjects and subobject_of_char build their sub-objects
    # unchecked, and char_morphism checks nothing; an equal sub-object
    # from the public constructor, one per element of sub_heyting's
    # algebra, is checked once.
    calls = _count_checks(monkeypatch)
    count = 0
    for x in presheaf_fixture_pool():
        for k in enumerate_subobjects(x):
            chi = char_morphism(k)
            assert char_morphism(subobject_of_char(chi)) == chi
            count += 1
    assert (count, calls) == (172, [])
    for x in presheaf_fixture_pool():
        for a in sub_heyting(x).algebra.elements:
            char_morphism(subobject_of_id(x, a))
            count += 1
    assert (count, len(calls)) == (344, 172)
    k = enumerate_subobjects(X2)[2]
    del calls[:]
    assert char_morphism(Subobject(X2, k.parts)) == char_morphism(k)
    assert calls == [k.parts]


@pytest.mark.hash_seeds
def test_the_law_checks_run_once_per_public_construction_and_never_on_what_the_library_builds(
        monkeypatch):
    # validate_nat and the sub-object check run once per public
    # NatTransform and Subobject, and never on the arrows and sub-objects
    # of enumerate_nats, char_morphism, subobject_of_char,
    # enumerate_subobjects, exp_transpose, interpret_term or prop_family.
    reps = [EffectiveClassicalRep.build(ClassicalSystem(
        ("s0", "s1", "s2"), {"A": {"s0": Fraction(0), "s1": Fraction(1), "s2": Fraction(0)}})).rep,
        _set_rep(one_object_category("checks-pt"), "checks")]
    calls = _count_checks(monkeypatch)
    built = 0
    for x in presheaf_fixture_pool(count=6):
        omega = classifier_kit(x.base).omega
        for k in enumerate_subobjects(x):
            assert subobject_of_char(char_morphism(k)) == k
            built += 3
        z = classifier_kit(x.base).terminal
        for f in enumerate_nats(product_presheaf([z, x]), omega):
            exp_transpose(f, z, x, omega)
            built += 2
    for rep in reps:
        context = (("s", SIGMA), ("D", PowerType(RQ)))
        interpret_term(parse_term("A(s) in D", rep.signature), context, rep)
        family = prop_family("A", rep)
        family.apply(rep.base.objects[0], family.source.stage(rep.base.objects[0])[0])
        built += 2
    assert (built, calls) == (539, [])
    chi = char_morphism(enumerate_subobjects(X2)[2])
    copy = NatTransform(chi.source, chi.target, chi.components)
    parts = {"q": ("x0",), "p": ("y0",)}
    Subobject(X2, parts)
    assert calls == [copy, parts]


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


# MONOID with its idempotent named "z": its cells sort after the identity's.
LATE_MONOID = FiniteCategory(
    ["x"], [Morphism("id[x]", "x", "x"), Morphism("z", "x", "x")], {"x": "id[x]"},
    {("id[x]", "id[x]"): "id[x]", ("id[x]", "z"): "z", ("z", "id[x]"): "z", ("z", "z"): "z"})


def _exp_column_inputs(fixed):
    """The fixed (base, X) pairs, then one small random X on each of the six
    bases and on LATE_MONOID.  An idempotent puts cells (A, g, xv) with
    g != id_A before or after the evaluation cells at the same object A."""
    rng = random.Random(0)
    return fixed + [(base, random_presheaf(base, rng, 2))
                    for base in ALL_BASES + [DIAMOND, LATE_MONOID]]


def test_exp_element_cells_are_sorted_and_read_back_by_lookup():
    def value(b, g, xv):
        return (b, g, xv, "y")

    for base, x in _exp_column_inputs([(TWO, X2)]):
        for obj in base.objects:
            element = exp_element(base, obj, x, value)
            keys = [canon_key(cell) for cell in element]
            assert keys == sorted(keys)
            expected = {(base.morphism(g).dom, g, xv)
                        for g in base.into(obj) for xv in x.stage(base.morphism(g).dom)}
            assert {cell for cell, _ in element} == expected
            for b, g, xv in expected:
                assert exp_lookup(element, b, g, xv) == value(b, g, xv)
            xvs = x.stage(obj)
            assert exp_column(base, obj, [element] * len(xvs), xvs) == \
                [value(obj, base.id_of(obj), xv) for xv in xvs]
            assert exp_column(base, obj, [], []) == []


def test_exp_column_on_a_missing_cell_raises_presheaf_error():
    for base, x in _exp_column_inputs([(PT, set_presheaf(["a", "b"])), (TWO, X2)]):
        px = power_object(x)
        for obj in base.objects:
            elements = px.stage(obj)
            for xv in x.stage(obj):
                assert exp_column(base, obj, elements, [xv] * len(elements)) == \
                    [exp_lookup(el, obj, base.id_of(obj), xv) for el in elements]
            for element in elements:
                with pytest.raises(PresheafError, match="has no cell .*'not-an-element'"):
                    exp_column(base, obj, [element], ["not-an-element"])


def test_process_wide_caches_stay_within_their_bounds():
    # `classifier_kit` keeps its last CACHE_SIZE kits; an exponential lives
    # as long as its inputs, and nothing process-wide holds one.
    kits, exps = classifier_kit.cache_info().misses, exponential.cache_info()
    powers = []
    for i in range(CACHE_SIZE + 8):
        base = one_object_category(f"bound{i}")
        powers.append(weakref.ref(power_object(Presheaf(base, {f"bound{i}": ("a", "b")}, {}))))
    assert classifier_kit.cache_info().misses - kits > CACHE_SIZE
    assert classifier_kit.cache_info().currsize <= CACHE_SIZE
    assert exponential.cache_info().misses - exps.misses == CACHE_SIZE + 8
    gc.collect()
    assert [power for power in powers if power() is not None] == []
    assert exponential.cache_info().currsize <= exps.currsize
    assert exponential.cache_info().maxsize is None


def test_a_power_object_lives_exactly_as_long_as_its_presheaf():
    x = Presheaf(PT, {"pt": ("dies-a", "dies-b")}, {})
    px = power_object(x)
    assert power_object(x) is px and exponential(x, classifier_kit(PT).omega) is px
    # An equal exponent built apart has its own, equal power object.
    twin = power_object(Presheaf(PT, x.at, x.maps))
    assert twin is not px and twin == px
    ppx = power_object(px)
    refs = [weakref.ref(px), weakref.ref(ppx), weakref.ref(twin)]
    del px, ppx, twin
    gc.collect()
    # x keeps P(x), which keeps P(P(x)); the twin's exponent is gone.
    assert [ref() is None for ref in refs] == [False, False, True]
    del x
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


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
    got = [tuple(sorted((obj, g.apply(obj, ())) for obj in TWO.objects))
           for g in global_elements(kit.omega)]
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
    assert [g.apply("pt", ()) for g in global_elements(x)] == ["a", "b", "c"]


def test_global_elements_match_the_brute_force_product_scan():
    pool = presheaf_fixture_pool() + [classifier_kit(b).omega for b in ALL_BASES]
    assert any(x.base == MONOID for x in pool)
    for x in pool:
        got = global_elements(x)
        assert got == brute_global_elements(x)
        one = terminal_presheaf(x.base)
        assert all(g.source == one and g.target is x for g in got)


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
    px = power_object(set_presheaf(["cap7", "b"]))
    with pytest.raises(CapExceeded, match="results of 2 cells each exceed cap 7 cells "
                                          "after 3 results"):
        px.stage("pt")
    with pytest.raises(CapExceeded, match="exceed cap 7 cells"):
        enumerate_nats(set_presheaf(["a", "b", "c"]), set_presheaf(["y0", "y1"]))


@pytest.mark.parametrize("base", [TWO, from_poset(["q", "p"], [("p", "q")])],
                         ids=["p-first", "q-first"])
def test_hom_search_refuses_a_restriction_that_leaves_its_stage(base):
    # x1 restricts to y9, outside the stage at p: not a presheaf, whichever
    # object the base lists first, so no hom search ever sees it.
    with pytest.raises(PresheafError) as err:
        Presheaf(base, {"q": ("x0", "x1"), "p": ("y0",)}, {"le[p,q]": {"x0": "y0", "x1": "y9"}})
    assert str(err.value) == "violates functor laws: ('bad-codomain', 'le[p,q]', 'x1')"


# -- the Cartesian hom search ---------------------------------------------------------

# Bases on which no cell of a hom search has a non-identity arrow to
# propagate along: the hom search lists their hom-sets as a product.
CARTESIAN_BASES = [PT, from_poset(["d0", "d1"], []), from_poset(["e2", "e0", "e1"], [])]


def _small_presheaf(data, cat, tag: str, most: int = 4) -> Presheaf:
    return Presheaf(cat, {obj: [f"{tag}{obj}{i}" for i in range(data.draw(st.integers(0, most)))]
                          for obj in cat.objects}, {})


def _search_outcome(search, *args):
    """What a hom search lists, each item a tuple if it is a list, or the
    text of its CapExceeded."""
    try:
        return [tuple(item) if isinstance(item, list) else item for item in search(*args)]
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.hash_seeds
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cartesian_hom_sets_match_the_references(data):
    # Stages of 0 to 4 elements, so some searches have no cells at all.
    cat = data.draw(st.sampled_from(CARTESIAN_BASES))
    x, y = _small_presheaf(data, cat, "x"), _small_presheaf(data, cat, "y")
    assert exponential(x, y) == reference_exponential(x, y)
    assert [exponential(x, y).stage(obj) for obj in cat.objects] == \
        [reference_exponential(x, y).stage(obj) for obj in cat.objects]
    omega = classifier_kit(cat).omega
    assert power_object(x).at == reference_exponential(x, omega).at
    assert global_elements(x) == brute_global_elements(x)
    small = _small_presheaf(data, cat, "s", most=2)
    cells = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
    assert [[n.apply(obj, el) for obj, el in cells] for n in enumerate_nats(x, small)] == \
        [list(values) for values in backtracking_hom_search(cat, cells, x.apply, small)]


@pytest.mark.hash_seeds
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cartesian_hom_search_raises_where_the_backtracking_search_raises(data):
    # Caps drawn at and around the search's own node and value counts: the
    # product is taken only where the backtracking search would finish.
    cat = data.draw(st.sampled_from(CARTESIAN_BASES))
    x, y = _small_presheaf(data, cat, "x"), _small_presheaf(data, cat, "y")
    cells = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
    nodes = results = 1
    for obj, _ in cells:
        results *= len(y.stage(obj))
        nodes += results
    near = lambda count: st.sampled_from([max(count - 1, 0), count, count + 1]) | \
        st.integers(0, count + 2)
    node_cap = data.draw(near(nodes) if results <= 4096 else st.integers(0, 4096))
    cell_cap = data.draw(near(results * len(cells)) if results <= 4096 else
                         st.integers(0, 4096 * len(cells)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presheaf, "ENUM_NODE_CAP", node_cap)
        patch.setattr(presheaf, "HOM_CELL_CAP", cell_cap)
        expected = _search_outcome(backtracking_hom_search, cat, cells, x.apply, y)
        assert _search_outcome(presheaf._hom_search, cat, cells, x.apply, y) == expected
        got = _search_outcome(lambda: [[n.apply(o, el) for o, el in cells]
                                       for n in enumerate_nats(x, y)])
        assert got == expected
        if cat is PT or not data.draw(st.booleans()):
            return
        # The global elements of y: one cell per object, in canonical order.
        expected = _search_outcome(backtracking_hom_search, cat,
                                   [(obj, ()) for obj in cat.objects],
                                   terminal_presheaf(cat).apply, y)
        if not isinstance(expected, str):
            expected = sorted((global_element(y, dict(zip(cat.objects, values)))
                               for values in expected), key=global_key)
        assert _search_outcome(global_elements, y) == expected


@pytest.mark.hash_seeds
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_an_oversized_cartesian_hom_set_is_refused_with_the_search_text(data):
    # One cell per object of a discrete base, stages of 0 to 3 values, and
    # caps at and around the backtracking search's node and value counts.
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    objs = [f"r{i}" for i in range(len(sizes))]
    cat = from_poset(objs, [])
    y = Presheaf(cat, {obj: [f"v{j}" for j in range(n)] for obj, n in zip(objs, sizes)}, {})
    cells = [(obj, ()) for obj in objs]
    nodes = results = 1
    for n in sizes:
        results *= n
        nodes += results
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presheaf, "ENUM_NODE_CAP", data.draw(st.integers(0, nodes + 1)))
        patch.setattr(presheaf, "HOM_CELL_CAP",
                      data.draw(st.integers(0, results * len(cells) + 1)))
        expected = _search_outcome(backtracking_hom_search, cat, cells,
                                   terminal_presheaf(cat).apply, y)
        refusal = presheaf._search_refusal(sizes)
        assert refusal == (expected if isinstance(expected, str) else None)
        # The product of the stages is refused before it yields anything.
        assert _search_outcome(presheaf._hom_search, cat, cells,
                               terminal_presheaf(cat).apply, y) == expected


# The six bases and LATE_MONOID, whose idempotent, like MONOID's, fixes
# some cells, so that a choice's restriction can land on its own cell.
SEARCH_BASES = {**KIT_BASES, "LATE_MONOID": LATE_MONOID}


@pytest.mark.hash_seeds
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(SEARCH_BASES)), st.integers(0, 10 ** 6), st.booleans())
def test_the_hom_search_certifies_exactly_the_natural_arrows(name, seed, into_omega):
    # Each arrow, built unchecked, is natural by `validate_nat`; the list is
    # the backtracking search's, in its order, and the exponential's stages
    # are the reference's.  Into Omega, X has stages of up to 3 elements.
    cat, rng = SEARCH_BASES[name], random.Random(seed)
    x = random_presheaf(cat, rng, max_size=3 if into_omega else 2)
    y = classifier_kit(cat).omega if into_omega else random_presheaf(cat, rng, max_size=3)
    homs = enumerate_nats(x, y)
    assert all(validate_nat(n).ok for n in homs)
    cells = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
    assert [[n.apply(obj, el) for obj, el in cells] for n in homs] == \
        backtracking_hom_search(cat, cells, x.apply, y)
    assert global_elements(y) == brute_global_elements(y)
    exp, ref = exponential(x, y), reference_exponential(x, y)
    assert [exp.stage(obj) for obj in cat.objects] == [ref.stage(obj) for obj in cat.objects]
    assert exp == ref


def _least_cap(name: str, listing) -> int:
    """The least value of the cap `name` at which `listing()` completes,
    the other cap at its default: it raises CapExceeded one below."""
    low, high = 0, 1 << 24
    while low < high:
        mid = (low + high) // 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(presheaf, name, mid)
            try:
                listing()
            except CapExceeded:
                low = mid + 1
            else:
                high = mid
    return low


def _constant(cat, size: int) -> Presheaf:
    return Presheaf(cat, {obj: range(size) for obj in cat.objects},
                    {m.id: {i: i for i in range(size)} for m in cat.morphisms})


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name, size, nodes, cells, reads", [
    ("PT", 2, 7, 8, 2), ("PT", 3, 15, 24, 3), ("PT", 4, 31, 64, 4), ("PT", 5, 63, 160, 5),
    ("PT", 6, 127, 384, 6), ("VEE", 1, 6, 6, 5), ("VEE", 2, 22, 36, 6),
    ("DIAMOND", 1, 17, 24, 9), ("DIAMOND", 2, 128, 288, 10)])
def test_the_hom_search_behind_a_power_object_does_a_counted_amount_of_work(
        monkeypatch, name, size, nodes, cells, reads):
    # P(X) for the constant X of `size` elements, so P(X)(A) = Omega(A)^size.
    # The least node and cell caps under which it is listed are the search
    # nodes of its largest stage and the values its results hold.  The reads
    # of Omega's stages count, per stage searched, one per branching at a
    # cell with a restriction not yet decided, and one to index the stage of
    # each object whose cells the search meets with every restriction
    # decided, which take their values from the index.  On the one object
    # nothing propagates: the stage is listed as the product of |X| stages
    # of 2, with 2^(|X|+1) - 1 nodes and |X| 2^|X| values, reading each
    # cell's stage once; the call reads none.  The backtracking search would
    # read 2^|X| - 1 stages in place of |X|; before the index, the search
    # read 7, 28, 18 and 120 on the vee and the diamond.
    cat = KIT_BASES[name]

    def listing():
        px = power_object(_constant(cat, size))
        return [px.stage(obj) for obj in cat.objects]

    omega = classifier_kit(cat).omega
    assert [len(stage) for stage in listing()] == \
        [len(omega.stage(obj)) ** size for obj in cat.objects]
    assert (_least_cap("ENUM_NODE_CAP", listing), _least_cap("HOM_CELL_CAP", listing)) == \
        (nodes, cells)
    if cat is PT:
        assert (nodes, cells, reads) == (2 ** (size + 1) - 1, size * 2 ** size, size)
    read = []
    stage = Presheaf.stage

    def spy(self, obj):
        if self is omega:
            read.append(obj)
        return stage(self, obj)

    monkeypatch.setattr(Presheaf, "stage", spy)
    listing()
    assert len(read) == reads


class _CountedTable(dict):
    """A restriction table that counts its reads in `reads`."""

    def __init__(self, table, reads: list):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def _search_reads(x: Presheaf) -> tuple[int, int, int]:
    """(arrows, stage reads, restriction reads) of Hom(x, Omega), Omega
    from a kit of its own whose stage and tables count their reads."""
    omega = classifier_kit.__wrapped__(x.base).omega
    stages, reads = [], []
    omega.maps = {mid: _CountedTable(table, reads) for mid, table in omega.maps.items()}
    omega.stage = lambda obj, stage=omega.stage: stages.append(obj) or stage(obj)
    return len(enumerate_nats(x, omega)), len(stages), len(reads)


def _top_first(cat) -> FiniteCategory:
    """The poset category cat with its objects listed in reverse, so that
    a hom search meets a cell before the cells it restricts to."""
    return from_poset(cat.objects[::-1], [(m.dom, m.cod) for m in cat.morphisms
                                          if m.dom != m.cod])


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name, top_first, counts", [
    ("TWO", False, [(3, 2, 3), (9, 2, 3)]), ("TWO", True, [(3, 1, 3), (9, 4, 12)]),
    ("CHAIN3", False, [(4, 3, 11), (16, 3, 11)]), ("CHAIN3", True, [(4, 1, 8), (16, 5, 40)]),
    ("VEE", False, [(5, 3, 6), (25, 3, 6)]), ("VEE", True, [(5, 2, 6), (25, 5, 15)]),
    ("DIAMOND", False, [(6, 4, 24), (36, 4, 24)]), ("DIAMOND", True, [(6, 1, 18), (36, 7, 126)]),
    ("MONOID", False, [(2, 1, 3), (4, 3, 9)]), ("LATE_MONOID", False, [(2, 1, 3), (4, 3, 9)])])
def test_the_hom_search_forces_each_choice_in_one_pass(name, top_first, counts):
    # (arrows, stage reads, restriction reads) of Hom(X, Omega) for the
    # constant X of one and of two elements, in object order and, on the
    # posets, top object first.  The search reads Omega's stage once per
    # cell met with a restriction not yet decided, where each choice reads
    # each of Omega's tables into the cell's object at most once, and once
    # per object whose cells it meets with every restriction decided, to
    # index the stage by the restrictions of its elements.  The recursive forcing
    # it replaced read as many stages or more, and for two elements it read
    # 30, 163, 102 and 784 entries in object order and 12, 60, 84 and 210
    # top object first, on TWO, CHAIN3, VEE and DIAMOND.
    cat = _top_first(KIT_BASES[name]) if top_first else SEARCH_BASES[name]
    assert [_search_reads(_constant(cat, size)) for size in (1, 2)] == counts


# Bases on which some stages of an exponential are listed as a product and
# others by the search: p's cells have nothing to propagate, q's have.
MIXED_BASES = [TWO, from_poset(["q", "p"], [("p", "q")]), PT, MONOID]


@pytest.mark.hash_seeds
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_an_exponential_raises_what_its_listing_would_raise_first(data):
    # Oracle: the backtracking search of each stage in object order, the
    # first CapExceeded it raises.  `exponential` searches nothing and
    # raises nothing at the call; the first read raises that text, and no
    # other.
    cat = data.draw(st.sampled_from(MIXED_BASES))
    x = random_presheaf(cat, random.Random(data.draw(st.integers(0, 50))), max_size=2)
    y = random_presheaf(cat, random.Random(data.draw(st.integers(0, 50))), max_size=3)

    def restrict(mid, cell):
        g, xv = cell
        return cat.compose(g, mid), x.apply(mid, xv)

    with pytest.MonkeyPatch.context() as patch:
        # Small caps too, at which the stages of both kinds are refused.
        patch.setattr(presheaf, "ENUM_NODE_CAP", data.draw(st.integers(0, 60)))
        patch.setattr(presheaf, "HOM_CELL_CAP", data.draw(st.integers(0, 3) | st.integers(0, 120)))
        outcomes = [_search_outcome(backtracking_hom_search, cat,
                                    [(b, (g, xv)) for b, g, xv in presheaf._exp_keys(cat, obj, x)],
                                    restrict, y) for obj in cat.objects]
        expected = next((o for o in outcomes if isinstance(o, str)), None)
        with pytest.MonkeyPatch.context() as no_search:
            no_search.setattr(presheaf, "_hom_search", None)
            exp = exponential(Presheaf(cat, x.at, x.maps), y)
        try:
            exp.at
        except CapExceeded as exc:
            assert str(exc) == expected
        else:
            assert expected is None


@pytest.mark.parametrize("states, results", [(18, 233_016), (24, 174_762)])
def test_a_power_object_past_the_cell_cap_is_refused_at_once(states, results):
    x = Presheaf(PT, {"pt": [f"once{i}" for i in range(states)]}, {})
    with budget(f"P(X) of {states} elements refused", 0.1):
        px = power_object(x)
        with pytest.raises(CapExceeded) as err:
            px.at
    assert str(err.value) == (f"hom search results of {states} cells each exceed cap "
                              f"{HOM_CELL_CAP} cells after {results} results")


def _exponential_pairs(seed: int = 31) -> list:
    rng = random.Random(seed)
    pairs = []
    for cat in ALL_BASES + [DIAMOND]:
        omega = classifier_kit(cat).omega
        for _ in range(4):
            x = random_presheaf(cat, rng, max_size=2)
            pairs += [(x, random_presheaf(cat, rng, max_size=2)), (x, omega)]
    return pairs


EXPONENTIAL_PAIRS = _exponential_pairs()
# The first read of an exponential, by what it reads, given its reference.
FIRST_READS = {
    "at": lambda exp, ref: exp.at,
    "maps": lambda exp, ref: exp.maps,
    "stage": lambda exp, ref: exp.stage(ref.base.objects[-1]),
    "apply": lambda exp, ref: [exp.apply(mid, el) for mid, table in ref.maps.items()
                               for el in table][:1],
    "equality": lambda exp, ref: exp == ref,
    "hash": lambda exp, ref: hash(exp) == hash(ref),
}


@pytest.mark.hash_seeds
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_lazily_listed_exponential_is_the_reference_exponential(data):
    x, y = data.draw(st.sampled_from(EXPONENTIAL_PAIRS))
    read = data.draw(st.sampled_from(sorted(FIRST_READS)))
    # An exponent built apart has no exponential kept on it yet.
    x = Presheaf(x.base, x.at, x.maps)
    exp, ref = exponential(x, y), reference_exponential(x, y)
    assert "at" not in vars(exp) and "maps" not in vars(exp)
    FIRST_READS[read](exp, ref)
    assert "at" in vars(exp) and "maps" in vars(exp)
    cat = x.base
    assert [list(exp.stage(obj)) for obj in cat.objects] == \
        [list(ref.stage(obj)) for obj in cat.objects]
    assert exp.maps == ref.maps and exp == ref and hash(exp) == hash(ref)
    assert [list(table) for table in exp.maps.values()] == \
        [list(ref.maps[mid]) for mid in exp.maps]
    assert exponential(x, y) is exp


# -- the classifier kit: its cache and its tables -------------------------------------

def _fresh_base(shape: str, tag: str):
    """A base of the named shape whose object names no other call uses."""
    if shape == "monoid":
        x, one, e = f"{tag}x", f"id[{tag}x]", f"{tag}e"
        comp = {(one, one): one, (one, e): e, (e, one): e, (e, e): e}
        return FiniteCategory([x], [Morphism(one, x, x), Morphism(e, x, x)], {x: one}, comp)
    if shape.startswith("chain"):
        names = [f"{tag}c{i}" for i in range(int(shape[5:]))]
        return from_poset(names, list(zip(names, names[1:])))
    if shape == "vee":
        return from_poset([f"{tag}a", f"{tag}b", f"{tag}c"],
                          [(f"{tag}a", f"{tag}b"), (f"{tag}a", f"{tag}c")])
    a, b, c, d = (f"{tag}{n}" for n in "abcd")
    return from_poset([a, b, c, d], [(a, b), (a, c), (b, d), (c, d)])


def _set_rep(pt, tag: str) -> ToposRep:
    """A representation on the one-object base `pt`: four states, three
    values, A(s_j) = v_(j mod 3)."""
    obj = pt.objects[0]
    sigma = Presheaf(pt, {obj: [f"{tag}s{j}" for j in range(4)]}, {})
    values = Presheaf(pt, {obj: [f"{tag}v{j}" for j in range(3)]}, {})
    arrow = NatTransform(sigma, values, {obj: {f"{tag}s{j}": f"{tag}v{j % 3}" for j in range(4)}})
    return build_rep(Signature({"A": (SIGMA, RQ)}), pt, {"Sigma": sigma, "R": values},
                     {"A": arrow})


def _kit_traffic(seed: int, ops: int) -> list:
    """A seeded run of operations that read kits as the `topos` benchmark's
    do: each on bases no other operation uses, and one kind that reads a
    representation's kit between those of a one-object base, as `ls
    represent` does.  Weak references to the Omega of every kit built."""
    rng = random.Random(seed)
    omegas = []
    for i in range(ops):
        kind = rng.choice(["classifier", "classify", "power", "family", "interleaved"])
        tag = f"traffic{seed}-{i}-"
        cat = _fresh_base(rng.choice(["chain3", "chain5", "vee", "diamond", "monoid"]), tag)
        pt = one_object_category(f"{tag}pt")
        if kind == "classifier":
            kits = [classifier_kit(cat)]
            assert [len(kits[0].omega.stage(obj)) for obj in cat.objects] == \
                [len(brute_sieves(cat, obj)) for obj in cat.objects]
        elif kind == "classify":
            x = random_presheaf(cat, rng, max_size=2)
            subs = enumerate_subobjects(x)
            kits = [classifier_kit(cat)]
            assert len(enumerate_nats(x, kits[0].omega)) == len(subs)
            assert all(subobject_of_char(char_morphism(k)) == k for k in subs)
        elif kind == "power":
            px = power_object(Presheaf(pt, {pt.objects[0]: range(3)}, {}))
            assert len(px.stage(pt.objects[0])) == 8
            kits = [classifier_kit(pt)]
        else:
            rep = _set_rep(pt, tag)
            family = prop_family("A", rep)
            zv = family.source.stage(pt.objects[0])[-1]
            assert len(family.apply(pt.objects[0], zv)) == 4
            kits = [rep.kit]
            if kind == "interleaved":
                x = random_presheaf(cat, rng, max_size=2)
                other = ToposRep(Signature({"A": (SIGMA, RQ)}), cat, {"Sigma": x, "R": x}, {})
                # Read at zv alone, as a classical preimage reads it.
                assert family._value(pt.objects[0], zv) == family.apply(pt.objects[0], zv)
                assert power_object(interpret_type(SIGMA, other)) is power_object(x)
                kits.append(other.kit)
        omegas += [weakref.ref(kit.omega) for kit in kits]
    return omegas


@pytest.mark.hash_seeds
def test_the_kit_cache_keeps_the_traffic_of_a_long_cache_and_frees_the_rest():
    # 128 kits kept make the same 253 hits and 49 misses; one kit kept
    # makes 235 and 67.  A family's first `apply` lists P(R), which reads
    # the kit once per element.  A kit evicted is freed: after a collection
    # at most CACHE_SIZE are alive.
    classifier_kit.cache_clear()
    omegas = _kit_traffic(351, 40)
    info = classifier_kit.cache_info()
    assert (info.hits, info.misses) == (253, 49)
    assert info.currsize == CACHE_SIZE
    gc.collect()
    assert len([ref for ref in omegas if ref() is not None]) <= CACHE_SIZE


def test_a_kit_the_cache_drops_is_freed_by_reference_counting():
    # Nothing a kit holds refers back to it, so the last reference dropped
    # frees it at once, with the cyclic collector off.
    gc.collect()
    gc.disable()
    try:
        omegas = []
        for i in range(3 * CACHE_SIZE + 2):
            cat = _fresh_base(["chain3", "vee", "monoid"][i % 3], f"refcount{i}-")
            x = random_presheaf(cat, random.Random(i), max_size=2)
            assert all(subobject_of_char(char_morphism(k)) == k for k in enumerate_subobjects(x))
            omegas.append(weakref.ref(classifier_kit(cat).omega))
        alive = [ref() for ref in omegas if ref() is not None]
    finally:
        gc.enable()
    assert len(alive) <= CACHE_SIZE
    assert [omega.base for omega in alive] == \
        [ref().base for ref in omegas[len(omegas) - len(alive):]]


def test_a_presheaf_and_its_element_layout_are_freed_by_reference_counting():
    # The element layout kept on a presheaf, with its sieve memos, holds
    # the presheaf's elements and never the presheaf, so no cycle is made.
    gc.collect()
    gc.disable()
    try:
        x = random_presheaf(VEE, random.Random(3), max_size=2)
        subs = enumerate_subobjects(x)
        assert all(subobject_of_char(char_morphism(k)) == k for k in subs)
        assert len(sub_heyting(x).algebra) == len(subs)
        ref = weakref.ref(x)
        del x, subs
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name", list(KIT_BASES))
def test_every_value_into_omega_is_an_element_of_its_stage(name):
    # Omega's tables, the true arrow and the characteristic arrow of every
    # sub-object of the terminal presheaf and of the fixture pool's
    # presheaves on the base take their values by mask from Omega's own
    # stages: each value is one of the stage's elements, not a second,
    # equal frozenset.  So do the interpreted formulas and the cells of the
    # interpreted comprehensions of a representation on the base, the got
    # and expected sieves of failing sequents' witnesses, with and without
    # premises, and on the one-object base the cells of a classical
    # interval set's element.
    cat = KIT_BASES[name]
    kit = classifier_kit(cat)
    values = [(m.dom, v) for m in cat.morphisms for v in kit.omega.maps[m.id].values()]
    values += [(obj, kit.true_arrow.apply(obj, ())) for obj in cat.objects]
    pool = [x for x in presheaf_fixture_pool() if x.base == cat]
    for x in [kit.terminal] + pool:
        for k in enumerate_subobjects(x):
            values += [(obj, v) for obj, comp in char_morphism(k).components.items()
                       for v in comp.values()]
    x = pool[0]
    identity = NatTransform(x, x, {obj: {e: e for e in x.stage(obj)} for obj in cat.objects})
    rep = ToposRep(Signature({"A": (SIGMA, RQ)}), cat, {"Sigma": x, "R": x}, {"A": identity})
    context = (("s", SIGMA), ("t", SIGMA))
    for text in ["true", "s = t", "A(s) = A(t) & true", "s in { u : Sigma | A(u) = A(t) }"]:
        arrow = interpret_term(parse_term(text, rep.signature), context, rep)
        values += [(obj, v) for obj, comp in arrow.components.items() for v in comp.values()]
    for text in ["{ u : Sigma | u = t }", "{ u : Sigma | A(u) = A(s) & true }"]:
        arrow = interpret_term(parse_term(text, rep.signature), context, rep)
        values += [(b, v) for comp in arrow.components.values() for el in comp.values()
                   for (b, _, _), v in el]
    types = {"s": SIGMA, "D": PowerType(RQ), "p": OMEGA, "q": OMEGA}
    member, p, q = (annotate(parse_term(text, rep.signature), types)
                    for text in ["A(s) in D", "p", "q"])
    report = validate_axioms(rep, [("bare", Sequent.of(member)),
                                   ("meet", Sequent.of(q, p, member))])
    assert {w.axiom for w in report.failures} == {"bare", "meet"}
    values += [(w.stage, v) for w in report.failures for v in (w.got, w.expected)]
    if name == "PT":
        eff = EffectiveClassicalRep.build(ClassicalSystem(
            ("s0", "s1", "s2"), {"A": {"s0": Fraction(0), "s1": Fraction(1), "s2": Fraction(2)}}))
        assert eff.rep.kit is kit
        for delta in ["[0, 1)", "(5, 6]", "[0, 2]"]:
            values += [(b, v) for (b, _, _), v in eff.delta_element(parse_interval_set(delta))]
    elements = {obj: {id(s) for s in kit.omega.stage(obj)} for obj in cat.objects}
    assert len(values) > sum(map(len, elements.values()))
    assert [(obj, v) for obj, v in values if id(v) not in elements[obj]] == []


def _assert_omega_is_the_pullback_presheaf(cat) -> None:
    kit = classifier_kit.__wrapped__(cat)
    for obj in cat.objects:
        sieves = sieves_on(cat, obj)
        assert kit.omega.stage(obj) == tuple(canon_sorted(sieves))
        # One representation of a sieve: Omega's stage, the sieve algebra's
        # element ids and the true arrow's value are the member frozensets.
        assert set(sieves) == set(sieve_heyting(cat, obj).elements)
        assert kit.true_arrow.apply(obj, ()) == principal_sieve(cat, obj)
    for m in cat.morphisms:
        for members in kit.omega.stage(m.cod):
            assert kit.omega.apply(m.id, members) == pullback_members(cat, m.id, members)
    assert validate_presheaf(kit.omega).ok
    assert validate_nat(kit.true_arrow).ok


@pytest.mark.parametrize("name", list(KIT_BASES))
def test_omega_tables_are_the_pullbacks_of_every_sieve(name):
    _assert_omega_is_the_pullback_presheaf(KIT_BASES[name])


@pytest.mark.hash_seeds
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda pair: pair[0] < pair[1])))))
def test_omega_tables_are_the_pullbacks_of_every_sieve_on_random_posets(poset):
    # Pairs i < j only, so the relation has no cycle.
    n, pairs = poset
    names = [f"h{i}" for i in range(n)]
    _assert_omega_is_the_pullback_presheaf(
        from_poset(names, [(names[i], names[j]) for i, j in sorted(pairs)]))


@pytest.mark.hash_seeds
@pytest.mark.parametrize("shape, composed", [("chain3", 14), ("chain6", 91), ("chain8", 204),
                                             ("vee", 9), ("diamond", 23), ("monoid", 6)])
def test_a_kit_composes_each_arrow_with_each_arrow_into_its_domain_once(
        monkeypatch, shape, composed):
    # Once for the sieve order on each arrow's codomain, and once more for
    # Omega's table along each non-identity arrow, shared by every sieve
    # pulled back along it.  Pulling each sieve back on its own composed
    # 45, 378, 990, 27 and 90 times on the five posets.
    cat = _fresh_base(shape, "composed-")
    calls = []
    compose = FiniteCategory.compose

    def spy(self, f, g):
        calls.append((f, g))
        return compose(self, f, g)

    monkeypatch.setattr(FiniteCategory, "compose", spy)
    # The stages are ordered by their members' ranks: no canon_key per sieve.
    keys = []
    monkeypatch.setattr(_canon, "canon_key", lambda v, key=canon_key: keys.append(v) or key(v))
    classifier_kit.__wrapped__(cat)
    monkeypatch.undo()
    assert keys == []
    into_dom = {m.id: len(cat.into(m.dom)) for m in cat.morphisms}
    assert len(calls) == composed == sum(into_dom.values()) + sum(
        n for mid, n in into_dom.items() if mid != cat.id_of(cat.morphism(mid).dom))


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
    # whose values are 1 or Fraction(1), and arrows, built unchecked, that
    # are not total or hold a cell outside their source.
    omega = classifier_kit(TWO).omega
    arrows = enumerate_nats(X2, omega) + enumerate_nats(reversed_copy(X2), omega) \
        + enumerate_nats(X2, X2)
    for x in presheaf_fixture_pool():
        arrows += enumerate_nats(x, classifier_kit(x.base).omega)
    one, numbers = set_presheaf([0]), set_presheaf([1, 2])
    arrows += [NatTransform(one, numbers, {"pt": {0: v}}) for v in (1, Fraction(1), 2)]
    for source in (X2, reversed_copy(X2)):
        arrows += [NatTransform._certified(source, omega, {"q": {"x0": fs()}, "p": {}}),
                   NatTransform._certified(source, omega,
                                           {"q": {"x0": fs(), "junk": fs()}, "p": {}})]
    assert_equality_matches_reference(arrows, reference_nat_key)


def test_global_elements_of_omega_form_heyting_algebra_pointwise():
    kit = classifier_kit(TWO)
    gs = global_elements(kit.omega)

    def leq(a, b):
        return all(a.apply(o, ()) <= b.apply(o, ()) for o in TWO.objects)

    alg = HeytingAlgebra(gs, leq)
    assert check_heyting_laws(alg).ok
    # pointwise meets and joins of matching families are matching
    for a in gs:
        for b in gs:
            met = alg.meet(a, b)
            assert all(met.apply(o, ()) == a.apply(o, ()) & b.apply(o, ()) for o in TWO.objects)
            joined = alg.join(a, b)
            assert all(joined.apply(o, ()) == a.apply(o, ()) | b.apply(o, ())
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
            k, l = subobject_of_id(x, a), subobject_of_id(x, b)
            for m in cat.morphisms:
                moved = {x.apply(m.id, el) for el in k.parts[m.cod]}
                assert moved <= l.parts[m.dom]


# -- the shape check of exp_transpose ---------------------------------------------

def _copy_tables(x: Presheaf) -> tuple[dict, dict]:
    return {obj: list(x.stage(obj)) for obj in x.base.objects}, \
        {m: dict(table) for m, table in x.maps.items()}


def _built(cat, at: dict, maps: dict):
    """The presheaf of these tables, or None when the reference law check
    finds a violation, which the constructor must then name."""
    violations = reference_law_violations(cat, at, maps)
    if violations:
        with pytest.raises(PresheafError) as err:
            Presheaf(cat, at, maps)
        assert str(err.value) == f"violates functor laws: {violations[0]}"
        return None
    return Presheaf(cat, at, maps)


def _shape_fault(data, p: Presheaf):
    """p with one fault in a stage or a restriction table, or none; None
    when the fault leaves no presheaf."""
    fault = data.draw(st.sampled_from(["none", "none", "rename", "drop element",
                                       "extra element", "entry", "extra key", "missing key"]))
    at, maps = _copy_tables(p)
    cat = p.base
    obj = data.draw(st.sampled_from(cat.objects))
    m = data.draw(st.sampled_from(sorted(maps)))
    keys = sorted(maps[m], key=canon_key)
    if fault == "rename" and at[obj]:
        # Still a presheaf: one element renamed in its stage and tables.
        old, new = data.draw(st.sampled_from(at[obj])), ("renamed",)
        at[obj] = [new if el == old else el for el in at[obj]]
        for mid, table in maps.items():
            mor = cat.morphism(mid)
            maps[mid] = {(new if mor.cod == obj and k == old else k):
                         (new if mor.dom == obj and v == old else v) for k, v in table.items()}
    elif fault == "drop element" and at[obj]:
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
    return _built(cat, at, maps)


@pytest.mark.hash_seeds
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exp_transpose_refuses_exactly_the_sources_that_are_not_the_product(data):
    # Oracle: the comparison with the built product that exp_transpose made
    # before it compared the source with the factors directly.  A fault that
    # leaves no presheaf stops at the constructor.
    base = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    z, x = (data.draw(st.sampled_from(CERTIFIED_POOL[base])) for _ in range(2))
    kit = classifier_kit(base)
    p = _shape_fault(data, product_presheaf([z, x] if data.draw(st.booleans()) else [x, z]))
    if p is None:
        return
    top = {obj: principal_sieve(base, obj) for obj in base.objects}
    f = NatTransform(p, kit.omega, {obj: {el: top[obj] for el in p.stage(obj)}
                                    for obj in base.objects})
    y = data.draw(st.sampled_from([kit.omega, kit.omega, kit.terminal]))
    if f.source != product_presheaf([z, x]) or f.target != y:
        with pytest.raises(ShapeMismatch, match="^arrow to transpose is not Z x X -> Y$"):
            exp_transpose(f, z, x, y)
    else:
        assert validate_nat(exp_transpose(f, z, x, y)).ok


def _transpose_pairs(seed: int = 3) -> list:
    """Seeded pairs (Z, X) on every base, with at most 8 elements in Z x X."""
    rng = random.Random(seed)
    pairs = []
    for cat in ALL_BASES + [DIAMOND]:
        for _ in range(6):
            z, x = random_presheaf(cat, rng, max_size=2), random_presheaf(cat, rng, max_size=2)
            if sum(len(z.stage(obj)) * len(x.stage(obj)) for obj in cat.objects) <= 8:
                pairs.append((z, x))
    return pairs


TRANSPOSE_PAIRS = _transpose_pairs()


@pytest.mark.hash_seeds
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exp_transpose_reads_shuffled_components_as_stage_ordered_ones(data):
    # An arrow from the caller lists its components in any order: the
    # transpose reads them in the product's order either way.
    z, x = data.draw(st.sampled_from(TRANSPOSE_PAIRS))
    y = classifier_kit(z.base).omega
    prod = product_presheaf([z, x])
    f = data.draw(st.sampled_from(enumerate_nats(prod, y)))
    shuffled = NatTransform(prod, y, {obj: dict(data.draw(st.permutations(list(comp.items()))))
                                      for obj, comp in f.components.items()})
    got = exp_transpose(shuffled, z, x, y)
    assert got == exp_transpose(f, z, x, y)
    assert exp_untranspose(got, z, x, y) == f
    assert [list(got.components[obj]) for obj in z.base.objects] == \
        [list(z.stage(obj)) for obj in z.base.objects]


def test_exp_transpose_on_a_missing_component_raises_presheaf_error():
    z, x = two_point_presheaf(["z0", "z1"], ["z'"], {"z0": "z'", "z1": "z'"}), X2
    omega = classifier_kit(TWO).omega
    prod = product_presheaf([z, x])
    components = {obj: {el: principal_sieve(TWO, obj) for el in prod.stage(obj)}
                  for obj in TWO.objects}
    del components["q"][("z1", "x0")]
    with pytest.raises(PresheafError) as err:
        NatTransform(prod, omega, components)
    assert str(err.value) == "invalid in a component: ('not-total', 'q', ('z1', 'x0'))"
    # Built unchecked, the arrow reaches the reordering path, which reads
    # each value through `NatTransform.apply`.
    with pytest.raises(PresheafError) as err:
        exp_transpose(NatTransform._certified(prod, omega, components), z, x, omega)
    assert str(err.value) == "component at 'q' undefined at ('z1', 'x0')"


def test_exp_transpose_builds_no_product(monkeypatch):
    z, x = two_point_presheaf(["z0", "z1"], ["z'"], {"z0": "z'", "z1": "z'"}), X2
    omega = classifier_kit(TWO).omega
    prod = product_presheaf([z, x])
    f = NatTransform(prod, omega, {obj: {el: principal_sieve(TWO, obj)
                                         for el in prod.stage(obj)} for obj in TWO.objects})
    built = []
    monkeypatch.setattr(presheaf, "product_presheaf",
                        lambda factors: built.append(factors) or product_presheaf(factors))
    name = exp_transpose(f, z, x, omega)
    assert built == [] and name == power_transpose(f, z, x)
    with pytest.raises(ShapeMismatch):
        exp_transpose(f, x, z, omega)
    assert built == []


# -- the law check at the constructor ----------------------------------------------

def _unchecked(cat, at: dict, maps: dict) -> Presheaf:
    """The presheaf the constructor would build from these tables, before
    its check: stages deduplicated in canon_key order, the missing identity
    tables filled in, and the stages and tables under names the base lacks
    kept."""
    x = Presheaf._canonical(
        cat, {obj: tuple(canon_sorted(set(stage))) for obj, stage in at.items()}, maps)
    x.maps.update((mid, dict(table)) for mid, table in maps.items() if mid not in x.maps)
    return x


@pytest.mark.hash_seeds
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(KIT_BASES)), st.integers(0, 10 ** 6), st.data())
def test_the_constructor_names_the_first_fault_of_what_it_is_given(name, seed, data):
    # Each table, the identities' too, is given as a lawful presheaf has it,
    # left out, or given with one entry moved, dropped or added; now and then
    # a stage or a table is under a name the base lacks.  `validate_presheaf`
    # checks no composite through an identity table that fixes its stage,
    # yet on the tables the constructor would build it lists what the
    # reference check lists, and the constructor raises exactly with its
    # first item, or builds them when that list is empty.
    cat = KIT_BASES[name]
    lawful = random_presheaf(cat, random.Random(seed), max_size=3)
    at = {obj: list(lawful.stage(obj)) for obj in cat.objects}
    maps = {}
    for m in cat.morphisms:
        how = data.draw(st.sampled_from(["given", "left out", "moved", "dropped", "added"]))
        table, values = dict(lawful.maps[m.id]), at[m.dom] + ["junk"]
        if how == "left out":
            continue
        if how == "moved":
            table[data.draw(st.sampled_from(sorted(table)))] = data.draw(st.sampled_from(values))
        elif how == "dropped":
            del table[data.draw(st.sampled_from(sorted(table)))]
        elif how == "added":
            table["junk"] = data.draw(st.sampled_from(values))
        maps[m.id] = table
    if data.draw(st.integers(0, 9)) == 0:
        at["nowhere"] = ["n0"]
    if data.draw(st.integers(0, 9)) == 0:
        maps["le[nope]"] = {}
    unchecked = _unchecked(cat, at, maps)
    faults = validate_presheaf(unchecked).items
    assert faults == reference_law_violations(cat, at, maps)
    if faults:
        with pytest.raises(PresheafError) as err:
            Presheaf(cat, at, maps)
        assert str(err.value) == f"violates functor laws: {faults[0]}"
    else:
        assert Presheaf(cat, at, maps) == unchecked


def _raw_tables(data, cat) -> tuple[dict, dict]:
    """Stages and restriction tables on cat, functorial or not: a pool
    presheaf's tables with at most one entry changed, dropped or added, or
    tables drawn afresh from stages of up to two elements; now and then a
    stage or a table under a name the base lacks."""
    if data.draw(st.booleans()):
        # Not Omega, the pool's last member: its sub-objects are too many.
        at, maps = _copy_tables(data.draw(st.sampled_from(CERTIFIED_POOL[cat][:-1])))
        m = data.draw(st.sampled_from(sorted(maps)))
        keys = sorted(maps[m], key=canon_key)
        how = data.draw(st.sampled_from(["none", "entry", "drop", "add"]))
        if how == "entry" and keys:
            maps[m][data.draw(st.sampled_from(keys))] = \
                data.draw(st.sampled_from(at[cat.morphism(m).dom] + ["junk"]))
        elif how == "drop" and keys:
            del maps[m][data.draw(st.sampled_from(keys))]
        elif how == "add":
            maps[m]["junk"] = data.draw(st.sampled_from(at[cat.morphism(m).dom] + ["junk"]))
    else:
        at = {obj: [f"{obj}{i}" for i in range(data.draw(st.integers(0, 2)))]
              for obj in cat.objects}
        maps = {}
        for m in cat.morphisms:
            if data.draw(st.booleans()) or m.id != cat.id_of(m.dom):
                values = st.sampled_from(at[m.dom] or ["junk"])
                maps[m.id] = {el: data.draw(values) for el in at[m.cod]}
    if data.draw(st.integers(0, 9)) == 0:
        at["nowhere"] = ["n0"]
    if data.draw(st.integers(0, 9)) == 0:
        maps["le[nope]"] = {}
    return at, maps


@pytest.mark.hash_seeds
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_only_lawful_tables_construct_and_their_arrows_are_natural(data):
    # Presheaf(...) raises exactly when the reference law check on the raw
    # tables finds a violation, naming its first.  On what constructs, the
    # arrows char_morphism and exp_transpose build unchecked pass validate_nat.
    cat = data.draw(st.sampled_from(list(CERTIFIED_POOL)))
    x = _built(cat, *_raw_tables(data, cat))
    if x is None:
        return
    assert validate_presheaf(x).ok
    for k in enumerate_subobjects(x):
        chi = char_morphism(k)
        assert validate_nat(chi).ok
    # Z x X -> Y stays small enough to list: Z is X only for an X of at
    # most three elements, and Y is X only when Z is the terminal.
    kit = classifier_kit(cat)
    small = sum(map(len, x.at.values())) <= 3
    z = data.draw(st.sampled_from([kit.terminal, x] if small else [kit.terminal]))
    y = data.draw(st.sampled_from([kit.omega, kit.terminal] + ([x] if z is kit.terminal else [])))
    arrows = enumerate_nats(product_presheaf([z, x]), y)
    for f in data.draw(st.lists(st.sampled_from(arrows), max_size=3)) if arrows else ():
        name = exp_transpose(f, z, x, y)
        assert validate_nat(name).ok
