import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    ALL_BASES,
    DIAMOND,
    MONOID,
    NotASieve,
    brute_sieves,
    idempotent_monoid,
    principal_sieve,
    pullback_sieve,
    sieve_implies,
    sieve_negate,
)

from toposlang import category
from toposlang.category import (
    CategoryError,
    FiniteCategory,
    Morphism,
    from_poset,
    one_object_category,
    sieve_heyting,
    sieves_on,
    validate_category,
)
from toposlang.errors import CapExceeded
from toposlang.heyting import InvalidOrder, preorder_closure
from toposlang.project import ProjectError, build_project


def fs(*xs):
    return frozenset(xs)


TWO = from_poset(["p", "q"], [("p", "q")])
CHAIN3 = from_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_from_poset_orders_arrows_by_codomain_then_sorted_domain():
    cat = from_poset(["b", "d", "a", "c"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert [m.id for m in cat.morphisms] == [
        "id[b]", "id[d]", "id[a]", "id[c]",
        "le[a,b]", "le[a,d]", "le[b,d]", "le[c,d]", "le[a,c]"]


def test_from_poset_two_point():
    assert set(TWO.objects) == {"p", "q"}
    assert {m.id for m in TWO.morphisms} == {"id[p]", "id[q]", "le[p,q]"}
    assert TWO.compose("le[p,q]", "id[p]") == "le[p,q]"
    assert TWO.compose("id[q]", "le[p,q]") == "le[p,q]"


def test_from_poset_single_point_and_chain():
    single = from_poset(["a"], [])
    assert len(single.morphisms) == 1
    # reflexive-transitive closure of a<=b<=c has 6 pairs
    assert len(CHAIN3.morphisms) == 6
    assert CHAIN3.compose("le[b,c]", "le[a,b]") == "le[a,c]"


def test_from_poset_rejects_cycles():
    with pytest.raises(InvalidOrder):
        from_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_poset_refuses_a_repeated_element_or_arrow_id():
    # Both built a category that broke the laws: a repeated element gave two
    # identities on one object, and the down-set scan on its sieves ran until
    # the process ran out of memory.
    with pytest.raises(CategoryError, match=r"^element 'p' occurs twice$"):
        from_poset(["p", "q", "p"], [("p", "q")])
    with pytest.raises(CategoryError, match=r"^arrow id 'le\[a,b,c\]' occurs twice$"):
        from_poset(["a", "b,c", "a,b", "c"], [("a", "b,c"), ("a,b", "c")])


def test_validate_passes_on_poset_output():
    for cat in (TWO, CHAIN3, one_object_category()):
        assert validate_category(cat).ok


def _hand_built(drop_composite=False, broken_unit=False):
    objs = ["x"]
    mors = [Morphism("id[x]", "x", "x"), Morphism("e", "x", "x")]
    comp = {
        ("id[x]", "id[x]"): "id[x]",
        ("id[x]", "e"): "e",
        ("e", "id[x]"): "id[x]" if broken_unit else "e",
        ("e", "e"): "e",
    }
    if drop_composite:
        del comp[("e", "e")]
    return FiniteCategory(objs, mors, {"x": "id[x]"}, comp)


def test_constructor_refuses_a_missing_composite():
    with pytest.raises(CategoryError, match=re.escape(
            "violates the category laws: ('missing', 'e', 'e')")):
        _hand_built(drop_composite=True)


def test_constructor_refuses_a_unit_violation():
    with pytest.raises(CategoryError, match=re.escape(
            "violates the category laws: ('right-unit', 'e', 'id[x]')")):
        _hand_built(broken_unit=True)


# -- the law check at the constructor, against planted violations -------------

def transformation_monoid() -> FiniteCategory:
    """All four maps of {0, 1} to itself under composition: one object with
    parallel arrows, so a re-pointed composite can break associativity
    alone (each of the 27 re-pointings of a composite of two non-identity
    arrows does)."""
    maps = {"id": (0, 1), "swap": (1, 0), "c0": (0, 0), "c1": (1, 1)}
    name = {v: k for k, v in maps.items()}
    comp = {(f, g): name[(maps[f][maps[g][0]], maps[f][maps[g][1]])] for f in maps for g in maps}
    return FiniteCategory(["x"], [Morphism(k, "x", "x") for k in maps], {"x": "id"}, comp)


def table(cat: FiniteCategory) -> tuple:
    """The constructor arguments of a category, composites read pair by pair."""
    return (list(cat.objects), list(cat.morphisms), dict(cat.identity),
            {(f.id, g.id): cat.compose(f.id, g.id)
             for f in cat.morphisms for g in cat.morphisms if g.cod == f.dom})


def json_table(cat: FiniteCategory) -> dict:
    objects, mors, ids, comp = table(cat)
    return {"objects": objects, "identities": ids,
            "morphisms": [{"id": m.id, "dom": m.dom, "cod": m.cod} for m in mors],
            "composition": [[f, g, fg] for (f, g), fg in comp.items()]}


@st.composite
def poset_categories(draw):
    n = draw(st.integers(2, 4))
    elems = [f"e{i}" for i in draw(st.permutations(range(n)))]
    return from_poset(elems, [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)
                              if draw(st.booleans())])


def composable(cat):
    return [(f, g) for f in cat.morphisms for g in cat.morphisms if g.cod == f.dom]


def plant_missing(cat, data):
    f, g = data.draw(st.sampled_from(composable(cat)))
    objects, mors, ids, comp = table(cat)
    del comp[(f.id, g.id)]
    return (objects, mors, ids, comp), lambda r: ("missing", f.id, g.id) in r.closure


def plant_bad_signature(cat, data):
    f, g = data.draw(st.sampled_from(composable(cat)))
    k = data.draw(st.sampled_from([k for k in cat.morphisms
                                   if (k.dom, k.cod) != (g.dom, f.cod)]))
    objects, mors, ids, comp = table(cat)
    comp[(f.id, g.id)] = k.id
    return (objects, mors, ids, comp), \
        lambda r: ("bad-signature", f.id, g.id, k.id) in r.closure


def plant_unit(side):
    def plant(cat, data):
        m = data.draw(st.sampled_from(cat.morphisms))
        k = data.draw(st.sampled_from([k for k in cat.morphisms if k != m]))
        objects, mors, ids, comp = table(cat)
        comp[(ids[m.cod], m.id) if side == "left-unit" else (m.id, ids[m.dom])] = k.id
        return (objects, mors, ids, comp), lambda r: (side, m.id, k.id) in r.units
    return plant


def plant_associativity(cat, data):
    ident = {cat.id_of(obj) for obj in cat.objects}
    f, g = data.draw(st.sampled_from([(f, g) for f, g in composable(cat)
                                      if f.id not in ident and g.id not in ident]))
    fg = cat.compose(f.id, g.id)
    k = data.draw(st.sampled_from([k for k in cat.morphisms if k.id != fg]))
    objects, mors, ids, comp = table(cat)
    comp[(f.id, g.id)] = k.id
    return (objects, mors, ids, comp), lambda r: bool(r.associativity)


ANY_TABLE = st.one_of(poset_categories(), st.just(MONOID), st.just(transformation_monoid()))
PLANTS = {
    "missing": (plant_missing, ANY_TABLE),
    # One-object tables have no composite of another signature to point to.
    "bad-signature": (plant_bad_signature, poset_categories()),
    "left-unit": (plant_unit("left-unit"), ANY_TABLE),
    "right-unit": (plant_unit("right-unit"), ANY_TABLE),
    # A thin category has one arrow per signature, and the idempotent
    # monoid's one re-pointing is Z/2, lawful: associativity alone breaks
    # only with parallel arrows.
    "associativity": (plant_associativity, st.just(transformation_monoid())),
}


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("kind", PLANTS)
@given(data=st.data())
def test_the_constructor_refuses_a_planted_violation_with_the_first_one_reported(kind, data):
    plant, tables = PLANTS[kind]
    cat = data.draw(tables)
    assert FiniteCategory(*table(cat)) == cat  # the unplanted table is accepted
    planted, holds = plant(cat, data)
    report = validate_category(FiniteCategory._unchecked(*planted))
    assert holds(report)
    first = (*report.closure, *report.units,
             *(("associativity", *fgh) for fgh in report.associativity))[0]
    with pytest.raises(CategoryError) as refused:
        FiniteCategory(*planted)
    assert str(refused.value) == f"violates the category laws: {first}"


def test_the_law_check_runs_once_per_public_construction_and_never_on_a_poset(monkeypatch):
    calls = []
    monkeypatch.setattr(category, "validate_category",
                        lambda cat, check=validate_category: calls.append(cat) or check(cat))
    from_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    one_object_category()
    assert calls == []
    built = idempotent_monoid()
    assert calls == [built]
    project = build_project({"posets": [{"name": "two", "elements": ["p", "q"],
                                         "order": [["p", "q"]]}],
                             "categories": [{"name": "c", **json_table(built)}]})
    assert calls == [built, project.categories["c"]]



def test_constructor_rejects_dangling_references():
    with pytest.raises(CategoryError):
        FiniteCategory(["x"], [Morphism("f", "x", "y")], {"x": "f"}, {})
    with pytest.raises(CategoryError):
        FiniteCategory(["x"], [Morphism("id[x]", "x", "x")], {}, {})


def test_constructor_refuses_an_identity_for_an_unknown_object():
    # The stray key answered `id_of` and entered the category's hash and key.
    with pytest.raises(CategoryError, match="^identity for unknown object 'y'$"):
        FiniteCategory(["x"], [Morphism("i", "x", "x")], {"x": "i", "y": "i"},
                       {("i", "i"): "i"})


def test_a_composition_entry_for_a_pair_that_does_not_compose_is_refused():
    # f: x -> y, so f o f does not compose; the entry would enter the
    # category's key and make the table unequal to itself without it.
    mors = [Morphism("ix", "x", "x"), Morphism("iy", "y", "y"), Morphism("f", "x", "y")]
    ids = {"x": "ix", "y": "iy"}
    comp = {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("iy", "f"): "f", ("f", "ix"): "f"}
    lawful = FiniteCategory(["x", "y"], mors, ids, comp)
    message = "composition entry ('f', 'f') is for morphisms that do not compose"
    with pytest.raises(CategoryError, match=re.escape(message)):
        FiniteCategory(["x", "y"], mors, ids, {**comp, ("f", "f"): "iy"})
    spec = {"name": "c", "objects": ["x", "y"], "identities": ids,
            "morphisms": [{"id": m.id, "dom": m.dom, "cod": m.cod} for m in mors],
            "composition": [[f, g, fg] for (f, g), fg in {**comp, ("f", "f"): "iy"}.items()]}
    with pytest.raises(ProjectError, match=re.escape(message)) as err:
        build_project({"categories": [spec]})
    assert err.value.pointer == "/categories/0"
    assert FiniteCategory(*table(lawful)) == lawful


def test_sieves_on_two_point_poset():
    got = sieves_on(TWO, "q")
    assert got == [fs(), fs("le[p,q]"), fs("id[q]", "le[p,q]")]
    assert got == brute_sieves(TWO, "q")
    assert sieves_on(TWO, "p") == [fs(), fs("id[p]")]
    assert sieves_on(TWO, "p") == brute_sieves(TWO, "p")


def test_sieves_on_one_object_category():
    pt = one_object_category()
    got = sieves_on(pt, "pt")
    assert got == [fs(), fs("id[pt]")]


def test_sieve_enumeration_cap(monkeypatch):
    # the cap counts sieves: CHAIN3 has exactly 4 on its top
    monkeypatch.setattr(category, "SIEVE_ENUM_CAP", 4)
    assert len(sieves_on(CHAIN3, "c")) == 4
    monkeypatch.setattr(category, "SIEVE_ENUM_CAP", 3)
    with pytest.raises(CapExceeded, match="more than 3 sieves on 'c'"):
        sieves_on(CHAIN3, "c")


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(ALL_BASES + [DIAMOND]), poset_categories(),
                 st.just(transformation_monoid())))
def test_the_sieve_order_is_its_own_preorder_closure(cat):
    # The arrows into an object hold its identity and are closed under
    # composition, so the masks `sieves_on` and `sieve_heyting` enumerate
    # over are reflexive and transitive as built.
    for obj in cat.objects:
        needs = category._sieve_order(cat, obj)
        assert needs == preorder_closure(needs)


def test_principal_sieves():
    assert principal_sieve(TWO, "q") == fs("id[q]", "le[p,q]")
    assert principal_sieve(one_object_category(), "pt") == fs("id[pt]")
    assert principal_sieve(CHAIN3, "c") == fs("id[c]", "le[b,c]", "le[a,c]")


def test_pullback_of_member_is_principal():
    got = pullback_sieve(TWO, "le[p,q]", "q", fs("le[p,q]"))
    assert got == fs("id[p]")
    assert got == principal_sieve(TWO, "p")


def test_pullback_of_empty_and_principal():
    assert pullback_sieve(TWO, "le[p,q]", "q", fs()) == fs()
    top_q = principal_sieve(TWO, "q")
    assert pullback_sieve(TWO, "id[q]", "q", top_q) == principal_sieve(TWO, "q")
    assert pullback_sieve(TWO, "le[p,q]", "q", top_q) == principal_sieve(TWO, "p")


def test_pullback_rejects_non_sieves():
    with pytest.raises(NotASieve):
        pullback_sieve(TWO, "le[p,q]", "q", fs("id[q]"))  # not closed
    with pytest.raises(NotASieve):
        pullback_sieve(TWO, "id[p]", "q", fs())  # wrong target


def test_poset_pullback_is_intersection_with_principal():
    # on posets the pullback along le[p,q] keeps the members whose domains
    # sit at or below p, i.e. principal(p) n S read through domains
    for s in sieves_on(CHAIN3, "c"):
        got = pullback_sieve(CHAIN3, "le[b,c]", "c", s)
        doms_s = {CHAIN3.morphism(m).dom for m in s}
        doms_got = {CHAIN3.morphism(m).dom for m in got}
        assert doms_got == doms_s & {"a", "b"}


def test_pullback_functoriality_exhaustive():
    for cat in (TWO, CHAIN3, one_object_category()):
        for f in cat.morphisms:
            for g in cat.morphisms:
                if g.cod != f.dom:
                    continue
                fg = cat.compose(f.id, g.id)
                for s in sieves_on(cat, f.cod):
                    lhs = pullback_sieve(cat, fg, f.cod, s)
                    rhs = pullback_sieve(cat, g.id, g.cod, pullback_sieve(cat, f.id, f.cod, s))
                    assert lhs == rhs


def test_members_pull_back_to_principal_everywhere():
    for cat in (TWO, CHAIN3):
        for obj in cat.objects:
            for s in sieves_on(cat, obj):
                for f in s:
                    assert pullback_sieve(cat, f, obj, s) == \
                        principal_sieve(cat, cat.morphism(f).dom)


def test_sieve_heyting_negation_and_excluded_middle():
    alg = sieve_heyting(TWO, "q")
    mid = fs("le[p,q]")
    assert alg.negate(mid) == fs()
    assert alg.join(mid, alg.negate(mid)) == mid != alg.top
    assert alg.negate(fs()) == alg.top


def test_sieve_heyting_matches_quantified_formula():
    for cat in (TWO, CHAIN3, one_object_category()):
        for obj in cat.objects:
            alg = sieve_heyting(cat, obj)
            for s1 in alg.elements:
                for s2 in alg.elements:
                    assert alg.implies(s1, s2) == sieve_implies(cat, obj, s1, s2)
                assert alg.negate(s1) == sieve_negate(cat, obj, s1)


def test_one_object_sieve_algebra_is_two_valued_boolean():
    alg = sieve_heyting(one_object_category(), "pt")
    assert len(alg) == 2
    for a in alg.elements:
        assert alg.join(a, alg.negate(a)) == alg.top
