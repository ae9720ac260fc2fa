import pytest
from helpers import brute_sieves, sieve_implies, sieve_negate

from toposlang import category
from toposlang.category import (
    CategoryError,
    FiniteCategory,
    Morphism,
    NotASieve,
    Sieve,
    from_poset,
    one_object_category,
    principal_sieve,
    pullback_sieve,
    sieve_heyting,
    sieves_on,
    validate_category,
)
from toposlang.errors import CapExceeded
from toposlang.heyting import InvalidOrder


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


def test_validate_reports_missing_composite():
    report = validate_category(_hand_built(drop_composite=True))
    assert ("missing", "e", "e") in report.closure


def test_validate_reports_unit_violation():
    report = validate_category(_hand_built(broken_unit=True))
    assert any(v[0] == "right-unit" and v[1] == "e" for v in report.units)


def test_constructor_rejects_dangling_references():
    with pytest.raises(CategoryError):
        FiniteCategory(["x"], [Morphism("f", "x", "y")], {"x": "f"}, {})
    with pytest.raises(CategoryError):
        FiniteCategory(["x"], [Morphism("id[x]", "x", "x")], {}, {})


def test_sieves_on_two_point_poset():
    got = sieves_on(TWO, "q")
    assert [s.members for s in got] == [fs(), fs("le[p,q]"), fs("id[q]", "le[p,q]")]
    assert [s.members for s in got] == brute_sieves(TWO, "q")
    assert [s.members for s in sieves_on(TWO, "p")] == [fs(), fs("id[p]")]
    assert [s.members for s in sieves_on(TWO, "p")] == brute_sieves(TWO, "p")


def test_sieves_on_one_object_category():
    pt = one_object_category()
    got = sieves_on(pt, "pt")
    assert [s.members for s in got] == [fs(), fs("id[pt]")]


def test_sieve_enumeration_cap(monkeypatch):
    # the cap counts sieves: CHAIN3 has exactly 4 on its top
    monkeypatch.setattr(category, "SIEVE_ENUM_CAP", 4)
    assert len(sieves_on(CHAIN3, "c")) == 4
    monkeypatch.setattr(category, "SIEVE_ENUM_CAP", 3)
    with pytest.raises(CapExceeded, match="more than 3 sieves on 'c'"):
        sieves_on(CHAIN3, "c")


def test_principal_sieves():
    assert principal_sieve(TWO, "q").members == fs("id[q]", "le[p,q]")
    assert principal_sieve(one_object_category(), "pt").members == fs("id[pt]")
    assert principal_sieve(CHAIN3, "c").members == fs("id[c]", "le[b,c]", "le[a,c]")


def test_pullback_of_member_is_principal():
    s = Sieve("q", fs("le[p,q]"))
    got = pullback_sieve(TWO, "le[p,q]", s)
    assert got == Sieve("p", fs("id[p]"))
    assert got == principal_sieve(TWO, "p")


def test_pullback_of_empty_and_principal():
    empty = Sieve("q", fs())
    assert pullback_sieve(TWO, "le[p,q]", empty).members == fs()
    assert pullback_sieve(TWO, "id[q]", principal_sieve(TWO, "q")) == principal_sieve(TWO, "q")
    assert pullback_sieve(TWO, "le[p,q]", principal_sieve(TWO, "q")) == principal_sieve(TWO, "p")


def test_pullback_rejects_non_sieves():
    with pytest.raises(NotASieve):
        pullback_sieve(TWO, "le[p,q]", Sieve("q", fs("id[q]")))  # not closed
    with pytest.raises(NotASieve):
        pullback_sieve(TWO, "id[p]", Sieve("q", fs()))  # wrong target


def test_poset_pullback_is_intersection_with_principal():
    # on posets the pullback along le[p,q] keeps the members whose domains
    # sit at or below p, i.e. principal(p) n S read through domains
    for s in sieves_on(CHAIN3, "c"):
        got = pullback_sieve(CHAIN3, "le[b,c]", s)
        doms_s = {CHAIN3.morphism(m).dom for m in s.members}
        doms_got = {CHAIN3.morphism(m).dom for m in got.members}
        assert doms_got == doms_s & {"a", "b"}


def test_pullback_functoriality_exhaustive():
    for cat in (TWO, CHAIN3, one_object_category()):
        for f in cat.morphisms:
            for g in cat.morphisms:
                if g.cod != f.dom:
                    continue
                fg = cat.compose(f.id, g.id)
                for s in sieves_on(cat, f.cod):
                    lhs = pullback_sieve(cat, fg, s)
                    rhs = pullback_sieve(cat, g.id, pullback_sieve(cat, f.id, s))
                    assert lhs == rhs


def test_members_pull_back_to_principal_everywhere():
    for cat in (TWO, CHAIN3):
        for obj in cat.objects:
            for s in sieves_on(cat, obj):
                for f in s.members:
                    assert pullback_sieve(cat, f, s) == \
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
                    explicit = sieve_implies(cat, Sieve(obj, s1), Sieve(obj, s2))
                    assert alg.implies(s1, s2) == explicit.members
                assert alg.negate(s1) == sieve_negate(cat, Sieve(obj, s1)).members


def test_one_object_sieve_algebra_is_two_valued_boolean():
    alg = sieve_heyting(one_object_category(), "pt")
    assert len(alg) == 2
    for a in alg.elements:
        assert alg.join(a, alg.negate(a)) == alg.top
