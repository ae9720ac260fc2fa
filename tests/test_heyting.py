from fractions import Fraction

import pytest
from helpers import HeytingAlgebra, check_heyting_laws

from toposlang import heyting
from toposlang.category import from_poset, sieve_heyting
from toposlang.errors import CapExceeded
from toposlang.heyting import (
    FULL_PLANE,
    ZERO_SUBSPACE,
    BoundedLattice,
    DownsetAlgebra,
    InvalidOrder,
    LatticeError,
    NotALattice,
    TopologyError,
    UnknownElement,
    lower_set_algebra,
    open_set_algebra,
    powerset_algebra,
    ray_direction,
    ray_label,
    subspace_lattice_2d,
)
from toposlang.project import build_project

SIERPINSKI = [frozenset(), frozenset({1}), frozenset({1, 2})]


def fs(*xs):
    return frozenset(xs)


# -- oracle: brute-force glb/lub/implication over an explicit order ------------

def brute_meet(elems, leq, a, b):
    lows = [g for g in elems if leq(g, a) and leq(g, b)]
    tops = [g for g in lows if all(leq(x, g) for x in lows)]
    assert len(tops) == 1
    return tops[0]


def brute_implies(elems, leq, meet, a, b):
    cands = [g for g in elems if leq(meet(g, a), b)]
    tops = [g for g in cands if all(leq(x, g) for x in cands)]
    assert len(tops) == 1
    return tops[0]


def test_powerset_meet_is_intersection():
    alg = powerset_algebra([1, 2, 3])
    assert alg.meet(fs(1, 2), fs(2, 3)) == fs(2)
    assert alg.meet(fs(1, 2), fs(2, 3)) == brute_meet(
        alg.elements, frozenset.issubset, fs(1, 2), fs(2, 3))


def test_join_with_bottom_is_identity():
    for alg in (powerset_algebra([1, 2]), open_set_algebra(SIERPINSKI)):
        for a in alg.elements:
            assert alg.join(alg.bottom, a) == a
            assert alg.leq(alg.bottom, a) is True


def test_sieve_algebra_meet_on_two_point_poset():
    # oracle: enumerate sieves on q by hand and intersect
    cat = from_poset(["p", "q"], [("p", "q")])
    alg = sieve_heyting(cat, "q")
    mid = fs("le[p,q]")
    top = fs("id[q]", "le[p,q]")
    assert set(alg.elements) == {fs(), mid, top}
    assert alg.meet(mid, top) == mid


def test_unknown_element_raises():
    alg = powerset_algebra([1])
    with pytest.raises(UnknownElement):
        alg.meet(fs(9), fs())
    with pytest.raises(UnknownElement):
        alg.implies(fs(), fs(9))


def test_implies_in_boolean_powerset():
    alg = powerset_algebra([1, 2])
    # largest g with g & {1} <= {2} is {2}
    assert alg.implies(fs(1), fs(2)) == fs(2)
    assert alg.implies(fs(1), fs(2)) == brute_implies(
        alg.elements, alg.leq, alg.meet, fs(1), fs(2))


def test_implies_self_is_top_everywhere():
    for alg in (powerset_algebra([1, 2]), open_set_algebra(SIERPINSKI),
                lower_set_algebra(["p", "q"], [("p", "q")])):
        for a in alg.elements:
            assert alg.implies(a, a) == alg.top


def test_sierpinski_implication_and_negation():
    alg = open_set_algebra(SIERPINSKI)
    one = fs(1)
    assert alg.implies(one, alg.bottom) == alg.bottom
    assert alg.negate(one) == alg.bottom
    # interior of the complement leaves the boundary out: excluded middle fails
    assert alg.join(one, alg.negate(one)) == one != alg.top


def test_boolean_negation_is_complement_and_involutive():
    alg = powerset_algebra([1, 2, 3])
    assert alg.negate(fs(1)) == fs(2, 3)
    for a in alg.elements:
        assert alg.negate(alg.negate(a)) == a


def declared(spec):
    """The algebra that a project document declaring only `spec` builds."""
    return build_project({"algebras": [dict(spec, name="declared")]}).algebras["declared"]


def test_build_algebra_powerset():
    alg = declared({"kind": "powerset", "base": ["a", "b"]})
    assert len(alg) == 4
    for a in alg.elements:
        assert alg.join(a, alg.negate(a)) == alg.top


def test_build_algebra_lower_sets_of_chain():
    alg = declared({"kind": "lower_sets", "elements": ["p", "q"], "order": [["p", "q"]]})
    assert set(alg.elements) == {fs(), fs("p"), fs("p", "q")}


def test_build_algebra_open_sets_is_not_boolean():
    alg = declared({"kind": "open_sets", "sets": [[], [1], [1, 2]]})
    assert len(alg) == 3
    assert any(alg.join(a, alg.negate(a)) != alg.top for a in alg.elements)


def test_build_algebra_rejects_bad_topology():
    with pytest.raises(TopologyError):
        open_set_algebra([fs(), fs(1), fs(2), fs(1, 2, 3)])  # {1}|{2} missing
    with pytest.raises(TopologyError):
        open_set_algebra([fs(1), fs(1, 2)])  # no empty set


def test_build_algebra_respects_cap(monkeypatch):
    monkeypatch.setattr(heyting, "DEFAULT_CAP", 4096)
    alg = powerset_algebra(range(13))  # the carrier is listed on demand
    with pytest.raises(CapExceeded, match=r"^more than 4096 subsets of 13 points \(cap 4096\)$"):
        len(alg)


def test_cycle_detected_in_order():
    with pytest.raises(InvalidOrder):
        lower_set_algebra(["a", "b"], [("a", "b"), ("b", "a")])


def test_check_laws_passes_on_powerset_and_sieves():
    assert check_heyting_laws(powerset_algebra([1, 2])).ok
    cat = from_poset(["p", "q"], [("p", "q")])
    assert check_heyting_laws(sieve_heyting(cat, "q")).ok


def test_downset_algebra_is_its_own_class():
    assert DownsetAlgebra.__mro__ == (DownsetAlgebra, object)


class ImpliesTop(DownsetAlgebra):
    """A planted break: implication always answers top."""

    def implies(self, a, b):
        return self.top


def test_law_checker_checks_implication_on_downset_algebras():
    below = [1 << i for i in range(2)]
    broken = ImpliesTop(below, [1, 2])
    report = check_heyting_laws(broken)
    assert report.adjunction
    assert not (report.lattice or report.distributivity or report.double_negation)
    assert "adjunction" in report.summary()


def test_check_laws_reports_nondistributive_subspaces():
    lat = subspace_lattice_2d([(1, 0), (0, 1), (1, 1)])
    report = check_heyting_laws(lat)
    assert report.distributivity
    assert not report.lattice
    assert "distributivity" in report.summary()


def test_subspace_lattice_ray_canonicalization():
    assert ray_direction(2, 4) == (1, 2)
    assert ray_direction(-1, -2) == (1, 2)
    assert ray_direction(0, -3) == (0, 1)
    assert ray_direction(Fraction(1, 2), Fraction(1, 3)) == (3, 2)
    assert ray_label((2, 0)) == "ray(1,0)"
    with pytest.raises(ValueError):
        ray_direction(0, 0)


def test_subspace_lattice_meets_and_joins():
    lat = subspace_lattice_2d([(1, 0), (0, 1), (1, 1)])
    a, b = ray_label((1, 0)), ray_label((0, 1))
    assert lat.meet(a, b) == ZERO_SUBSPACE
    assert lat.join(a, b) == FULL_PLANE
    assert lat.meet(a, a) == a
    assert lat.bottom == ZERO_SUBSPACE and lat.top == FULL_PLANE


def test_adjunction_exhaustive_on_all_builtin_instances():
    cat = from_poset(["p", "q"], [("p", "q")])
    algebras = [
        powerset_algebra([]),
        powerset_algebra([1, 2, 3]),
        open_set_algebra(SIERPINSKI),
        lower_set_algebra(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        sieve_heyting(cat, "q"),
        sieve_heyting(cat, "p"),
    ]
    for alg in algebras:
        assert len(alg) <= 64
        for g in alg.elements:
            for a in alg.elements:
                for b in alg.elements:
                    assert alg.leq(g, alg.implies(a, b)) == alg.leq(alg.meet(g, a), b)


def test_excluded_middle_dichotomy():
    boolean = powerset_algebra([1, 2, 3])
    assert all(boolean.join(a, boolean.negate(a)) == boolean.top
               for a in boolean.elements)
    sierp = open_set_algebra(SIERPINSKI)
    witnesses = [a for a in sierp.elements if sierp.join(a, sierp.negate(a)) != sierp.top]
    assert witnesses == [fs(1)]


def test_sieves_on_p_equal_lower_sets_below_p():
    # testable form of the open question: sieves on p correspond to lower
    # sets of {r : r <= p}, element for element (domains of the members).
    cat = from_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for obj, below in (("a", ["a"]), ("b", ["a", "b"]), ("c", ["a", "b", "c"])):
        sieve_sets = {frozenset(cat.morphism(m).dom for m in s)
                      for s in sieve_heyting(cat, obj).elements}
        lower = lower_set_algebra(below, [(x, y) for x, y in zip(below, below[1:])])
        assert sieve_sets == set(lower.elements)


def test_invalid_orders_rejected():
    with pytest.raises(InvalidOrder):
        BoundedLattice([1, 2], lambda a, b: False)  # not reflexive
    with pytest.raises(InvalidOrder):
        BoundedLattice([1, 2], lambda a, b: True)  # not antisymmetric
    with pytest.raises(InvalidOrder):
        BoundedLattice([], lambda a, b: True)


def test_bounded_poset_without_meets_is_not_a_lattice():
    # 0 < a, b < c, d < 1: c and d have the lower bounds 0, a and b but no
    # greatest one; the lattice refuses to be built
    below = {"0": "0", "a": "0a", "b": "0b", "c": "0abc", "d": "0abd", "1": "0abcd1"}
    with pytest.raises(NotALattice, match="no meet for 'c', 'd'"):
        BoundedLattice(list(below), lambda x, y: x in below[y])


def test_non_heyting_lattice_reported_not_silently_wrong():
    # the diamond of subspaces has no relative pseudo-complements
    lat = subspace_lattice_2d([(1, 0), (0, 1), (1, 1)])
    alg_attempt = None
    try:
        alg_attempt = HeytingAlgebra(lat.elements, lat.leq)
    except LatticeError:
        pass
    if alg_attempt is not None:
        report = check_heyting_laws(alg_attempt)
        assert not report.ok
