import random
import re
from fractions import Fraction

import pytest

from toposlang.errors import InputError
from toposlang.heyting import open_set_algebra, powerset_algebra
from toposlang.intervals import IntervalSet, Rational
from toposlang.prop.semantics import (
    ClassicalSystem,
    SemanticsError,
    check_optional_axioms,
    classical_rep,
    pl_represent,
    sample_interval_sets,
    truth_value,
)
from toposlang.prop.syntax import Atom, leaves, parse_formula

SIERPINSKI = open_set_algebra([frozenset(), frozenset({1}), frozenset({1, 2})])


def fs(*xs):
    return frozenset(xs)


def iv(lo, lc, hi, hc):
    return IntervalSet.interval(lo, lc, hi, hc)


FIXTURE = ClassicalSystem(
    states=("s1", "s2", "s3"),
    quantities={"A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)}},
)


def test_system_requires_total_tables():
    with pytest.raises(InputError):
        ClassicalSystem(("s1", "s2"), {"A": {"s1": Fraction(0)}})


@pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), "1/0", None])
def test_system_refuses_a_value_that_is_not_a_rational(bad):
    with pytest.raises(InputError, match=f"quantity 'A' has a value that is not a rational "
                                         f"at state 't': {re.escape(repr(bad))}$"):
        ClassicalSystem(("s", "t"), {"B": {"s": 1, "t": 2}, "A": {"s": "1/2", "t": bad}})


def test_system_refuses_an_entry_for_a_state_outside_its_states():
    with pytest.raises(InputError, match="^quantity 'A' mentions unknown state 't'$"):
        ClassicalSystem(("s",), {"B": {"s": 2}, "A": {"s": 1, "t": 7}})


def test_system_accepts_what_fraction_accepts_and_keeps_one_object_per_value():
    system = ClassicalSystem(("s", "t", "u"), {
        "A": {"s": 1, "t": "5/2", "u": 2.5},
        "B": {"s": Fraction(5, 2), "t": "-0.75", "u": True},
        "C": {"s": "1", "t": Fraction(-3, 4), "u": Rational(2)},
    })
    assert system.quantities == {"A": {"s": 1, "t": Fraction(5, 2), "u": Fraction(5, 2)},
                                 "B": {"s": Fraction(5, 2), "t": Fraction(-3, 4), "u": 1},
                                 "C": {"s": 1, "t": Fraction(-3, 4), "u": 2}}
    stored = [v for table in system.quantities.values() for v in table.values()]
    assert all(type(v) is Rational for v in stored)
    # One object per distinct value across all quantities.
    assert len({id(v) for v in stored}) == len(set(stored)) == 4
    assert system.value("B", "s") is system.quantities["A"]["t"] is system.quantities["A"]["u"]
    assert system.value("C", "s") is system.quantities["B"]["u"]
    rep = classical_rep(system)
    assert all(value is system.quantities["A"][states[0]] for value, states in rep._by_value["A"])
    # The point and half-line samples end at the stored objects themselves.
    for name, deltas in sample_interval_sets(system).items():
        attained = set(system.quantities[name].values())
        ends = [end for d in deltas[2:2 + 3 * len(attained)] for p in d.parts
                for end in (p.lo, p.hi) if end is not None]
        assert len(ends) == 4 * len(attained)
        assert all(any(end is v for v in stored) for end in ends)


def test_represent_pushes_connectives_onto_algebra():
    alg = powerset_algebra([1, 2, 3])
    a, b = Atom("a"), Atom("b")
    assign = {a: fs(1, 2), b: fs(2, 3)}
    assert pl_represent(parse_formula("a & b"), assign, alg) == fs(2)
    assert pl_represent(parse_formula("a | b"), assign, alg) == fs(1, 2, 3)
    assert pl_represent(parse_formula("~a"), assign, alg) == fs(3)
    assert pl_represent(parse_formula("a -> b"), assign, alg) == alg.implies(fs(1, 2), fs(2, 3))


def test_represent_implies_self_is_top_in_every_algebra():
    for alg in (powerset_algebra([1, 2]), SIERPINSKI):
        for x in alg.elements:
            got = pl_represent(parse_formula("a -> a"), {Atom("a"): x}, alg)
            assert got == alg.top


def test_sierpinski_breaks_excluded_middle_and_double_negation():
    a = Atom("a")
    assign = {a: fs(1)}
    assert pl_represent(parse_formula("a | ~a"), assign, SIERPINSKI) == fs(1) != SIERPINSKI.top
    # ~~a lands strictly above a
    assert pl_represent(parse_formula("~~a"), assign, SIERPINSKI) == SIERPINSKI.top


def test_unassigned_primitive_is_an_error():
    with pytest.raises(SemanticsError):
        pl_represent(parse_formula("a & b"), {Atom("a"): fs()}, powerset_algebra([1]))


def test_classical_rep_preimages():
    rep = classical_rep(FIXTURE)
    assert rep.preimage("A", iv(2, True, 5, True)) == fs("s2", "s3")
    assert rep.preimage("A", IntervalSet.full()) == fs("s1", "s2", "s3")
    assert rep.preimage("A", IntervalSet.empty()) == fs()
    with pytest.raises(InputError):
        rep.preimage("Z", IntervalSet.full())


def test_truth_value_basic_and_boolean_tautology():
    f = parse_formula("A in [2,5]")
    assert truth_value(f, "s1", FIXTURE) == 0
    assert truth_value(f, "s2", FIXTURE) == 1
    em = parse_formula("A in [2,5] | ~A in [2,5]")
    for s in FIXTURE.states:
        assert truth_value(em, s, FIXTURE) == 1
    with pytest.raises(InputError):
        truth_value(f, "nope", FIXTURE)


def _random_formula(rng, prims, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(prims)
    kind = rng.randrange(4)
    if kind == 0:
        return parse_formula(f"~({_fmt(_random_formula(rng, prims, depth - 1))})")
    left = _random_formula(rng, prims, depth - 1)
    right = _random_formula(rng, prims, depth - 1)
    ops = ["&", "|", "->"]
    return parse_formula(f"({_fmt(left)}) {ops[kind - 1]} ({_fmt(right)})")


def _fmt(formula):
    from toposlang.prop.syntax import format_formula
    return format_formula(formula)


def prim_pool():
    deltas = [iv(2, True, 5, True), iv(0, False, 1, False), IntervalSet.empty(),
              IntervalSet.full(), iv(None, False, 2, False),
              iv(Fraction(5, 2), True, Fraction(5, 2), True)]
    return [parse_formula(f"A in {d}") for d in deltas if not d.is_empty] + \
        [parse_formula("A in empty")]


def test_truth_agrees_with_membership_on_random_corpus():
    # oracle: the represent-then-member path through the powerset algebra
    rng = random.Random(42)
    rep = classical_rep(FIXTURE)
    prims = prim_pool()
    for _ in range(100):
        f = _random_formula(rng, prims, 4)
        subset = rep.represent(f)
        for s in FIXTURE.states:
            assert truth_value(f, s, FIXTURE) == (1 if s in subset else 0)


def test_double_negation_collapse_classically_but_not_in_heyting():
    # applying the complement axiom twice: ~~(A in D) <-> (A in full line)
    # restricted to D's double complement, which classically is D itself
    d = iv(2, True, 5, True)
    assert d.complement().complement() == d
    f = parse_formula(f"~~(A in {d})")
    rep = classical_rep(FIXTURE)
    assert rep.represent(f) == rep.represent(parse_formula(f"A in {d}"))
    bi = parse_formula(f"(~~(A in {d}) -> A in {d}) & (A in {d} -> ~~(A in {d}))")
    assert rep.represent(bi) == rep.algebra.top
    # but a non-Boolean assignment separates a from ~~a
    a = leaves(f)[0]
    got = pl_represent(f, {a: fs(1)}, SIERPINSKI)
    assert got != fs(1)


def test_optional_axioms_hold_on_fixture():
    report = check_optional_axioms(FIXTURE, seed=0)
    assert report.ok
    assert report.checked > 100


def test_optional_axioms_specific_pairs():
    rep = classical_rep(FIXTURE)
    d1, d2 = iv(0, True, 2, True), iv(1, True, 3, True)
    assert rep.preimage("A", d1) & rep.preimage("A", d2) == \
        rep.preimage("A", d1.intersect(d2))
    assert rep.preimage("A", d1) | rep.preimage("A", d2) == \
        rep.preimage("A", d1.union(d2))
    # conjunction with the empty set collapses to the empty preimage
    assert rep.preimage("A", d1.intersect(IntervalSet.empty())) == fs()
    # complement axiom via preimages
    d = iv(2, True, 5, True)
    assert fs(*FIXTURE.states) - rep.preimage("A", d) == rep.preimage("A", d.complement())


def test_sampled_deltas_are_deterministic():
    a = sample_interval_sets(FIXTURE, seed=3)
    b = sample_interval_sets(FIXTURE, seed=3)
    assert {k: [str(d) for d in v] for k, v in a.items()} == \
        {k: [str(d) for d in v] for k, v in b.items()}
