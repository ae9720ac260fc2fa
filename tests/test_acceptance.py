"""Acceptance gate: one test per criterion, each timed against its budget
and printing a PASS line (run with `pytest -s` to see them live).

Every expected value is either trivially forced, produced by an independent
oracle computed in-line, or cross-checked between two routes that share no
implementation (for instance: the sequent-calculus prover against Kripke
countermodel search, or the compositional term semantics against the
explicit arrow chain).
"""
import itertools
import random
from fractions import Fraction

from helpers import (
    CHAIN3,
    DIAMOND,
    MONOID,
    PT,
    TWO,
    VEE,
    HeytingAlgebra,
    budget,
    compose_nats,
    evaluation,
    presheaf_fixture_pool,
    principal_sieve,
    pullback_sieve,
    set_presheaf,
    two_point_presheaf,
    verify_exponential_adjunction,
)

from toposlang.category import sieve_heyting, sieves_on
from toposlang.heyting import (
    DownsetAlgebra,
    lower_set_algebra,
    open_set_algebra,
    powerset_algebra,
)
from toposlang.intervals import IntervalSet
from toposlang.local import (
    RQ,
    SIGMA,
    PowerType,
    Sequent,
    Signature,
    Var,
    abelian_axiom_pack,
    pack_signature,
    parse_term,
    substitute,
)
from toposlang.presheaf import (
    NatTransform,
    Presheaf,
    char_morphism,
    classifier_kit,
    enumerate_nats,
    enumerate_subobjects,
    global_elements,
    power_object,
    product,
    sub_heyting,
    subobject_of_char,
    terminal_presheaf,
    validate_nat,
)
from toposlang.prop.decide import decide, find_countermodel, is_provable
from toposlang.prop.proofs import (
    SCHEMAS,
    check_proof,
    double_negated_excluded_middle_proof,
    instantiate,
)
from toposlang.prop.demo import nondistributivity_demo
from toposlang.prop.semantics import (
    ClassicalSystem,
    check_optional_axioms,
    classical_rep,
    pl_represent,
    truth_value,
)
from toposlang.prop.syntax import And, Atom, Implies, Not, Or, leaves, parse_formula
from toposlang.rep import (
    EffectiveClassicalRep,
    RepresentationError,
    ToposRep,
    build_rep,
    interpret_term,
    interpret_type,
    validate_axioms,
)

ALL_BASES = [PT, TWO, CHAIN3, VEE, DIAMOND, MONOID]

FIXTURE = ClassicalSystem(
    states=("s1", "s2", "s3"),
    quantities={
        "A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)},
        "x": {"s1": Fraction(0), "s2": Fraction(1), "s3": Fraction(2)},
        "p": {"s1": Fraction(3), "s2": Fraction(1, 2), "s3": Fraction(-1)},
        "H": {"s1": Fraction(9, 2), "s2": Fraction(5, 8), "s3": Fraction(7)},
    },
)

SMALL = ClassicalSystem(
    states=("s1", "s2", "s3"),
    quantities={"A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)}},
)


def built_algebras() -> list[DownsetAlgebra | HeytingAlgebra]:
    """Every Heyting instance the suite constructs, carriers up to 64."""
    out = [
        powerset_algebra([]),
        powerset_algebra([1]),
        powerset_algebra([1, 2, 3]),
        powerset_algebra(list("abcdef")),  # 64 elements
        open_set_algebra([frozenset(), frozenset({1}), frozenset({1, 2})]),
        open_set_algebra([frozenset(), frozenset({1}), frozenset({2}),
                          frozenset({1, 2}), frozenset({1, 2, 3})]),
        lower_set_algebra(["a", "b", "c", "d"],
                          [("a", "b"), ("b", "c"), ("c", "d")]),
        lower_set_algebra(["a", "b", "c"], [("a", "b"), ("a", "c")]),
        lower_set_algebra(["a", "b", "c", "d"],
                          [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    ]
    for cat in (TWO, CHAIN3, VEE, MONOID):
        for obj in cat.objects:
            out.append(sieve_heyting(cat, obj))
    out.append(sub_heyting(terminal_presheaf(TWO)).algebra)
    out.append(sub_heyting(two_point_presheaf(
        ["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"})).algebra)
    out.append(HeytingAlgebra(
        global_elements(classifier_kit(TWO).omega),
        lambda a, b: all(a.apply(o, ()) <= b.apply(o, ()) for o in TWO.objects)))
    assert all(len(alg) <= 64 for alg in out)
    return out


def test_criterion_01_heyting_adjunction_exhaustive():
    with budget("criterion 1: Heyting adjunction suite", 5.0):
        for alg in built_algebras():
            for g in alg.elements:
                for a in alg.elements:
                    ga = alg.meet(g, a)
                    for b in alg.elements:
                        assert alg.leq(g, alg.implies(a, b)) == alg.leq(ga, b)


def test_criterion_02_excluded_middle_dichotomy():
    with budget("criterion 2: excluded-middle dichotomy", 1.0):
        for base in ([], [1], [1, 2, 3]):
            alg = powerset_algebra(base)
            for a in alg.elements:
                assert alg.join(a, alg.negate(a)) == alg.top
        sierp = open_set_algebra([frozenset(), frozenset({1}), frozenset({1, 2})])
        witnesses = [a for a in sierp.elements
                     if sierp.join(a, sierp.negate(a)) != sierp.top]
        assert witnesses == [frozenset({1})]
        omega_q = sieve_heyting(TWO, "q")
        witnesses = [a for a in omega_q.elements
                     if omega_q.join(a, omega_q.negate(a)) != omega_q.top]
        assert witnesses == [frozenset({"le[p,q]"})]


def test_criterion_03_classifier_bijection_on_generated_fixtures():
    with budget("criterion 3: classifier bijection", 30.0):
        pool = presheaf_fixture_pool(count=12, seed=7)
        assert len(pool) >= 10
        assert all(len(x.base.objects) <= 4 for x in pool)
        for x in pool:
            subs = enumerate_subobjects(x)
            homs = enumerate_nats(x, classifier_kit(x.base).omega)
            assert len(subs) == len(homs)
            seen = set()
            for k in subs:
                chi = char_morphism(k)
                assert subobject_of_char(chi) == k
                seen.add(chi)
            assert seen == set(homs)
            for chi in homs:
                assert char_morphism(subobject_of_char(chi)) == chi


def test_criterion_04_pullback_laws_exhaustive():
    with budget("criterion 4: pullback laws", 5.0):
        for cat in ALL_BASES:
            for obj in cat.objects:
                for sieve in sieves_on(cat, obj):
                    for f in sieve:
                        assert pullback_sieve(cat, f, obj, sieve) == \
                            principal_sieve(cat, cat.morphism(f).dom)
            for f in cat.morphisms:
                for g in cat.morphisms:
                    if g.cod != f.dom:
                        continue
                    fg = cat.compose(f.id, g.id)
                    for sieve in sieves_on(cat, f.cod):
                        assert pullback_sieve(cat, fg, f.cod, sieve) == \
                            pullback_sieve(cat, g.id, g.cod,
                                           pullback_sieve(cat, f.id, f.cod, sieve))


def test_criterion_05_exponential_adjunction_and_power_of_terminal():
    with budget("criterion 5: exponential adjunction", 30.0):
        trios = [
            (set_presheaf([0, 1]), set_presheaf(["a"]), set_presheaf(["u", "v", "w"])),
            (set_presheaf([0, 1, 2]), set_presheaf(["a", "b"]), set_presheaf(["u", "v"])),
            (two_point_presheaf(["z0", "z1"], ["z'"], {"z0": "z'", "z1": "z'"}),
             two_point_presheaf(["x0", "x1"], ["y0"], {"x0": "y0", "x1": "y0"}),
             classifier_kit(TWO).omega),
            (terminal_presheaf(TWO), classifier_kit(TWO).omega,
             classifier_kit(TWO).omega),
            (terminal_presheaf(MONOID), classifier_kit(MONOID).omega,
             classifier_kit(MONOID).omega),
            (terminal_presheaf(CHAIN3),
             Presheaf(CHAIN3, {"a": ["u0"], "b": ["v0", "v1"], "c": ["w0"]},
                      {"le[a,b]": {"v0": "u0", "v1": "u0"},
                       "le[b,c]": {"w0": "v0"}, "le[a,c]": {"w0": "u0"}}),
             Presheaf(CHAIN3, {"a": ["y0", "y1"], "b": ["z0"], "c": ["t0"]},
                      {"le[a,b]": {"z0": "y0"}, "le[b,c]": {"t0": "z0"},
                       "le[a,c]": {"t0": "y0"}})),
        ]
        for z, x, y in trios:
            assert all(len(p.stage(obj)) <= 3
                       for p in (z, x, y) for obj in p.base.objects)
            assert verify_exponential_adjunction(z, x, y)
        # the power of the terminal object is the classifier, by the explicit
        # stage-wise bijection theta -> theta(id, point)
        kit = classifier_kit(TWO)
        p1 = power_object(kit.terminal)
        iso = {obj: {theta: dict(theta)[(obj, TWO.id_of(obj), ())]
                     for theta in p1.stage(obj)}
               for obj in TWO.objects}
        as_nat = NatTransform(p1, kit.omega, iso)
        assert validate_nat(as_nat).ok
        for obj in TWO.objects:
            assert len(set(iso[obj].values())) == len(p1.stage(obj)) \
                == len(kit.omega.stage(obj))


def _formula_corpus(count: int, seed: int):
    rng = random.Random(seed)
    deltas = [
        IntervalSet.interval(2, True, 5, True),
        IntervalSet.interval(0, False, 1, False),
        IntervalSet.interval(None, False, 2, False),
        IntervalSet.interval(Fraction(1, 2), True, None, False),
        IntervalSet.empty(),
        IntervalSet.full(),
        IntervalSet.point(Fraction(5, 2)),
    ]
    prims = [parse_formula(f"{q} in {d}") if not d.is_empty
             else parse_formula(f"{q} in empty")
             for q in sorted(FIXTURE.quantities) for d in deltas]

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(prims)
        k = rng.randrange(4)
        if k == 0:
            return Not(gen(depth - 1))
        cls = [And, Or, Implies][k - 1]
        return cls(gen(depth - 1), gen(depth - 1))

    return [gen(4) for _ in range(count)]


def test_criterion_06_classical_coherence_on_500_formulas():
    with budget("criterion 6: classical coherence", 10.0):
        rep = classical_rep(FIXTURE)
        mismatches = 0
        for formula in _formula_corpus(500, seed=2026):
            subset = rep.represent(formula)
            for state in FIXTURE.states:
                if truth_value(formula, state, FIXTURE) != (1 if state in subset else 0):
                    mismatches += 1
        assert mismatches == 0
        report = check_optional_axioms(FIXTURE, seed=0)
        assert report.ok and report.checked > 0


def test_criterion_07_logic_engine():
    with budget("criterion 7: logic engine", 20.0):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        bindings = [
            {"?a": a, "?b": b, "?c": c},
            {"?a": Or(a, b), "?b": Not(c), "?c": And(a, c)},
            {"?a": Implies(a, b), "?b": a, "?c": b},
        ]
        instances = [instantiate(pattern, binding)
                     for pattern in SCHEMAS.values() for binding in bindings]
        for inst in instances:
            assert decide(inst).valid
        for text in ("a | ~a", "((a -> b) -> a) -> a"):
            verdict = decide(parse_formula(text))
            assert not verdict.valid
            assert len(verdict.countermodel.worlds) <= 4
            assert not verdict.countermodel.forces(
                verdict.fails_at, parse_formula(text))
        proof = double_negated_excluded_middle_proof(a)
        assert check_proof(proof).accepted
        assert decide(proof.conclusion).valid
        assert proof.conclusion == parse_formula("~~(a | ~a)")
        # soundness bridge: schema instances evaluate to the top element in
        # every built algebra, under seeded random assignments
        rng = random.Random(11)
        for alg in built_algebras():
            for inst in instances:
                assignment = {leaf: rng.choice(alg.elements) for leaf in leaves(inst)}
                assert pl_represent(inst, assignment, alg) == alg.top
        # and the two routes never disagree on the shipped corpus
        for text in ("a -> a", "~~(a | ~a)", "a | ~a", "~~a -> a", "~a -> a -> b"):
            formula = parse_formula(text)
            if is_provable(formula):
                assert find_countermodel(formula, max_worlds=3) is None
            else:
                assert find_countermodel(formula, max_worlds=4) is not None


def test_criterion_08_nondistributivity_demo():
    with budget("criterion 8: non-distributivity demo", 1.0):
        report = nondistributivity_demo()
        assert report.lhs == "ray(1,0)"
        assert report.lhs != "0"
        assert report.rhs == "0"
        assert not report.distributive


def test_criterion_09_typed_language_semantics():
    with budget("criterion 9: typed-language semantics", 20.0):
        eff = EffectiveClassicalRep.build(SMALL)
        rep = eff.rep
        point = rep.base.objects[0]
        # the compositional interpretation of membership equals the explicit
        # chain: (value map x identity, factors swapped) then the evaluation
        # arrow
        sigma = interpret_type(SIGMA, rep)
        rvals = interpret_type(RQ, rep)
        prvals = interpret_type(PowerType(RQ), rep)
        dia = product(sigma, prvals)
        cross = NatTransform(dia.presheaf, product(prvals, rvals).presheaf, {
            point: {(s, d): (d, rep.symbols["A"].apply(point, s))
                    for (s, d) in dia.presheaf.stage(point)}})
        chain = compose_nats(evaluation(rvals, rep.kit.omega), cross)
        assert interpret_term(parse_term("A(s) in D", rep.signature),
                              (("s", SIGMA), ("D", PowerType(RQ))), rep) == chain
        # the power transpose reproduces exact preimages on a delta grid
        oracle = classical_rep(SMALL)
        grid = [
            IntervalSet.interval(2, True, 5, True),
            IntervalSet.interval(0, False, 1, False),
            IntervalSet.interval(None, False, 2, False),
            IntervalSet.interval(1, True, Fraction(5, 2), False),
            IntervalSet.point(4),
            IntervalSet.empty(),
            IntervalSet.full(),
        ]
        for delta in grid:
            assert eff.preimage("A", delta) == oracle.preimage("A", delta)
        assert eff.preimage("A", grid[0]) == frozenset({"s2", "s3"})
        # comprehension instances validate to true in every backend
        comp_text = "s in { s : Sigma | A(s) in D } <=> A(s) in D"
        typed = substitute(substitute(
            parse_term(comp_text, rep.signature), "s", Var("s", SIGMA)),
            "D", Var("D", PowerType(RQ)))
        assert validate_axioms(
            rep, [("comprehension", Sequent(frozenset(), typed))]).ok
        signature = Signature({"A": (SIGMA, RQ)})
        sigma2 = two_point_presheaf(["a0", "a1"], ["b0"], {"a0": "b0", "a1": "b0"})
        rvals2 = two_point_presheaf(["u", "v"], ["w"], {"u": "w", "v": "w"})
        arrow = NatTransform(sigma2, rvals2,
                             {"q": {"a0": "u", "a1": "v"}, "p": {"b0": "w"}})
        rep2 = build_rep(signature, TWO, {"Sigma": sigma2, "R": rvals2}, {"A": arrow})
        typed2 = substitute(substitute(
            parse_term(comp_text, signature), "s", Var("s", SIGMA)),
            "D", Var("D", PowerType(RQ)))
        assert validate_axioms(
            rep2, [("comprehension", Sequent(frozenset(), typed2))]).ok


def test_criterion_10_abelian_pack_on_z3():
    with budget("criterion 10: commutative-group axiom pack", 1.0):
        pack = abelian_axiom_pack()
        signature = pack_signature(Signature({"A": (SIGMA, RQ)}), pack)
        states = set_presheaf(["s0"])
        values = set_presheaf([0, 1, 2])
        unit = terminal_presheaf(PT)

        def arrows(add_table):
            return {
                "A": NatTransform(states, values, {"pt": {"s0": 0}}),
                "zero": NatTransform(unit, values, {"pt": {(): 0}}),
                "add": NatTransform(
                    Presheaf(PT, {"pt": tuple(itertools.product(range(3), range(3)))}, {}),
                    values, {"pt": add_table}),
                "neg": NatTransform(values, values,
                                    {"pt": {v: (3 - v) % 3 for v in range(3)}}),
            }

        good = {(x, y): (x + y) % 3 for x in range(3) for y in range(3)}
        rep = build_rep(signature, PT, {"Sigma": states, "R": values},
                        arrows(good), pack.sequents)
        assert validate_axioms(rep).ok

        corrupt = dict(good)
        corrupt[(1, 2)] = 1
        probe = ToposRep(signature, PT, {"Sigma": states, "R": values},
                         arrows(corrupt), pack.sequents)
        report = validate_axioms(probe)
        assert not report.ok
        witness = report.failures[0]
        assert witness.stage == "pt" and witness.environment
        try:
            build_rep(signature, PT, {"Sigma": states, "R": values},
                      arrows(corrupt), pack.sequents)
            raise AssertionError("corrupted table must not build")
        except RepresentationError:
            pass
