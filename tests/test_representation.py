from fractions import Fraction

import pytest
from helpers import (
    CHAIN3,
    DIAMOND,
    MONOID,
    TWO,
    VEE,
    compose_nats,
    evaluation,
    exp_untranspose,
    reference_interpret_term,
    two_point_presheaf,
)

from toposlang.category import one_object_category, principal_sieve
from toposlang.intervals import IntervalSet
from toposlang.local import (
    RQ,
    SIGMA,
    PowerType,
    ProductType,
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
    global_elements,
    power_transpose,
    product,
    product_many,
    validate_nat,
)
from toposlang.prop.semantics import ClassicalSystem, classical_rep, truth_value
from toposlang.prop.syntax import parse_formula
from toposlang.rep import (
    EffectiveClassicalRep,
    FaithfulnessError,
    RepresentationError,
    ToposRep,
    build_rep,
    interpret_term,
    interpret_type,
    prop_family,
    validate_axioms,
)

PT = one_object_category()
POINT = "pt"

FIXTURE = ClassicalSystem(
    states=("s1", "s2", "s3"),
    quantities={
        "A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)},
        "x": {"s1": Fraction(0), "s2": Fraction(1), "s3": Fraction(2)},
        "p": {"s1": Fraction(3), "s2": Fraction(1, 2), "s3": Fraction(-1)},
        "H": {"s1": Fraction(9, 2), "s2": Fraction(5, 8), "s3": Fraction(7)},
    },
)

# power objects grow with the number of attained values; the distinguished
# arrows get exercised on the minimal three-state, one-quantity system
SMALL = ClassicalSystem(
    states=("s1", "s2", "s3"),
    quantities={"A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)}},
)


def iv(lo, lc, hi, hc):
    return IntervalSet.interval(lo, lc, hi, hc)


def fs(*xs):
    return frozenset(xs)


def set_obj(elements):
    return Presheaf(PT, {POINT: tuple(elements)}, {})


def set_arrow(src, tgt, table):
    return NatTransform(src, tgt, {POINT: dict(table)})


def z3_rep(corrupt=False):
    """Cyclic-group-of-three value object with the commutative group pack."""
    pack = abelian_axiom_pack()
    signature = pack_signature(Signature({"A": (SIGMA, RQ)}), pack)
    states = set_obj(["s0"])
    values = set_obj([0, 1, 2])
    add_table = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    if corrupt:
        add_table[(1, 2)] = 1
    unit = Presheaf(PT, {POINT: ((),)}, {})
    arrows = {
        "A": set_arrow(states, values, {"s0": 0}),
        "zero": set_arrow(unit, values, {(): 0}),
        "add": NatTransform(
            Presheaf(PT, {POINT: tuple((a, b) for a in range(3) for b in range(3))}, {}),
            values, {POINT: add_table}),
        "neg": set_arrow(values, values, {v: (3 - v) % 3 for v in range(3)}),
    }
    return signature, states, values, arrows, pack


def test_effective_classical_rep_builds_and_is_faithful():
    eff = EffectiveClassicalRep.build(FIXTURE)
    assert set(eff.rep.symbols) == {"A", "x", "p", "H"}
    assert eff.rep.ground("Sigma").stage(POINT) == ("s1", "s2", "s3")


def test_duplicate_value_tables_violate_faithfulness():
    system = ClassicalSystem(("s1", "s2"), {
        "A": {"s1": Fraction(0), "s2": Fraction(1)},
        "B": {"s1": Fraction(0), "s2": Fraction(1)},
    })
    with pytest.raises(FaithfulnessError):
        EffectiveClassicalRep.build(system)


def test_build_rep_on_presheaf_backend():
    signature = Signature({"A": (SIGMA, RQ)})
    sigma = two_point_presheaf(["a0", "a1"], ["b0"], {"a0": "b0", "a1": "b0"})
    rvals = two_point_presheaf(["u", "v"], ["w"], {"u": "w", "v": "w"})
    arrow = NatTransform(sigma, rvals, {"q": {"a0": "u", "a1": "v"}, "p": {"b0": "w"}})
    rep = build_rep(signature, TWO, {"Sigma": sigma, "R": rvals}, {"A": arrow})
    assert interpret_type(SIGMA, rep) == sigma
    chain = interpret_term(parse_term("A(s) in D", signature),
                           (("s", SIGMA), ("D", PowerType(RQ))), rep)
    assert validate_nat(chain).ok


def test_build_rep_shape_and_assignment_errors():
    signature = Signature({"A": (SIGMA, RQ)})
    sigma, rvals = set_obj(["s0"]), set_obj([0])
    wrong = set_arrow(rvals, rvals, {0: 0})
    with pytest.raises(RepresentationError):
        build_rep(signature, PT, {"Sigma": sigma, "R": rvals}, {"A": wrong})
    with pytest.raises(RepresentationError):
        build_rep(signature, PT, {"Sigma": sigma, "R": rvals}, {})
    with pytest.raises(RepresentationError):
        build_rep(signature, PT, {"Sigma": sigma}, {
            "A": set_arrow(sigma, rvals, {"s0": 0})})


def test_interpret_type_structural():
    eff = EffectiveClassicalRep.build(FIXTURE)
    rep = eff.rep
    assert interpret_type(parse_type_cached("1"), rep) == rep.kit.terminal
    assert interpret_type(parse_type_cached("Omega"), rep) == rep.kit.omega
    prod = interpret_type(parse_type_cached("Sigma * R"), rep)
    n_states = len(rep.ground("Sigma").stage(POINT))
    n_values = len(rep.ground("R").stage(POINT))
    assert len(prod.stage(POINT)) == n_states * n_values
    power = interpret_type(parse_type_cached("P(Sigma)"), rep)
    assert len(power.stage(POINT)) == 2 ** n_states
    with pytest.raises(RepresentationError):
        interpret_type(parse_type_cached("M"), rep)


def parse_type_cached(text):
    from toposlang.local import parse_type
    return parse_type(text)


def test_proposition_arrow_equals_explicit_chain():
    # the chain: product of state and value-set stages, value map crossed
    # with identity and the factors swapped, then the membership evaluation
    eff = EffectiveClassicalRep.build(SMALL)
    rep = eff.rep
    sigma = interpret_type(SIGMA, rep)
    rvals = interpret_type(RQ, rep)
    prvals = interpret_type(PowerType(RQ), rep)
    lhs = interpret_term(parse_term("A(s) in D", rep.signature),
                         (("s", SIGMA), ("D", PowerType(RQ))), rep)
    dia = product(sigma, prvals)
    cross = NatTransform(dia.presheaf, product(prvals, rvals).presheaf, {
        POINT: {(s, d): (d, rep.symbols["A"].apply(POINT, s))
                for (s, d) in dia.presheaf.stage(POINT)}})
    chain = compose_nats(evaluation(rvals, rep.kit.omega), cross)
    assert lhs == chain


def test_true_interprets_as_true_arrow():
    eff = EffectiveClassicalRep.build(FIXTURE)
    rep = eff.rep
    got = interpret_term(parse_term("true"), (), rep)
    assert got == rep.kit.true_arrow
    # closed truth-valued terms are global elements of the classifier
    ges = global_elements(rep.kit.omega)
    assert any(g.choice[POINT] == got.apply(POINT, ()) for g in ges)


def test_conjunction_interprets_as_pointwise_meet():
    eff = EffectiveClassicalRep.build(FIXTURE)
    rep = eff.rep
    ctx = (("u", parse_type_cached("Omega")), ("v", parse_type_cached("Omega")))
    both = interpret_term(parse_term("u & v"), ctx, rep)
    omega = rep.kit.omega
    for (su, sv) in both.source.stage(POINT):
        assert both.apply(POINT, (su, sv)) == su & sv
    assert len(omega.stage(POINT)) == 2


def test_prop_family_computes_preimages():
    eff = EffectiveClassicalRep.build(SMALL)
    rep_cl = classical_rep(SMALL)
    deltas = [iv(2, True, 5, True), IntervalSet.full(), IntervalSet.empty(),
              iv(None, False, 1, True), IntervalSet.point(Fraction(5, 2))]
    for delta in deltas:
        assert eff.preimage("A", delta) == rep_cl.preimage("A", delta)
    assert eff.preimage("A", iv(2, True, 5, True)) == fs("s2", "s3")
    assert eff.preimage("A", IntervalSet.full()) == fs("s1", "s2", "s3")


def test_prop_family_round_trip_through_untranspose():
    eff = EffectiveClassicalRep.build(SMALL)
    rep = eff.rep
    family = prop_family("A", rep)
    z = interpret_type(PowerType(RQ), rep)
    x = interpret_type(SIGMA, rep)
    back = exp_untranspose(family, z, x, rep.kit.omega)
    flipped = interpret_term(
        parse_term("A(s) in D", rep.signature),
        (("D", PowerType(RQ)), ("s", SIGMA)), rep)
    assert back == flipped


def _transposed_body(var, vtype, body, context, rep):
    """power_transpose of the body's interpretation in context + var, with its
    flat context tuples (g1, ..., gn, x) reshaped into product(G, X) pairs
    ((g1, ..., gn), x)."""
    flat = interpret_term(body, context + ((var, vtype),), rep)
    z = product_many([interpret_type(t, rep) for _, t in context]).presheaf \
        if context else rep.kit.terminal
    x = interpret_type(vtype, rep)
    pairs = product(z, x).presheaf
    f = NatTransform(pairs, flat.target,
                     {obj: {(zv, xv): flat.apply(obj, zv + (xv,))
                            for zv, xv in pairs.stage(obj)}
                      for obj in rep.base.objects})
    return power_transpose(f, z, x)


def _two_point_rep():
    signature = Signature({"A": (SIGMA, RQ)})
    sigma = two_point_presheaf(["a0", "a1"], ["b0"], {"a0": "b0", "a1": "b0"})
    rvals = two_point_presheaf(["u", "v"], ["w"], {"u": "w", "v": "w"})
    arrow = NatTransform(sigma, rvals, {"q": {"a0": "u", "a1": "v"}, "p": {"b0": "w"}})
    return build_rep(signature, TWO, {"Sigma": sigma, "R": rvals}, {"A": arrow})


def test_comprehension_is_the_power_transpose_of_its_body():
    pr = PowerType(RQ)
    cases = [
        ((), "s = s"),
        ((("D", pr),), "A(s) in D"),
        ((("D", pr), ("E", pr)), "A(s) in D & A(s) in E"),
    ]
    for rep in (EffectiveClassicalRep.build(SMALL).rep, _two_point_rep()):
        for context, body_text in cases:
            body = parse_term(body_text, rep.signature)
            compr = parse_term(f"{{ s : Sigma | {body_text} }}", rep.signature)
            got = interpret_term(compr, context, rep)
            assert got == _transposed_body("s", SIGMA, body, context, rep)
            assert got.target == interpret_type(PowerType(SIGMA), rep)


def test_abelian_pack_passes_on_z3_and_fails_on_corruption():
    signature, states, values, arrows, pack = z3_rep()
    rep = build_rep(signature, PT, {"Sigma": states, "R": values}, arrows,
                    axioms=pack.sequents)
    report = validate_axioms(rep)
    assert report.ok and report.checked > 0

    signature, states, values, arrows, pack = z3_rep(corrupt=True)
    with pytest.raises(RepresentationError) as err:
        build_rep(signature, PT, {"Sigma": states, "R": values}, arrows,
                  axioms=pack.sequents)
    assert "stage" in str(err.value)
    # report form: witnesses carry the failing stage and environment
    rep = ToposRep(signature, PT, {"Sigma": states, "R": values}, arrows,
                   pack.sequents)
    report = validate_axioms(rep)
    assert not report.ok
    witness = report.failures[0]
    assert witness.stage == POINT and len(witness.environment) >= 1


def test_comprehension_axiom_validates_in_every_backend():
    eff = EffectiveClassicalRep.build(SMALL)
    comp = parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D",
                      eff.rep.signature)
    typed = substitute(substitute(comp, "s", Var("s", SIGMA)),
                       "D", Var("D", PowerType(RQ)))
    report = validate_axioms(eff.rep, [("comprehension", Sequent(frozenset(), typed))])
    assert report.ok

    signature = Signature({"A": (SIGMA, RQ)})
    sigma = two_point_presheaf(["a0", "a1"], ["b0"], {"a0": "b0", "a1": "b0"})
    rvals = two_point_presheaf(["u"], ["w"], {"u": "w"})
    arrow = NatTransform(sigma, rvals, {"q": {"a0": "u", "a1": "u"}, "p": {"b0": "w"}})
    rep = build_rep(signature, TWO, {"Sigma": sigma, "R": rvals}, {"A": arrow})
    typed2 = substitute(substitute(
        parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D", signature),
        "s", Var("s", SIGMA)), "D", Var("D", PowerType(RQ)))
    report = validate_axioms(rep, [("comprehension", Sequent(frozenset(), typed2))])
    assert report.ok


def test_tautology_sequent_vacuously_true():
    eff = EffectiveClassicalRep.build(SMALL)
    alpha = substitute(substitute(
        parse_term("A(s) in D", eff.rep.signature), "s", Var("s", SIGMA)),
        "D", Var("D", PowerType(RQ)))
    report = validate_axioms(eff.rep, [("taut", Sequent(frozenset({alpha}), alpha))])
    assert report.ok


def test_set_semantics_agrees_with_propositional_evaluation():
    eff = EffectiveClassicalRep.build(SMALL)
    rep_cl = classical_rep(SMALL)
    delta = iv(2, True, 5, True)
    subset = eff.preimage("A", delta)
    formula = parse_formula(f"A in {delta}")
    assert subset == rep_cl.represent(formula)
    for state in SMALL.states:
        assert (state in subset) == bool(truth_value(formula, state, SMALL))


def test_lset_intersection_semantics():
    from toposlang.local import lset_intersection
    eff = EffectiveClassicalRep.build(FIXTURE)
    rep = eff.rep
    closed = substitute(
        parse_term("{ s : Sigma | A(s) in D }", rep.signature),
        "D", parse_term("{ r : R | r = r }", rep.signature))
    meet = lset_intersection(closed, closed, SIGMA)
    lhs = interpret_term(meet, (), rep)
    rhs = interpret_term(closed, (), rep)
    assert lhs.apply(POINT, ()) == rhs.apply(POINT, ())


def test_power_type_interpretation_is_power_object_literally():
    from toposlang.presheaf import power_object
    eff = EffectiveClassicalRep.build(SMALL)
    rep = eff.rep
    assert interpret_type(PowerType(SIGMA), rep) == \
        power_object(interpret_type(SIGMA, rep))
    both = interpret_type(ProductType((SIGMA, RQ)), rep)
    from toposlang.presheaf import product
    assert both == product(interpret_type(SIGMA, rep),
                           interpret_type(RQ, rep)).presheaf


def test_set_backend_agrees_with_classical_evaluation_formula_for_formula():
    # conjunctions of memberships are the typed fragment matching the
    # propositional language; both routes must agree state by state
    eff = EffectiveClassicalRep.build(SMALL)
    rep = eff.rep
    point = eff.point
    d1 = iv(2, True, 5, True)
    d2 = iv(0, False, 3, False)
    term = parse_term("A(s) in D1 & A(s) in D2", rep.signature)
    arrow = interpret_term(
        term, (("s", SIGMA), ("D1", PowerType(RQ)), ("D2", PowerType(RQ))), rep)
    e1, e2 = eff.delta_element(d1), eff.delta_element(d2)
    top = principal_sieve(rep.base, point).members
    formula = parse_formula(f"A in {d1} & A in {d2}")
    for state in SMALL.states:
        got = arrow.apply(point, (state, e1, e2))
        assert (got == top) == bool(truth_value(formula, state, SMALL))


# Hand-built representations of one state ground, one value ground and the
# symbol A: Sigma -> R, one per base: (stages, restrictions) of Sigma and of
# R, then A's components.  Restriction merges elements, so equality sieves
# are proper; on MONOID the idempotent e and the identity share a domain.
HAND_BUILT = {
    "PT": (PT,
           ({"pt": ["s0", "s1", "s2"]}, {}),
           ({"pt": [0, 1]}, {}),
           {"pt": {"s0": 0, "s1": 1, "s2": 1}}),
    "TWO": (TWO,
            ({"q": ["a0", "a1", "a2"], "p": ["b0", "b1"]},
             {"le[p,q]": {"a0": "b0", "a1": "b0", "a2": "b1"}}),
            ({"q": ["u", "v"], "p": ["w"]}, {"le[p,q]": {"u": "w", "v": "w"}}),
            {"q": {"a0": "u", "a1": "v", "a2": "v"}, "p": {"b0": "w", "b1": "w"}}),
    "CHAIN3": (CHAIN3,
               ({"c": ["c0", "c1", "c2"], "b": ["b0", "b1"], "a": ["a0"]},
                {"le[b,c]": {"c0": "b0", "c1": "b0", "c2": "b1"},
                 "le[a,b]": {"b0": "a0", "b1": "a0"},
                 "le[a,c]": {"c0": "a0", "c1": "a0", "c2": "a0"}}),
               ({"c": ["u", "v"], "b": ["w"], "a": ["z"]},
                {"le[b,c]": {"u": "w", "v": "w"}, "le[a,b]": {"w": "z"},
                 "le[a,c]": {"u": "z", "v": "z"}}),
               {"c": {"c0": "u", "c1": "v", "c2": "u"}, "b": {"b0": "w", "b1": "w"},
                "a": {"a0": "z"}}),
    "VEE": (VEE,
            ({"b": ["b0", "b1"], "c": ["c0", "c1"], "a": ["a0", "a1"]},
             {"le[a,b]": {"b0": "a0", "b1": "a1"}, "le[a,c]": {"c0": "a0", "c1": "a0"}}),
            ({"b": ["u", "v"], "c": ["w"], "a": ["z"]},
             {"le[a,b]": {"u": "z", "v": "z"}, "le[a,c]": {"w": "z"}}),
            {"b": {"b0": "u", "b1": "v"}, "c": {"c0": "w", "c1": "w"},
             "a": {"a0": "z", "a1": "z"}}),
    "DIAMOND": (DIAMOND,
                ({"d": ["d0", "d1", "d2"], "b": ["b0", "b1"], "c": ["c0", "c1"], "a": ["a0"]},
                 {"le[b,d]": {"d0": "b0", "d1": "b0", "d2": "b1"},
                  "le[c,d]": {"d0": "c0", "d1": "c1", "d2": "c1"},
                  "le[a,b]": {"b0": "a0", "b1": "a0"},
                  "le[a,c]": {"c0": "a0", "c1": "a0"},
                  "le[a,d]": {"d0": "a0", "d1": "a0", "d2": "a0"}}),
                ({"d": ["u", "v"], "b": ["w"], "c": ["y0", "y1"], "a": ["z"]},
                 {"le[b,d]": {"u": "w", "v": "w"}, "le[c,d]": {"u": "y0", "v": "y1"},
                  "le[a,b]": {"w": "z"}, "le[a,c]": {"y0": "z", "y1": "z"},
                  "le[a,d]": {"u": "z", "v": "z"}}),
                {"d": {"d0": "u", "d1": "v", "d2": "v"}, "b": {"b0": "w", "b1": "w"},
                 "c": {"c0": "y0", "c1": "y1"}, "a": {"a0": "z"}}),
    "MONOID": (MONOID,
               ({"x": ["s0", "s1", "s2", "s3"]},
                {"e": {"s0": "s0", "s1": "s0", "s2": "s2", "s3": "s2"}}),
               ({"x": ["u", "v", "w"]}, {"e": {"u": "u", "v": "u", "w": "w"}}),
               {"x": {"s0": "u", "s1": "v", "s2": "w", "s3": "w"}}),
}

# Every term former and every piece of sugar, under closed contexts and
# contexts holding a P(R) variable.  In the last two `s`-context terms the
# inner binder `s` shadows the context's `s`.  The (s, t) terms take `*`
# inside a tuple, a comprehension whose body ignores its binder, and
# membership in a comprehension that nests another; the last context holds
# a variable `u` that no term uses.
TERMS_IN_CONTEXT = [
    ((), ["*", "true", "* = *",
          "{ s : Sigma | { t : Sigma | A(t) = A(s) } = { t : Sigma | t = s } }"]),
    ((("D", PowerType(RQ)),),
     ["{ r : R | r in D & true }",
      "{ s : Sigma | A(s) in D <=> proj_1(<A(s), s>) in D }"]),
    ((("s", SIGMA), ("D", PowerType(RQ))),
     ["A(s) in D", "<A(s), proj_2(<*, s>)>",
      "proj_1(<A(s), s>) in D & s in { s : Sigma | A(s) in D }",
      "{ t : Sigma | t in { s : Sigma | s = t } }",
      "{ t : Sigma | A(s) in D }"]),
    ((("s", SIGMA), ("t", SIGMA)),
     ["A(s) = A(t)", "s = t <=> A(s) = A(t)", "<s, A(t)> = <t, A(s)>",
      "<*, A(s)> = <*, A(t)>",
      "s in { r : Sigma | t in { q : Sigma | A(q) = A(r) } }"]),
    ((("s", SIGMA), ("u", SIGMA), ("D", PowerType(RQ))),
     ["A(s) in D", "s = s", "{ r : R | r in D }"]),
]


def _hand_built_rep(name: str) -> ToposRep:
    base, (sigma_at, sigma_maps), (r_at, r_maps), a_components = HAND_BUILT[name]
    sigma, rvals = Presheaf(base, sigma_at, sigma_maps), Presheaf(base, r_at, r_maps)
    return build_rep(Signature({"A": (SIGMA, RQ)}), base, {"Sigma": sigma, "R": rvals},
                     {"A": NatTransform(sigma, rvals, a_components)})


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_interpret_term_matches_the_memoized_reference(name):
    rep = _hand_built_rep(name)
    for context, terms in TERMS_IN_CONTEXT:
        for text in terms:
            term = parse_term(text, rep.signature)
            got = interpret_term(term, context, rep)
            assert got == reference_interpret_term(term, context, rep), (context, text)
            assert [list(got.components[obj]) for obj in rep.base.objects] == \
                [list(got.source.stage(obj)) for obj in rep.base.objects]


def _rep_with_a_moving_identity() -> ToposRep:
    # Sigma's identity table at q sends a1 to a0.  `ToposRep` does not
    # validate, so the walk must read along that identity, not skip it.
    sigma = Presheaf(TWO, {"q": ["a0", "a1", "a2"], "p": ["b0"]},
                     {"id[q]": {"a0": "a0", "a1": "a0", "a2": "a2"},
                      "le[p,q]": {"a0": "b0", "a1": "b0", "a2": "b0"}})
    rvals = Presheaf(TWO, {"q": ["u", "v"], "p": ["w"]}, {"le[p,q]": {"u": "w", "v": "w"}})
    a = NatTransform(sigma, rvals, {"q": {"a0": "u", "a1": "u", "a2": "v"}, "p": {"b0": "w"}})
    return ToposRep(Signature({"A": (SIGMA, RQ)}), TWO, {"Sigma": sigma, "R": rvals}, {"A": a})


@pytest.mark.hash_seeds
def test_interpret_term_reads_along_an_identity_that_moves_elements():
    rep = _rep_with_a_moving_identity()
    assert not rep.ground("Sigma")._identity_law
    agreed = 0
    for context, terms in TERMS_IN_CONTEXT:
        for text in terms:
            term = parse_term(text, rep.signature)
            try:
                expected = reference_interpret_term(term, context, rep)
            except RepresentationError:
                with pytest.raises(RepresentationError):
                    interpret_term(term, context, rep)
                continue
            assert interpret_term(term, context, rep) == expected, (context, text)
            agreed += 1
    assert agreed >= 5
