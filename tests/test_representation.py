import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import (
    CHAIN3,
    DIAMOND,
    MONOID,
    TWO,
    VEE,
    budget,
    compose_nats,
    evaluation,
    exp_untranspose,
    random_presheaf,
    reference_interpret_term,
    reference_law_violations,
    reference_prop_family,
    reference_sequent_context,
    reference_validate_axioms,
    two_point_presheaf,
)

from toposlang import presheaf as presheaf_module
from toposlang import rep as rep_module
from toposlang.category import one_object_category, principal_sieve
from toposlang.errors import CapExceeded
from toposlang.intervals import IntervalSet, Rational
from toposlang.local.check import LsTypeError, annotate, infer_type, map_children
from toposlang.local import (
    RQ,
    SIGMA,
    AndT,
    Compr,
    Eq,
    PowerType,
    ProductType,
    Sequent,
    Signature,
    Var,
    abelian_axiom_pack,
    desugar_connectives,
    pack_signature,
    parse_term,
    substitute,
)
from toposlang.presheaf import (
    NatTransform,
    Presheaf,
    PresheafError,
    enumerate_nats,
    exp_transpose,
    global_elements,
    power_object,
    power_transpose,
    product,
    product_many,
    product_presheaf,
    validate_nat,
)
from toposlang.prop.semantics import (
    ClassicalSystem,
    check_optional_axioms,
    classical_rep,
    sample_interval_sets,
    truth_value,
)
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


def zn_rep(n=3, corrupt=False):
    """Cyclic-group-of-n value object with the commutative group pack."""
    pack = abelian_axiom_pack()
    signature = pack_signature(Signature({"A": (SIGMA, RQ)}), pack)
    states = set_obj(["s0"])
    values = set_obj(range(n))
    add_table = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    if corrupt:
        add_table[(1, 2)] = 1
    unit = Presheaf(PT, {POINT: ((),)}, {})
    arrows = {
        "A": set_arrow(states, values, {"s0": 0}),
        "zero": set_arrow(unit, values, {(): 0}),
        "add": NatTransform(
            Presheaf(PT, {POINT: tuple((a, b) for a in range(n) for b in range(n))}, {}),
            values, {POINT: add_table}),
        "neg": set_arrow(values, values, {v: (n - v) % n for v in range(n)}),
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
    assert got in global_elements(rep.kit.omega)


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


def _empty_at_q_rep():
    """On TWO: Sigma empty at q and not at p, R of two elements at both."""
    sigma = two_point_presheaf([], ["b0", "b1"], {})
    rvals = two_point_presheaf(["u0", "u1"], ["w0", "w1"], {"u0": "w0", "u1": "w1"})
    arrow = NatTransform(sigma, rvals, {"q": {}, "p": {"b0": "w0", "b1": "w1"}})
    return build_rep(Signature({"A": (SIGMA, RQ)}), TWO, {"Sigma": sigma, "R": rvals},
                     {"A": arrow})


@pytest.mark.hash_seeds
@pytest.mark.parametrize("context, text", [
    # X is Sigma, empty at q: the two rows cut there are empty.
    ((("d", RQ),), "{ s : Sigma | A(s) = d }"),
    # Z is Sigma, empty at q: no row is cut there.
    ((("t", SIGMA),), "{ r : R | A(t) = r }"),
])
def test_a_transpose_reads_a_stage_where_z_or_x_is_empty(context, text):
    # Through a comprehension, against the reference interpretation, and
    # through `exp_transpose` of every arrow Z x X -> Omega, against the
    # untranspose.
    rep = _empty_at_q_rep()
    term = parse_term(text, rep.signature)
    assert interpret_term(term, context, rep) == reference_interpret_term(term, context, rep)
    (_, ztype), = context
    z, x, omega = interpret_type(ztype, rep), interpret_type(term.var.vtype, rep), rep.kit.omega
    assert not (z.stage("q") and x.stage("q"))
    arrows = enumerate_nats(product_presheaf([z, x]), omega)
    assert len(arrows) > 1
    for f in arrows:
        assert exp_untranspose(exp_transpose(f, z, x, omega), z, x, omega) == f


def test_abelian_pack_passes_on_z3_and_fails_on_corruption():
    signature, states, values, arrows, pack = zn_rep()
    rep = build_rep(signature, PT, {"Sigma": states, "R": values}, arrows,
                    axioms=pack.sequents)
    report = validate_axioms(rep)
    assert report.ok and report.checked > 0

    signature, states, values, arrows, pack = zn_rep(corrupt=True)
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
    top = principal_sieve(rep.base, point)
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
# contexts holding a P(R) variable.  In three of the (s, D) terms a binder
# `s` shadows the context's `s`; in the last, a binder `t` inside it takes
# the slot after the shadowing one, the environment's width, which is one
# more than the count of names in scope.  The (s, t) terms take `*`
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
      "{ t : Sigma | A(s) in D }",
      "{ s : Sigma | { t : Sigma | t = s } = { t : Sigma | A(t) = A(s) } }"]),
    ((("s", SIGMA), ("t", SIGMA)),
     ["A(s) = A(t)", "s = t <=> A(s) = A(t)", "<s, A(t)> = <t, A(s)>",
      "<*, A(s)> = <*, A(t)>",
      "s in { r : Sigma | t in { q : Sigma | A(q) = A(r) } }"]),
    ((("s", SIGMA), ("u", SIGMA), ("D", PowerType(RQ))),
     ["A(s) in D", "s = s", "{ r : R | r in D }"]),
]


def _hand_built_parts(name: str) -> tuple:
    """The signature, base, grounds and symbol arrows of a `HAND_BUILT` entry."""
    base, (sigma_at, sigma_maps), (r_at, r_maps), a_components = HAND_BUILT[name]
    sigma, rvals = Presheaf(base, sigma_at, sigma_maps), Presheaf(base, r_at, r_maps)
    return (Signature({"A": (SIGMA, RQ)}), base, {"Sigma": sigma, "R": rvals},
            {"A": NatTransform(sigma, rvals, a_components)})


def _hand_built_rep(name: str) -> ToposRep:
    return build_rep(*_hand_built_parts(name))


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


TERMS_BY_CONTEXT = [(context, text) for context, terms in TERMS_IN_CONTEXT for text in terms]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(HAND_BUILT)), st.sampled_from(TERMS_BY_CONTEXT))
def test_certified_interpretations_pass_validate_nat(name, context_and_text):
    # `interpret_term` builds its result without checking it, on a
    # representation from `build_rep` or built directly: the check must agree.
    context, text = context_and_text
    for rep in (_hand_built_rep(name), ToposRep(*_hand_built_parts(name))):
        got = interpret_term(parse_term(text, rep.signature), context, rep)
        assert validate_nat(got).ok, (name, context, text)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]),
                min_size=1, max_size=4))
def test_classical_symbol_arrows_and_families_are_certified(values):
    system = ClassicalSystem(tuple(f"s{i}" for i in range(len(values))),
                             {"A": {f"s{i}": v for i, v in enumerate(values)}})
    eff = EffectiveClassicalRep.build(system)
    arrow = eff.rep.symbols["A"]
    assert validate_nat(arrow).ok
    family = prop_family("A", eff.rep)
    assert validate_nat(family).ok
    members = set(power_object(eff.rep.ground("Sigma")).stage(POINT))
    assert all(family.apply(POINT, d) in members for d in family.source.stage(POINT))


def test_only_build_rep_marks_a_representation_validated(monkeypatch):
    checked = []

    def spy(n):
        checked.append(n)
        return validate_nat(n)

    # Each public construction of the symbol arrow checks it once; neither
    # representation checks it again, and no interpretation checks its
    # result, whichever way the representation was built.
    monkeypatch.setattr(presheaf_module, "validate_nat", spy)
    built = _hand_built_rep("TWO")
    direct = ToposRep(*_hand_built_parts("TWO"))
    assert [n.source for n in checked] == [built.ground("Sigma"), direct.ground("Sigma")]
    assert checked == [built.symbols["A"], direct.symbols["A"]]
    term = parse_term("A(s) = A(t)", built.signature)
    context = (("s", SIGMA), ("t", SIGMA))
    del checked[:]
    got = interpret_term(term, context, direct)
    assert got == interpret_term(term, context, built)
    assert got.source == product_presheaf([built.ground("Sigma"), built.ground("Sigma")])
    assert checked == []


def test_a_symbol_arrow_that_is_not_natural_is_refused_at_construction():
    # A(a1) = v restricts to z at p, but a1 restricts to b0 and A(b0) = w.
    # No interpretation or representation checks naturality; the arrow's
    # constructor refuses it.
    sigma = Presheaf(TWO, {"q": ["a0", "a1"], "p": ["b0"]},
                     {"le[p,q]": {"a0": "b0", "a1": "b0"}})
    rvals = Presheaf(TWO, {"q": ["u", "v"], "p": ["w", "z"]}, {"le[p,q]": {"u": "w", "v": "z"}})
    with pytest.raises(PresheafError) as err:
        NatTransform(sigma, rvals, {"q": {"a0": "u", "a1": "v"}, "p": {"b0": "w"}})
    assert str(err.value) == "not natural: ('naturality', 'le[p,q]', 'a1')"


@pytest.mark.hash_seeds
def test_interpret_term_reads_along_an_identity_that_moves_elements():
    # Term interpretation reads along an identity as keeping each
    # environment in place, which holds because no presheaf's identity
    # table moves an element: this Sigma's sends a1 to a0 at q.
    with pytest.raises(PresheafError) as err:
        Presheaf(TWO, {"q": ["a0", "a1", "a2"], "p": ["b0"]},
                 {"id[q]": {"a0": "a0", "a1": "a0", "a2": "a2"},
                  "le[p,q]": {"a0": "b0", "a1": "b0", "a2": "b0"}})
    assert str(err.value) == "violates functor laws: ('identity-law', 'q', 'a1')"


def _identity_arrow(x: Presheaf) -> NatTransform:
    return NatTransform(x, x, {obj: {v: v for v in x.stage(obj)} for obj in x.base.objects})


def _law_check_faults(grounds: dict, symbols: dict, base) -> list[str]:
    """What the base check and the shape comparison against A: Sigma -> R
    report, worded as `build_rep` words it."""
    out = []
    for name, x in grounds.items():
        if x.base != base:
            out.append(f"ground {name!r} lives on a different base")
    a = symbols["A"]
    if (a.source, a.target) != (grounds["Sigma"], grounds["R"]):
        out.append("arrow for 'A' has the wrong shape")
    extra = sorted(set(symbols) - {"A"})
    if extra:
        out.append(f"arrows assigned to undeclared symbols {extra}")
    return out


FAULTS = ["symbol value", "identity entry", "other base", "undeclared symbol", "wrong shape"]


@pytest.mark.hash_seeds
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(HAND_BUILT)), st.sampled_from(FAULTS), st.data())
def test_topos_rep_refuses_exactly_what_the_law_checks_report(name, fault, data):
    # One random fault in a hand-built representation.  A changed value or
    # a moved identity entry may leave it lawful; the other faults never do.
    # A moved identity entry that breaks the identity law leaves no presheaf,
    # and a changed value that breaks naturality leaves no arrow.
    signature, base, grounds, symbols = _hand_built_parts(name)
    a = symbols["A"]
    if fault == "symbol value":
        obj = data.draw(st.sampled_from(base.objects))
        el = data.draw(st.sampled_from(grounds["Sigma"].stage(obj)))
        components = {o: dict(c) for o, c in a.components.items()}
        components[obj][el] = data.draw(st.sampled_from(grounds["R"].stage(obj) + ("junk",)))
        bad = validate_nat(NatTransform._certified(a.source, a.target, components))
        if not bad.ok:
            with pytest.raises(PresheafError) as err:
                NatTransform(a.source, a.target, components)
            what = "not natural" if bad.items[0][0] == "naturality" else "invalid in a component"
            assert str(err.value) == f"{what}: {bad.items[0]}"
            return
        symbols["A"] = NatTransform(a.source, a.target, components)
    elif fault == "identity entry":
        ground = data.draw(st.sampled_from(["Sigma", "R"]))
        x, obj = grounds[ground], data.draw(st.sampled_from(base.objects))
        maps = {m: dict(table) for m, table in x.maps.items()}
        maps[base.id_of(obj)][data.draw(st.sampled_from(x.stage(obj)))] = \
            data.draw(st.sampled_from(x.stage(obj)))
        violations = reference_law_violations(base, x.at, maps)
        if violations:
            with pytest.raises(PresheafError) as err:
                Presheaf(base, x.at, maps)
            assert str(err.value) == f"violates functor laws: {violations[0]}"
            return
        grounds[ground] = Presheaf(base, x.at, maps)
        symbols["A"] = NatTransform(grounds["Sigma"], grounds["R"], a.components)
    elif fault == "other base":
        far = one_object_category("far")
        grounds[data.draw(st.sampled_from(["Sigma", "R"]))] = \
            Presheaf(far, {"far": ["f0", "f1"]}, {})
    elif fault == "undeclared symbol":
        symbols[data.draw(st.sampled_from(["B", "id"]))] = _identity_arrow(grounds["Sigma"])
    else:
        symbols["A"] = _identity_arrow(grounds[data.draw(st.sampled_from(["Sigma", "R"]))])
    faults = _law_check_faults(grounds, symbols, base)
    assert faults or fault in ("symbol value", "identity entry")
    if not faults:
        rep = ToposRep(signature, base, grounds, symbols)
        assert build_rep(signature, base, grounds, symbols).symbols == rep.symbols
        term = parse_term("A(s) = A(t)", signature)
        context = (("s", SIGMA), ("t", SIGMA))
        assert interpret_term(term, context, rep) == \
            reference_interpret_term(term, context, rep)
        return
    for construct in (ToposRep, build_rep):
        with pytest.raises(RepresentationError) as err:
            construct(signature, base, grounds, symbols)
        assert str(err.value) == faults[0], (name, fault)


# -- one hash-keeping object per classical value ------------------------------------

def _shared_value_tables(rng: random.Random, n_states: int, n_values: int):
    """States s0.. and two different tables A and B that both attain the same
    `n_values` values, each entry its own `Fraction` object."""
    states = tuple(f"s{i}" for i in range(n_states))
    values: set = set()
    while len(values) < n_values:
        values.add(Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
    values = sorted(values)
    tables: dict = {}
    for q in ("A", "B"):
        while True:
            pick = values + [rng.choice(values) for _ in range(n_states - n_values)]
            rng.shuffle(pick)
            table = {s: Fraction(v.numerator, v.denominator) for s, v in zip(states, pick)}
            if table not in tables.values():
                break
        tables[q] = table
    return states, tables


def test_classical_value_stage_and_arrows_hold_the_systems_own_objects():
    states, tables = _shared_value_tables(random.Random(3), 7, 5)
    rotated = [tables["A"][s] for s in states[1:] + states[:1]]
    tables["C"] = {s: str(v) for s, v in zip(states, rotated)}
    system = ClassicalSystem(states, tables)
    stored = [v for table in system.quantities.values() for v in table.values()]
    eff = EffectiveClassicalRep.build(system)
    stage = eff.rep.ground("R").stage(POINT)
    assert len(stage) == 5 and all(type(v) is Rational for v in stage)
    assert {id(v) for v in stage} == {id(v) for v in stored}
    for name, table in system.quantities.items():
        component = eff.rep.symbols[name].components[POINT]
        assert all(component[s] is table[s] for s in states)


def test_classical_values_are_hashed_once_each(monkeypatch):
    # At the parent, where each reader converted the table values again,
    # the same calls hashed a Fraction 4,498 times on this system.
    states, tables = _shared_value_tables(random.Random(11), 9, 8)
    deltas = [iv(None, False, 0, True), iv(-5, False, 5, True).union(iv(8, True, None, False))]
    hashed = []
    fraction_hash = Fraction.__hash__

    def spy(self):
        hashed.append((self.numerator, self.denominator))
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", spy)
    system = ClassicalSystem(states, tables)
    eff = EffectiveClassicalRep.build(system)
    images = [eff.preimage("A", d) for d in deltas]
    monkeypatch.undo()
    assert len(hashed) <= len(set(hashed)) == 8
    assert images == [frozenset(s for s in states if d.member(tables["A"][s])) for d in deltas]


@pytest.mark.hash_seeds
def test_a_first_preimage_hashes_each_power_object_element_a_counted_number_of_times(
        monkeypatch):
    # 8 states and 6 values.  The family reads the interval set's element
    # zv alone: <zv> = {zv} is built as a dict key 1 and its identity table
    # hashes 1, the context <zv> x Sigma's identity table and the term's
    # root dict each hash the 8 pairs (zv, s), and the transpose's
    # components and the lookup of its value at zv 1 each.  Neither P(R),
    # 64 elements, nor P(R) x Sigma, 512, nor P(Sigma) is listed.
    states = tuple(f"s{i}" for i in range(8))
    values = [Fraction(7 * i - 9, 4) for i in range(6)]
    system = ClassicalSystem(states, {"A": {s: values[i % 6] for i, s in enumerate(states)}})
    eff = EffectiveClassicalRep.build(system)
    hashed = []
    cells_hash = presheaf_module._Cells.__hash__

    def spy(self):
        hashed.append(1)
        return cells_hash(self)

    monkeypatch.setattr(presheaf_module._Cells, "__hash__", spy)
    got = eff.preimage("A", iv(-1, True, 5, False))
    monkeypatch.undo()
    assert got == frozenset(s for i, s in enumerate(states) if -1 <= values[i % 6] < 5)
    assert len(hashed) == 1 + 1 + 8 + 8 + 1 + 1


def _two_valued_system(n: int) -> ClassicalSystem:
    states = tuple(f"s{i}" for i in range(n))
    return ClassicalSystem(states, {"A": {s: Fraction(i % 2, 3) for i, s in enumerate(states)}})


@pytest.mark.hash_seeds
def test_a_first_two_valued_preimage_builds_cells_linear_in_the_states(monkeypatch):
    # The interval set's element has 2 cells, and the transpose over <zv>
    # gives it a subset of Sigma, n cells.  P(R), 4 elements of 2 cells, is
    # never listed, nor is P(Sigma), the transpose's target: a listing would
    # build 2^n elements of n cells.
    built = []

    class Counted(presheaf_module._Cells):
        def __new__(cls, cells):
            out = super().__new__(cls, cells)
            built.append(len(out))
            return out

    for n in (8, 16, 32):
        system = _two_valued_system(n)
        eff = EffectiveClassicalRep.build(system)
        built.clear()
        monkeypatch.setattr(presheaf_module, "_Cells", Counted)
        got = eff.preimage("A", iv(0, True, Fraction(1, 6), False))
        monkeypatch.undo()
        assert got == classical_rep(system).preimage("A", iv(0, True, Fraction(1, 6), False))
        assert (len(built), sum(built)) == (2, 2 + n)
        sigma = eff.rep.ground("Sigma")
        (p_sigma,) = sigma._exps.values()
        assert prop_family("A", eff.rep).target is p_sigma
        assert "at" not in vars(p_sigma)
        assert "at" not in vars(prop_family("A", eff.rep).source)


@pytest.mark.parametrize("n", [18, 24, 1000])
def test_a_two_valued_preimage_answers_on_many_states(n):
    # From 18 states on, P(Sigma) is past the hom search's cell cap and
    # cannot be listed; the transpose into it lists nothing over Sigma.
    system = _two_valued_system(n)
    eff = EffectiveClassicalRep.build(system)
    reference = classical_rep(system)
    deltas = [iv(0, True, 0, True), iv(Fraction(1, 3), True, None, False),
              iv(-1, False, 1, False), IntervalSet.empty()]
    gc.collect()  # the garbage of earlier tests is not this preimage's
    with budget(f"first 2-valued preimage on {n} states", 0.05 if n == 1000 else 0.02):
        got = eff.preimage("A", deltas[0])
    assert got == reference.preimage("A", deltas[0])
    assert [eff.preimage("A", d) for d in deltas] == [reference.preimage("A", d) for d in deltas]


def _many_valued_system(n: int, values: int) -> ClassicalSystem:
    states = tuple(f"s{i}" for i in range(n))
    return ClassicalSystem(states, {"A": {s: Fraction(i % values, 3)
                                          for i, s in enumerate(states)}})


@pytest.mark.parametrize("n, values", [(12, 12), (24, 17), (1000, 17), (18, 18), (24, 24)])
def test_a_preimage_answers_at_any_value_count_inside_the_hom_search_caps(n, values):
    # The family reads one argument at a time, so P(R) is never listed: at
    # 12 values its context with Sigma passed the product cap when it was,
    # and from 18 values on listing it passes the hom search's cell cap.
    system = _many_valued_system(n, values)
    eff = EffectiveClassicalRep.build(system)
    reference = classical_rep(system)
    deltas = [iv(0, True, 1, False), iv(Fraction(1, 3), True, None, False),
              IntervalSet.point(Fraction(values - 1, 3)), IntervalSet.empty()]
    gc.collect()  # the garbage of earlier tests is not this preimage's
    with budget(f"first preimage on {n} states and {values} values", 0.05):
        got = eff.preimage("A", deltas[0])
    assert got == reference.preimage("A", deltas[0])
    assert [eff.preimage("A", d) for d in deltas] == [reference.preimage("A", d) for d in deltas]
    assert "at" not in vars(prop_family("A", eff.rep).source)


def test_a_preimage_at_18_values_is_refused_at_once_by_the_hom_search_cap():
    # Listing the family lists P(R): 2^18 elements of 18 cells, past
    # HOM_CELL_CAP values.  A preimage lists neither.
    cap = presheaf_module.HOM_CELL_CAP
    eff = EffectiveClassicalRep.build(_many_valued_system(18, 18))
    family = prop_family("A", eff.rep)
    with budget("refusing the 18-valued power object", 0.1):
        with pytest.raises(CapExceeded) as err:
            family.components
    assert str(err.value) == \
        f"hom search results of 18 cells each exceed cap {cap} cells after {cap // 18} results"


def test_a_classical_representation_that_answered_a_preimage_is_freed_by_reference_counting():
    # The family a preimage builds is dropped with it, and interpreting its
    # term leaves no cycle behind: the last reference dropped frees the
    # representation at once, with the cyclic collector off.
    gc.collect()
    gc.disable()
    try:
        eff = EffectiveClassicalRep.build(SMALL)
        assert eff.preimage("A", iv(1, True, 4, False)) == {"s1", "s2"}
        ref = weakref.ref(eff.rep)
        del eff
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


def test_a_chain_representation_that_interpreted_terms_is_freed_by_reference_counting():
    # A comprehension, an equality and an axiom check over the 3-chain.
    gc.collect()
    gc.disable()
    try:
        rep = _hand_built_rep("CHAIN3")
        signature = rep.signature
        interpret_term(parse_term("{ t : Sigma | A(t) = A(s) }", signature), (("s", SIGMA),), rep)
        interpret_term(parse_term("s = t", signature), (("s", SIGMA), ("t", SIGMA)), rep)
        comprehension = substitute(substitute(
            parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D", signature),
            "s", Var("s", SIGMA)), "D", Var("D", PowerType(RQ)))
        assert validate_axioms(rep, [("comprehension", Sequent(frozenset(), comprehension))]).ok
        ref = weakref.ref(rep)
        del rep
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


@pytest.mark.hash_seeds
def test_a_first_preimage_interprets_environments_linear_in_the_states(monkeypatch):
    # The term is interpreted over <zv> x Sigma, and <zv> = {zv} on the one
    # object, so one environment per state whatever the value count; over
    # P(R) x Sigma it was n * 2^values.  The context is built by extension:
    # the empty context, then D over <zv>, then s over Sigma.
    interpreted = []
    init = rep_module._Context.__init__

    def spy(self, cat, names, envs, *args, **kwargs):
        interpreted.append(sum(map(len, envs.values())))
        init(self, cat, names, envs, *args, **kwargs)

    for n, values in [(8, 2), (8, 6), (16, 6), (16, 12)]:
        eff = EffectiveClassicalRep.build(_many_valued_system(n, values))
        interpreted.clear()
        monkeypatch.setattr(rep_module._Context, "__init__", spy)
        eff.preimage("A", iv(0, True, 1, False))
        monkeypatch.undo()
        assert interpreted == [1, 1, n], (n, values)


@pytest.mark.hash_seeds
def test_a_classical_build_and_its_preimages_run_no_law_or_membership_check(monkeypatch):
    # The stages come from a validated system and the interval set's
    # element is built in P(R)'s stage, so neither is checked again.
    calls = []
    validate = presheaf_module.validate_presheaf

    def spy(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(presheaf_module, "validate_presheaf", spy)
    system = _many_valued_system(8, 5)
    eff = EffectiveClassicalRep.build(system)
    reference = classical_rep(system)
    for delta in (iv(0, True, 1, False), iv(Fraction(1, 3), True, None, False)):
        assert eff.preimage("A", delta) == reference.preimage("A", delta)
    assert calls == []
    # The public family's `apply` lists P(R), built unchecked too.
    family = prop_family("A", eff.rep)
    zv = eff.delta_element(iv(0, True, 1, False))
    assert family.apply(POINT, zv) == family._value(POINT, zv)
    assert calls == []


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name", ["PT", "TWO"])
def test_a_term_is_typed_once_and_its_interpretation_types_nothing(name, monkeypatch):
    # On a set representation and on a poset one: `interpret_term` types a
    # membership term and a comprehension term once each, before `_columns`
    # runs, and reading a proposition family, which typed its term when it
    # was built, types nothing.
    rep = _hand_built_rep(name)
    typed, depth = [], [0]
    columns = rep_module._columns

    def walking(*args):
        depth[0] += 1
        try:
            return columns(*args)
        finally:
            depth[0] -= 1

    def typing(key, f):
        def spy(term, *args):
            typed.append((key, term, depth[0]))
            return f(term, *args)
        return spy

    monkeypatch.setattr(rep_module, "_columns", walking)
    monkeypatch.setattr(rep_module, "infer_type", typing("infer_type", rep_module.infer_type))
    monkeypatch.setattr(rep_module, "_infer_type", typing("_infer_type", rep_module._infer_type))
    for context, text in [((("s", SIGMA), ("D", PowerType(RQ))), "A(s) in D"),
                          ((("D", PowerType(RQ)),), "{ s : Sigma | A(s) in D }")]:
        term = parse_term(text, rep.signature)
        del typed[:]
        assert interpret_term(term, context, rep) == reference_interpret_term(term, context, rep)
        assert typed == [("infer_type", term, 0)], text
    reference = reference_prop_family("A", rep)
    del typed[:]
    family = prop_family("A", rep)
    assert [(key, d) for key, _, d in typed] == [("infer_type", 0)]
    del typed[:]
    for obj in rep.base.objects:
        for zv in family.source.stage(obj):
            assert family.apply(obj, zv) == reference.apply(obj, zv)
    assert family == reference
    assert typed == []


def _family_rep(name: str, seed: int) -> ToposRep:
    """The hand-built representation `name` at seed 0; else one on its base
    with random grounds, Sigma of up to 3 elements a stage and R of up to 2,
    and a random natural A: Sigma -> R."""
    if seed == 0:
        return _hand_built_rep(name)
    base, rng = HAND_BUILT[name][0], random.Random(seed)
    sigma, rvals = random_presheaf(base, rng, 3), random_presheaf(base, rng, 2)
    arrows = enumerate_nats(sigma, rvals)
    assume(arrows)
    return build_rep(Signature({"A": (SIGMA, RQ)}), base, {"Sigma": sigma, "R": rvals},
                     {"A": rng.choice(arrows)})


def _raised(thunk) -> str | None:
    try:
        thunk()
    except PresheafError as err:
        return str(err)
    return None


@pytest.mark.hash_seeds
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(HAND_BUILT)), st.integers(0, 3),
       st.sampled_from(["apply", "components", "eq", "hash"]), st.data())
def test_a_lazy_family_is_the_reference_family(name, seed, first, data):
    rep = _family_rep(name, seed)
    family = prop_family("A", rep)
    p_r, sigma = family.source, rep.ground("Sigma")
    reference = reference_prop_family("A", rep)
    fresh = rep_module._PropFamily("A", rep)
    cat = rep.base
    contexts = [(("D", PowerType(RQ)), ("s", SIGMA)), (("s", SIGMA), ("D", PowerType(RQ)))]
    terms = [(contexts[0], "A(s) in D")] + \
        [(contexts[1], text) for context, text in TERMS_BY_CONTEXT if context == contexts[1]]
    wholes = [interpret_term(parse_term(text, rep.signature), context, rep)
              for context, text in terms]
    moved_elements = []
    for obj in cat.objects:
        for zv in p_r.stage(obj):
            # <zv> holds every restriction of zv and is closed under them.
            generated = p_r._generated(obj, zv)
            for b in cat.objects:
                assert set(generated.stage(b)) == {
                    p_r.apply(g, zv) for g in cat.into(obj) if cat.morphism(g).dom == b}
            for m in cat.morphisms:
                assert all(generated.apply(m.id, e) == p_r.apply(m.id, e)
                           for e in generated.stage(m.cod))
            # Over <zv> x Sigma, the whole interpretation restricted to it.
            for (context, text), whole in zip(terms, wholes):
                factors = [generated if t == PowerType(RQ) else sigma for _, t in context]
                term = parse_term(text, rep.signature)
                target = interpret_type(infer_type(term, dict(context), rep.signature), rep)
                local = rep_module._interpret_term(term, context, rep, factors, target)
                assert local.target == whole.target
                for b in cat.objects:
                    assert all(local.apply(b, env) == whole.apply(b, env)
                               for env in local.source.stage(b)), (text, b)
        stage = p_r.stage(obj)
        zv = data.draw(st.sampled_from(stage))
        i = data.draw(st.integers(0, len(zv) - 1))
        (b, g, xv), value = zv[i]
        other = data.draw(st.sampled_from(rep.kit.omega.stage(b)))
        moved_elements.append((obj, zv[:i] + (((b, g, xv), other),) + zv[i + 1:]))
    if first == "apply":
        assert all(family.apply(obj, zv) == reference.apply(obj, zv)
                   for obj in cat.objects for zv in p_r.stage(obj))
    elif first == "components":
        assert family.components == reference.components
    elif first == "eq":
        assert family == reference
    else:
        assert hash(family) == hash(reference)
    assert family.components == reference.components
    assert family == reference and reference == family and fresh == family
    assert hash(family) == hash(reference) == hash(fresh)
    assert family.target is reference.target
    # One cell of a listed element moved to another truth value: the
    # family answers exactly where the listed stage holds the result.
    for obj, moved in moved_elements:
        if moved in set(p_r.stage(obj)):
            assert family.apply(obj, moved) == reference.apply(obj, moved)
        else:
            assert _raised(lambda: family.apply(obj, moved)) == \
                _raised(lambda: reference.apply(obj, moved)) is not None


@pytest.mark.hash_seeds
def test_a_family_refuses_an_argument_outside_its_source_stage():
    rep = _hand_built_rep("VEE")
    family = prop_family("A", rep)
    p_r, cat = family.source, rep.base
    rvals = rep.ground("R")
    top_b = principal_sieve(cat, "b")
    # The empty family of sieves at b, a natural element of P(R)(b); its
    # cells are (a, le[a,b], z) and (b, id[b], u), (b, id[b], v).
    keys = [(c, g, xv) for c, g in cat.into_by_key("b") for xv in rvals.stage(c)]
    empty = tuple((key, frozenset()) for key in keys)
    assert family.apply("b", empty) == family.apply("b", empty)
    short, reordered = empty[:-1], empty[::-1]
    outside_omega = empty[:-1] + ((keys[-1], frozenset({"le[a,c]"})),)
    # u in the sieve's top at b, its restriction z in the empty sieve at a.
    not_natural = tuple((key, top_b if key == ("b", "id[b]", "u") else frozenset())
                        for key in keys)
    unhashable = empty[:-1] + ((keys[-1], set()),)
    for bad in (short, reordered, outside_omega, not_natural, unhashable):
        with pytest.raises(PresheafError) as err:
            family.apply("b", bad)
        assert str(err.value) == f"component at 'b' undefined at {bad!r}"
    assert not {short, reordered, outside_omega, not_natural} & set(p_r.stage("b"))


def _plain_fraction_system(states, tables) -> ClassicalSystem:
    """The system storing a fresh plain `Fraction` per table entry, made
    without the constructor's conversion to `Rational`."""
    system = object.__new__(ClassicalSystem)
    object.__setattr__(system, "states", states)
    object.__setattr__(system, "quantities", {q: {s: Fraction(v) for s, v in table.items()}
                                              for q, table in tables.items()})
    return system


VALUE_POOL = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(5, 2), Fraction(3),
              Fraction(-3, 4)]
FORMULA_TEXTS = ["A in [0,3)", "~(B in (-1,1/2])", "A in (-inf,1/2] | B in [5/2,+inf)",
                 "(A in [0,0] -> B in (0,3]) & ~~(A in [-3/4,5/2])"]


def _written(data, v: Fraction):
    """v as an int, a Fraction, a ratio string or a decimal string."""
    forms = [v, str(v), str(float(v))]
    if v.denominator == 1:
        forms.append(int(v))
    return data.draw(st.sampled_from(forms))


def _outcome(thunk):
    try:
        return "ok", thunk()
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


@pytest.mark.hash_seeds
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rational_values_answer_as_plain_fractions(data):
    states = tuple(f"s{i}" for i in range(data.draw(st.integers(1, 5))))
    tables = {q: {s: _written(data, data.draw(st.sampled_from(VALUE_POOL))) for s in states}
              for q in ("A", "B")}
    system, plain = ClassicalSystem(states, tables), _plain_fraction_system(states, tables)
    assert system == plain
    formula = parse_formula(data.draw(st.sampled_from(FORMULA_TEXTS)))
    assert classical_rep(system).represent(formula) == classical_rep(plain).represent(formula)
    assert [truth_value(formula, s, system) for s in states] == \
        [truth_value(formula, s, plain) for s in states]
    seed = data.draw(st.integers(0, 3))
    samples = sample_interval_sets(system, seed=seed)
    assert samples == sample_interval_sets(plain, seed=seed)
    assert check_optional_axioms(system, seed=seed) == check_optional_axioms(plain, seed=seed)
    built = _outcome(lambda: EffectiveClassicalRep.build(system))
    assert built[0] == _outcome(lambda: EffectiveClassicalRep.build(plain))[0]
    ours, theirs = classical_rep(system), classical_rep(plain)
    for q in ("A", "B"):
        for delta in samples[q][:6]:
            want = frozenset(s for s in states if delta.member(plain.quantities[q][s]))
            assert ours.preimage(q, delta) == theirs.preimage(q, delta) == want
            if built[0] == "ok":
                assert built[1].preimage(q, delta) == want


# -- sequents decided at the identity ---------------------------------------------

SEQUENT_TYPES = {"s": SIGMA, "t": SIGMA, "u": SIGMA, "r": RQ, "D": PowerType(RQ)}

# (premises, conclusion) over the hand-built signature: sequents that hold on
# every base and sequents that fail on some, with and without premises, and
# every truth former among their formulas.
SEQUENTS = [
    ((), "s = s"),
    (("s = t",), "A(s) = A(t)"),
    (("A(s) = A(t)",), "s = t"),
    ((), "s = t"),
    (("s = t", "t = u"), "s = u"),
    (("A(s) in D",), "s in { s : Sigma | A(s) in D }"),
    ((), "A(s) in D"),
    (("A(s) in D & true",), "A(s) in D & A(s) = A(s)"),
    (("true",), "* = *"),
    ((), "s = t <=> A(s) = A(t)"),
    (("A(s) in D", "A(t) in D"), "s = t & true"),
    ((), "{ r : R | r in D } = D"),
    (("r in D",), "{ t : Sigma | A(t) = r } = { t : Sigma | A(t) in D }"),
]


def _sequent(premises, conclusion, signature) -> Sequent:
    def typed(text):
        return annotate(parse_term(text, signature), SEQUENT_TYPES)
    return Sequent(frozenset(map(typed, premises)), typed(conclusion))


def _sequents(rep, picks) -> list:
    return [(f"sequent{i}", _sequent(*SEQUENTS[i], rep.signature)) for i in picks]


@pytest.mark.hash_seeds
@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_validate_axioms_reports_what_the_reference_reports(name):
    rep = _hand_built_rep(name)
    axioms = _sequents(rep, range(len(SEQUENTS)))
    got, want = validate_axioms(rep, axioms), reference_validate_axioms(rep, axioms)
    assert got.checked == want.checked
    assert got.failures == want.failures
    # Every base fails some sequent, so the witness lists are compared too.
    assert want.failures


@pytest.mark.hash_seeds
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(HAND_BUILT)), st.integers(1, 3),
       st.lists(st.integers(0, len(SEQUENTS) - 1), min_size=1, max_size=3))
def test_validate_axioms_reports_what_the_reference_reports_on_random_grounds(
        name, seed, picks):
    rep = _family_rep(name, seed)
    axioms = _sequents(rep, picks)
    got, want = validate_axioms(rep, axioms), reference_validate_axioms(rep, axioms)
    assert (got.checked, got.failures) == (want.checked, want.failures)


def _formulas(children):
    return st.one_of(
        st.builds(AndT, children, children),
        st.builds(Eq, children, children),  # <=>
        # a comprehension over the formula, compared with the whole of Sigma
        children.map(lambda body: Eq(Compr(Var("u", SIGMA), body),
                                     Compr(Var("u", SIGMA), parse_term("true")))),
    )


FORMULA_ATOMS = ["true", "A(s) in D", "s = t", "A(s) = A(u)", "t in { r : Sigma | A(r) in D }",
                 "u = s & true"]
FORMULA_CONTEXT = (("s", SIGMA), ("t", SIGMA), ("u", SIGMA), ("D", PowerType(RQ)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(HAND_BUILT)), st.data())
def test_true_and_conjunction_interpret_as_their_desugared_forms(name, data):
    rep = _hand_built_rep(name)
    atoms = st.sampled_from(FORMULA_ATOMS).map(lambda text: parse_term(text, rep.signature))
    term = data.draw(st.recursive(atoms, _formulas, max_leaves=5))
    assert interpret_term(term, FORMULA_CONTEXT, rep) == \
        interpret_term(desugar_connectives(term), FORMULA_CONTEXT, rep)


def test_a_passing_sequent_of_equalities_reads_no_restriction(monkeypatch):
    # On a chain, `=` at Sigma or R is decided at each environment itself:
    # a sequent that holds reads no restriction along a non-identity arrow.
    # One that fails decodes its sieves, which read them.
    rep = _hand_built_rep("CHAIN3")
    calls = []
    restrict = rep_module._Context._restrict

    def spy(self, f):
        calls.append(f)
        return restrict(self, f)

    monkeypatch.setattr(rep_module._Context, "_restrict", spy)
    report = validate_axioms(rep, _sequents(rep, [1, 4]))
    assert report.ok and report.checked > 0
    assert calls == []
    assert not validate_axioms(rep, _sequents(rep, [3])).ok
    assert calls


@pytest.mark.parametrize("premises, conclusion", [((), "r"), (("r",), "r = r"),
                                                   (("s = s", "D"), "true")])
def test_an_axiom_formula_not_of_type_omega_is_refused_by_name(premises, conclusion):
    rep = _hand_built_rep("TWO")
    bad = conclusion if not premises else premises[-1]
    with pytest.raises(RepresentationError) as err:
        validate_axioms(rep, [("bad", _sequent(premises, conclusion, rep.signature))])
    want = "R" if bad == "r" else "P(R)"
    assert str(err.value) == f"axiom 'bad' has formula {bad!r} of type {want}, not Omega"


# -- the sequent's context: one typing walk per formula, one context per prefix --

def _occurrences_typed(term, vtype_of):
    """The term with each free variable occurrence given the type
    vtype_of(name) names, None leaving it bare."""
    def walk(n, bound):
        if isinstance(n, Var):
            return n if n.name in bound else Var(n.name, vtype_of(n.name))
        if isinstance(n, Compr):
            bound = bound | {n.var.name}
        return map_children(n, lambda c: walk(c, bound))
    return walk(term, frozenset())


def _typed_sequent(premises, conclusion, signature) -> Sequent:
    """A sequent whose formulas are (text, {variable: type}) pairs: each
    formula is typed by its own map, a variable missing from it left bare."""
    def typed(text, types):
        return _occurrences_typed(parse_term(text, signature), types.get)
    return Sequent(frozenset(typed(*p) for p in premises), typed(*conclusion))


def _assert_as_the_two_passes(rep, seq):
    """validate_axioms types the sequent as the two-pass reference does:
    the same error class and text, returned, or, where it passes, the same
    report."""
    want = _outcome(lambda: reference_sequent_context("bad", seq, rep.signature))
    got = _outcome(lambda: validate_axioms(rep, [("bad", seq)]))
    if want[0] != "ok":
        assert got == want
        return want
    ref = reference_validate_axioms(rep, [("bad", seq)])
    assert got[0] == "ok" and (got[1].checked, got[1].failures) == (ref.checked, ref.failures)
    return None


S_, R_ = {"s": SIGMA}, {"r": RQ}

# (premises, conclusion, the error class and text, None where the sequent is typed)
IRREGULAR_SEQUENTS = [
    # an untyped free variable, in a premise and in the conclusion
    ([("x = x", {})], ("s = s", S_),
     (RepresentationError, "axiom 'bad' has untyped free variable 'x'")),
    ([], ("A(s) = r", S_), (RepresentationError, "axiom 'bad' has untyped free variable 'r'")),
    # a variable typed two ways, across premises and within one formula
    ([("s = s", S_), ("s = s & true", {"s": RQ})], ("true", {}),
     (RepresentationError, "axiom 'bad' types variable 's' inconsistently")),
    ([("s = t", {"s": SIGMA, "t": RQ})], ("t = s", {"s": SIGMA, "t": SIGMA}),
     (RepresentationError, "axiom 'bad' types variable 't' inconsistently")),
    # premises and conclusions not of type Omega
    ([("r", R_)], ("r = r", R_), (RepresentationError,
                                  "axiom 'bad' has formula 'r' of type R, not Omega")),
    ([], ("A(s)", S_), (RepresentationError,
                        "axiom 'bad' has formula 'A(s)' of type R, not Omega")),
    # an untyped variable is named before a formula not of type Omega
    ([("x = x", {})], ("A(s)", S_),
     (RepresentationError, "axiom 'bad' has untyped free variable 'x'")),
    # an ill-typed subterm: its LsTypeError passes through as it stands
    ([], ("A(r) = r", R_), (LsTypeError, "symbol 'A' expects Sigma, got R (in A(r))")),
    ([("s = s", S_)], ("<s, s> = s", S_),
     (LsTypeError, "equality between different types Sigma*Sigma and Sigma (in <s, s> = s)")),
]


@pytest.mark.parametrize("premises, conclusion, want", IRREGULAR_SEQUENTS)
def test_an_irregular_sequent_is_refused_as_the_two_passes_refuse_it(premises, conclusion, want):
    rep = _hand_built_rep("TWO")
    assert _assert_as_the_two_passes(rep, _typed_sequent(premises, conclusion,
                                                         rep.signature)) == want


@pytest.mark.parametrize("first", [SIGMA, None])
def test_a_variable_annotated_at_one_occurrence_and_bare_at_another_is_typed(first):
    # Bare first, the one typing walk meets an unbound variable; the two
    # passes then take the annotation its other occurrence carries.
    rep = _hand_built_rep("TWO")
    conclusion = Eq(Var("s", first), Var("s", SIGMA if first is None else None))
    seq = Sequent(frozenset(), conclusion)
    assert _assert_as_the_two_passes(rep, seq) is None
    report = validate_axioms(rep, [("bad", seq)])
    assert report.ok and report.checked == 5  # Sigma has 3 + 2 elements


@pytest.mark.hash_seeds
def test_a_variable_typed_two_ways_is_named_in_the_order_of_the_type_check():
    # Both premises type x and y crosswise.  The conclusion and then the
    # premises in format_term order are walked, so "x = x & y = y" types y
    # at R before "y = y & x = x" types it at Sigma, under every hash seed.
    rep = _hand_built_rep("PT")
    seq = _typed_sequent([("y = y & x = x", {"y": SIGMA, "x": RQ}),
                          ("x = x & y = y", {"x": SIGMA, "y": RQ})], ("true", {}),
                         rep.signature)
    assert _assert_as_the_two_passes(rep, seq) == (
        RepresentationError, "axiom 'bad' types variable 'y' inconsistently")
    # Three premises that print alike, each typing x and y its own way, are
    # walked in repr order, R before Sigma: (R, R), (Sigma, R), (Sigma, Sigma).
    ways = [{"x": tx, "y": ty} for tx, ty in ((SIGMA, SIGMA), (SIGMA, RQ), (RQ, RQ))]
    seq = _typed_sequent([("x = x & y = y", t) for t in ways], ("true", {}), rep.signature)
    assert _assert_as_the_two_passes(rep, seq) == (
        RepresentationError, "axiom 'bad' types variable 'x' inconsistently")


TYPING_ATOMS = ["s = t", "A(s) = r", "s = s", "r = r", "true", "A(s)", "s", "A(r) = r",
                "<s, r> = <t, r>", "s in { q : Sigma | A(q) = r }",
                "{ u : Sigma | A(u) = r } = { u : Sigma | s = u }"]
TYPICAL = {"s": SIGMA, "t": SIGMA, "r": RQ}
OTHER = {SIGMA: RQ, RQ: SIGMA}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["PT", "TWO", "VEE"]), st.data())
def test_validate_axioms_types_a_sequent_as_the_two_passes_do(name, data):
    # Each free occurrence keeps its usual type, goes bare or takes the
    # other ground, so typed, untyped, doubly typed and ill-typed sequents
    # all come up; where the two passes type the sequent, the reports agree.
    rep = _hand_built_rep(name)
    occurrence = st.sampled_from(["usual", "usual", "usual", "bare", "other"])

    def vtype_of(var):
        pick = data.draw(occurrence)
        return None if pick == "bare" else TYPICAL[var] if pick == "usual" \
            else OTHER[TYPICAL[var]]

    formula = st.sampled_from(TYPING_ATOMS).map(
        lambda text: _occurrences_typed(parse_term(text, rep.signature), vtype_of))
    premises = data.draw(st.lists(formula, max_size=2))
    seq = Sequent(frozenset(premises), data.draw(formula))
    _assert_as_the_two_passes(rep, seq)


@pytest.mark.hash_seeds
def test_the_z4_pack_is_typed_once_a_formula_over_three_built_contexts(monkeypatch):
    # The pack's contexts are (r) for unit and inverse, (r, s) for
    # commutativity and (r, s, t) for associativity: each extends the
    # longest one built before it, so 3 extensions rather than 1 + 2 + 3 + 1.
    signature, states, values, arrows, pack = zn_rep(4)
    rep = ToposRep(signature, PT, {"Sigma": states, "R": values}, arrows, pack.sequents)
    calls = {"free_vars": 0, "extend": 0}
    walked = []
    extend, free_vars, walk, infer = (rep_module._Context.extend, rep_module.free_vars,
                                      rep_module._infer_type, rep_module.infer_type)

    def count(key, f):
        def spy(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return spy

    def walking(f):
        def spy(term, *args):
            walked.append(term)
            return f(term, *args)
        return spy

    monkeypatch.setattr(rep_module._Context, "extend", count("extend", extend))
    monkeypatch.setattr(rep_module, "free_vars", count("free_vars", free_vars))
    monkeypatch.setattr(rep_module, "_infer_type", walking(walk))
    monkeypatch.setattr(rep_module, "infer_type", walking(infer))
    report = validate_axioms(rep)
    assert report.ok and report.checked == 4 + 16 + 64 + 4 == 88
    assert calls == {"free_vars": 0, "extend": 3}
    assert sorted(map(id, walked)) == sorted(id(seq.conclusion) for _, seq in pack.sequents)


def test_contexts_are_shared_only_at_the_same_variable_types():
    # x and y range over Sigma in one sequent and over R in the next two:
    # 3^2 + 2^2 environments, then twice 2^2 + 1^2.
    rep = _hand_built_rep("TWO")
    xy = {"x": SIGMA, "y": SIGMA}, {"x": RQ, "y": RQ}
    axioms = [(f"at {t['x']}", _typed_sequent([("x = y", t)], ("y = x & x = x", t),
                                               rep.signature)) for t in xy]
    axioms.append(("fails", _typed_sequent([], ("x = y", xy[1]), rep.signature)))
    got, want = validate_axioms(rep, axioms), reference_validate_axioms(rep, axioms)
    assert (got.checked, got.failures) == (want.checked, want.failures)
    assert got.checked == 13 + 5 + 5 and want.failures


def test_a_context_extending_a_built_one_is_admitted_before_it_is_built(monkeypatch):
    # On Z_3 the contexts (r, s) and (r, s, t) have 9 and 27 environments:
    # under a cap of 20 the second is refused, though (r, s) was built.
    signature, states, values, arrows, pack = zn_rep(3)
    rep = ToposRep(signature, PT, {"Sigma": states, "R": values}, arrows, pack.sequents)
    built = []
    extend = rep_module._Context.extend

    def spy(self, name, x):
        built.append(name)
        return extend(self, name, x)

    monkeypatch.setattr(presheaf_module, "PRODUCT_CAP", 20)
    monkeypatch.setattr(rep_module._Context, "extend", spy)
    with pytest.raises(CapExceeded) as err:
        validate_axioms(rep)
    assert str(err.value) == "product of 3 factors has 27 elements, exceeds cap 20"
    assert built == ["r", "s"]
