import pytest

from toposlang.errors import InputError
from toposlang.local import (
    OMEGA,
    RQ,
    SIGMA,
    STAR,
    UNIT,
    AndT,
    App,
    Compr,
    DerivationLine,
    Eq,
    GroundType,
    In,
    LsParseError,
    LsTypeError,
    PowerType,
    ProductType,
    Sequent,
    Signature,
    Tup,
    Var,
    abelian_axiom_pack,
    alpha_equal,
    check_derivation,
    desugar_connectives,
    format_term,
    free_vars,
    infer_type,
    is_axiom_instance,
    lset_intersection,
    pack_signature,
    parse_term,
    parse_type,
    substitute,
)
from toposlang.local.check import CORE_TRUE

SIG = Signature({"A": (SIGMA, RQ), "B": (SIGMA, RQ)}, grounds=("N",))
CTX = {"s": SIGMA, "D": PowerType(RQ)}


def test_signature_requires_a_quantity_symbol():
    with pytest.raises(InputError):
        Signature({"f": (RQ, RQ)})
    with pytest.raises(InputError):
        Signature({"A": (SIGMA, RQ)}, grounds=("Omega",))
    assert SIG.quantity_symbols() == ["A", "B"]


def test_parse_types():
    assert parse_type("P(Sigma * R)") == PowerType(ProductType((SIGMA, RQ)))
    assert parse_type("1") == UNIT
    assert parse_type("Omega") == OMEGA
    assert parse_type("N * P(N)") == ProductType((GroundType("N"), PowerType(GroundType("N"))))
    assert parse_type("(Sigma * R) * Omega") == ProductType(
        (ProductType((SIGMA, RQ)), OMEGA))
    assert str(parse_type("P((Sigma*R))")) == "P(Sigma*R)"


def test_parse_application_and_membership():
    term = parse_term("A(s)", SIG)
    assert term == App("A", Var("s"))
    assert infer_type(term, CTX, SIG) == RQ
    whole = parse_term("A(s) in D", SIG)
    assert whole == In(App("A", Var("s")), Var("D"))
    assert infer_type(whole, CTX, SIG) == OMEGA


def test_parse_comprehension():
    term = parse_term("{ s : Sigma | A(s) in D }", SIG)
    assert term == Compr(Var("s", SIGMA), In(App("A", Var("s")), Var("D")))
    assert infer_type(term, {"D": PowerType(RQ)}, SIG) == PowerType(SIGMA)


def test_parse_unknown_symbol_is_positioned_error():
    with pytest.raises(LsParseError):
        parse_term("Z(s)", SIG)
    with pytest.raises(LsParseError):
        parse_term("<s>", SIG)  # singleton tuple
    with pytest.raises(LsParseError):
        parse_term("{ s | A(s) in D }", SIG)  # binder needs a type


def test_star_types_as_unit_and_eq_shape_errors():
    assert infer_type(STAR, {}, SIG) == UNIT
    with pytest.raises(LsTypeError) as err:
        infer_type(parse_term("s = D", SIG), CTX, SIG)
    assert "different types" in str(err.value)
    with pytest.raises(LsTypeError):
        infer_type(parse_term("s in s", SIG), CTX, SIG)
    with pytest.raises(LsTypeError):
        infer_type(Var("nope"), {}, SIG)


def test_tuple_and_projection_typing():
    term = parse_term("proj_2(<A(s), s>)", SIG)
    assert infer_type(term, CTX, SIG) == SIGMA
    with pytest.raises(LsTypeError):
        infer_type(parse_term("proj_3(<A(s), s>)", SIG), CTX, SIG)
    with pytest.raises(LsTypeError):
        infer_type(parse_term("proj_1(s)", SIG), CTX, SIG)


def test_printer_round_trips():
    cases = [
        "A(s) in D",
        "{ s : Sigma | A(s) in D }",
        "<A(s), s, *>",
        "proj_1(<s, s>) = s",
        "true & s = s",
        "(s = s & D = D) & true",
        "s = s <=> true",
    ]
    for text in cases:
        assert parse_term(format_term(parse_term(text, SIG)), SIG) == parse_term(text, SIG)


def test_desugar_connectives():
    assert desugar_connectives(parse_term("true", SIG)) == CORE_TRUE
    got = desugar_connectives(parse_term("s = s & D = D", SIG))
    want = Eq(Tup((Eq(Var("s"), Var("s")), Eq(Var("D"), Var("D")))),
              Tup((CORE_TRUE, CORE_TRUE)))
    assert got == want
    assert desugar_connectives(got) == got  # idempotent
    assert infer_type(got, CTX, SIG) == OMEGA


def test_substitute_basic_and_bound():
    body = parse_term("A(s)", SIG)
    assert substitute(body, "s", Var("t", SIGMA)) == App("A", Var("t", SIGMA))
    shadowed = parse_term("{ s : Sigma | A(s) in D }", SIG)
    assert substitute(shadowed, "s", Var("t", SIGMA)) == shadowed


def test_substitute_avoids_capture():
    # replacing D by a term mentioning s under a binder for s renames it
    target = parse_term("{ s : Sigma | A(s) in D }", SIG)
    replacement = parse_term("{ r : R | r = A(s) }", SIG)
    got = substitute(target, "D", replacement)
    assert isinstance(got, Compr)
    assert got.var.name != "s"
    # oracle: free variables afterwards are exactly s (from the replacement)
    assert set(free_vars(got)) == {"s"}
    assert infer_type(got, {"s": SIGMA}, SIG) == PowerType(SIGMA)


def test_alpha_equality():
    a = parse_term("{ s : Sigma | A(s) in D }", SIG)
    b = parse_term("{ w : Sigma | A(w) in D }", SIG)
    c = parse_term("{ w : Sigma | A(w) in E }", SIG)
    assert alpha_equal(a, b)
    assert not alpha_equal(a, c)


def test_typing_stable_under_substitution():
    term = parse_term("A(s) in D", SIG)
    assert infer_type(term, CTX, SIG) == OMEGA
    inst = substitute(term, "D", parse_term("{ r : R | r = r }", SIG))
    assert infer_type(inst, {"s": SIGMA}, SIG) == OMEGA


# -- axiom schemas ----------------------------------------------------------------

def seq(conclusion, *context):
    return Sequent(frozenset(context), conclusion)


def test_tautology_instance():
    alpha = parse_term("A(s) in D", SIG)
    assert is_axiom_instance(seq(alpha, alpha)) == "Tautology"
    assert is_axiom_instance(seq(alpha)) is None


def test_unity_instance():
    assert is_axiom_instance(seq(Eq(Var("u", UNIT), STAR))) == "Unity"
    assert is_axiom_instance(seq(Eq(Var("u", SIGMA), STAR))) is None


def test_products_instances():
    beta = parse_term("proj_2(<s, D>) = D", SIG)
    assert is_axiom_instance(seq(beta)) == "Products"
    eta = parse_term("p = <proj_1(p), proj_2(p)>", SIG)
    assert is_axiom_instance(seq(eta)) == "Products"
    wrong = parse_term("proj_2(<s, D>) = s", SIG)
    assert is_axiom_instance(seq(wrong)) is None


def test_comprehension_instance():
    inst = parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D", SIG)
    assert is_axiom_instance(seq(inst)) == "Comprehension"
    general = parse_term("t in { s : Sigma | A(s) in D } <=> A(t) in D", SIG)
    assert is_axiom_instance(seq(general)) == "Comprehension"
    broken = parse_term("t in { s : Sigma | A(s) in D } <=> A(s) in D", SIG)
    assert is_axiom_instance(seq(broken)) is None


def test_equality_instance():
    eq = parse_term("x = y", SIG)
    prem = parse_term("A(x) in D", SIG)
    concl = parse_term("A(y) in D", SIG)
    assert is_axiom_instance(seq(concl, eq, prem)) == "Equality"
    # replacing only one of two occurrences is still a legal instance
    prem2 = parse_term("A(x) = A(x)", SIG)
    concl2 = parse_term("A(x) = A(y)", SIG)
    assert is_axiom_instance(seq(concl2, eq, prem2)) == "Equality"
    assert is_axiom_instance(seq(parse_term("B(y) in D", SIG), eq, prem)) is None


def test_equality_respects_binders():
    eq = parse_term("x = y", SIG)
    # x is bound inside the comprehension: not a free occurrence
    prem = parse_term("{ x : Sigma | A(x) in D } = E", SIG)
    same = parse_term("{ x : Sigma | A(x) in D } = E", SIG)
    bad = parse_term("{ x : Sigma | A(y) in D } = E", SIG)
    assert is_axiom_instance(seq(same, eq, prem)) == "Equality"
    assert is_axiom_instance(seq(bad, eq, prem)) is None


# -- derivations ------------------------------------------------------------------

def test_one_line_comprehension_derivation():
    inst = seq(parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D", SIG))
    verdict = check_derivation([DerivationLine(inst, "axiom")])
    assert verdict.accepted


def test_thinning_derivation():
    alpha = parse_term("A(s) in D", SIG)
    beta = parse_term("B(s) in D", SIG)
    lines = [
        DerivationLine(seq(alpha, alpha), "axiom"),
        DerivationLine(seq(alpha, alpha, beta), "thinning", (1,)),
    ]
    assert check_derivation(lines).accepted


def test_cut_derivation_and_mismatch():
    alpha = parse_term("A(s) in D", SIG)
    beta = parse_term("B(s) in D", SIG)
    ok = [
        DerivationLine(seq(alpha, alpha), "axiom"),
        DerivationLine(seq(beta, beta), "axiom"),
        DerivationLine(seq(beta, beta, alpha), "thinning", (2,)),
        # from (alpha : alpha) and (beta, alpha : beta) conclude (alpha, beta : beta)
        DerivationLine(seq(beta, alpha, beta), "cut", (1, 3)),
    ]
    assert check_derivation(ok).accepted
    bad = [
        DerivationLine(seq(alpha, alpha), "axiom"),
        DerivationLine(seq(beta, beta), "axiom"),
        DerivationLine(seq(beta, beta), "cut", (1, 2)),  # alpha not in context
    ]
    verdict = check_derivation(bad)
    assert not verdict.accepted and verdict.bad_line == 3


def test_substitution_derivation_requires_closed_terms():
    inst = seq(parse_term("t in { s : Sigma | A(s) in D } <=> A(t) in D", SIG))
    closed = parse_term("{ r : R | r = r }", SIG)
    lines = [
        DerivationLine(inst, "axiom"),
        DerivationLine(
            Sequent(frozenset(),
                    substitute(inst.conclusion, "D", closed)),
            "substitute", (1,), var=Var("D", PowerType(RQ)), term=closed),
    ]
    assert check_derivation(lines).accepted
    open_term = parse_term("{ r : R | r = A(w) }", SIG)
    bad = [
        DerivationLine(inst, "axiom"),
        DerivationLine(
            Sequent(frozenset(), substitute(inst.conclusion, "D", open_term)),
            "substitute", (1,), var=Var("D", PowerType(RQ)), term=open_term),
    ]
    assert not check_derivation(bad).accepted


def test_rewrite_derivation():
    alpha = parse_term("A(s) in D", SIG)
    beta = parse_term("B(s) in D", SIG)
    iff = seq(Eq(alpha, beta))
    lines = [
        DerivationLine(seq(alpha, alpha), "axiom"),
        DerivationLine(iff, "axiom"),  # not actually an axiom
    ]
    assert not check_derivation(lines).accepted
    # use a real bi-implication: comprehension, then rewrite its instance
    compr = parse_term("s in { s : Sigma | A(s) in D } <=> A(s) in D", SIG)
    member = parse_term("s in { s : Sigma | A(s) in D }", SIG)
    lines = [
        DerivationLine(seq(compr), "axiom"),
        DerivationLine(seq(member, member), "axiom"),
        DerivationLine(seq(parse_term("A(s) in D", SIG), member), "rewrite", (1, 2)),
    ]
    assert check_derivation(lines).accepted


def test_forward_citation_rejected():
    alpha = parse_term("A(s) in D", SIG)
    lines = [DerivationLine(seq(alpha, alpha), "thinning", (2,)),
             DerivationLine(seq(alpha, alpha), "axiom")]
    verdict = check_derivation(lines)
    assert not verdict.accepted and verdict.bad_line == 1


# -- axiom pack and set operations ---------------------------------------------

def test_abelian_pack_contents():
    pack = abelian_axiom_pack()
    assert {name for name, _, _ in pack.symbols} == {"zero", "add", "neg"}
    names = [n for n, _ in pack.sequents]
    assert names == ["unit", "commutativity", "associativity", "inverse"]
    signature = pack_signature(SIG, pack)
    for _, s in pack.sequents:
        ctx = {name: RQ for name in free_vars(s.conclusion)}
        assert infer_type(s.conclusion, ctx, signature) == OMEGA


def test_abelian_pack_is_parsed_once_per_process():
    pack = abelian_axiom_pack()
    assert abelian_axiom_pack() is pack
    assert pack == abelian_axiom_pack.__wrapped__()  # a fresh parse


def test_pack_symbol_clash_detected():
    pack = abelian_axiom_pack()
    clashing = Signature({"A": (SIGMA, RQ), "zero": (SIGMA, RQ)})
    with pytest.raises(InputError):
        pack_signature(clashing, pack)


def test_unit_axiom_instance_at_zero():
    pack = abelian_axiom_pack()
    signature = pack_signature(SIG, pack)
    unit = dict(pack.sequents)["unit"]
    inst = substitute(unit.conclusion, "r", parse_term("zero(*)", signature))
    assert format_term(inst) == "add(<zero(*), zero(*)>) = zero(*)"
    assert infer_type(inst, {}, signature) == OMEGA


def test_lset_intersection_shape():
    x = parse_term("{ s : Sigma | A(s) in D }", SIG)
    with pytest.raises(InputError):
        lset_intersection(x, x, SIGMA)  # D is free
    closed = substitute(x, "D", parse_term("{ r : R | r = r }", SIG))
    got = lset_intersection(closed, closed, SIGMA)
    assert isinstance(got, Compr)
    assert isinstance(got.body, AndT)
    assert infer_type(got, {}, SIG) == PowerType(SIGMA)


def _random_schema_instances(count, seed=0):
    """Generator side of the round trip: random instances of every schema."""
    import random

    from toposlang.local.syntax import Proj, STAR

    rng = random.Random(seed)
    pool_terms = [
        parse_term("A(s) in D", SIG),
        parse_term("s = s", SIG),
        parse_term("true & A(s) in D", SIG),
        parse_term("{ w : Sigma | A(w) in D } = E", SIG),
    ]
    pool_small = [parse_term("s", SIG), parse_term("A(s)", SIG),
                  parse_term("<s, A(s)>", SIG)]
    out = []
    for _ in range(count):
        alpha = rng.choice(pool_terms)
        out.append(("Tautology", seq(alpha, alpha)))
        out.append(("Unity", seq(Eq(Var(rng.choice("uvw"), UNIT), STAR))))
        items = tuple(rng.choice(pool_small) for _ in range(rng.randint(2, 3)))
        i = rng.randint(1, len(items))
        out.append(("Products", seq(Eq(Proj(i, Tup(items)), items[i - 1]))))
        tup_var = Var("pair", ProductType((SIGMA, RQ)))
        out.append(("Products",
                    seq(Eq(tup_var, Tup((Proj(1, tup_var), Proj(2, tup_var)))))))
        compr = parse_term("{ s : Sigma | A(s) in D }", SIG)
        elem = rng.choice([parse_term("s", SIG), parse_term("t", SIG)])
        expanded = substitute(compr.body, compr.var.name, elem)
        out.append(("Comprehension", seq(Eq(In(elem, compr), expanded))))
    return out


def test_generated_schema_instances_round_trip():
    for name, sequent in _random_schema_instances(25, seed=3):
        assert is_axiom_instance(sequent) == name, name
