"""The local language's structural passes, built on `map_children`, against
the walkers they replaced (`tests/helpers.py`, one branch per term former),
and a pass that changes nothing giving back the very term it was given.

Terms are drawn over all ten term formers, from three variable names, so
nested binders shadow each other and replacement terms often have free
variables that a binder of the target would capture."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_alpha_normal,
    reference_desugar_connectives,
    reference_free_vars,
    reference_replaceable,
    reference_substitute,
)
from toposlang.local.axioms import (
    DerivationLine,
    DerivationVerdict,
    Sequent,
    _replaceable,
    check_derivation,
)
from toposlang.local.check import (
    alpha_normal,
    desugar_connectives,
    free_vars,
    map_children,
    substitute,
)
from toposlang.local.syntax import (
    STAR,
    TRUE,
    AndT,
    App,
    Compr,
    Eq,
    In,
    Proj,
    TrueLit,
    Tup,
    Var,
    parse_term,
)
from toposlang.local.types import OMEGA, RQ, SIGMA, PowerType

NAMES = st.sampled_from(("x", "y", "z"))
TYPES = st.sampled_from((SIGMA, RQ, OMEGA, PowerType(RQ)))
BINDERS = st.builds(Var, NAMES, TYPES)
LEAVES = st.one_of(st.builds(Var, NAMES, st.none() | TYPES), st.just(STAR), st.just(TRUE))


def _formers(children):
    return st.one_of(
        st.builds(App, st.sampled_from(("A", "f")), children),
        st.builds(Tup, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(Proj, st.integers(1, 3), children),
        st.builds(Compr, BINDERS, children),
        # a binder directly under one of the same name
        st.builds(lambda v, vtype, body: Compr(v, Compr(Var(v.name, vtype), body)),
                  BINDERS, TYPES, children),
        st.builds(Eq, children, children),
        st.builds(In, children, children),
        st.builds(AndT, children, children),
    )


TERMS = st.recursive(LEAVES, _formers, max_leaves=12)
SUBTERMS = st.recursive(LEAVES, _formers, max_leaves=4)


@st.composite
def _rewrites(draw, eta=False):
    """(phi, psi, x, y): phi and psi of one shape, psi with y at some of the
    places phi has x, and here and there an unrelated leaf or binder.  With
    eta, y is the eta expansion <proj_1(x), proj_2(x)> of x."""
    x = draw(SUBTERMS)
    y = Tup((Proj(1, x), Proj(2, x))) if eta else draw(SUBTERMS)

    def pair(depth):
        pick = draw(st.integers(0, 3 if depth > 3 else 9))
        if pick == 0:
            return x, y
        if pick == 1:
            return x, x
        if pick == 2:
            leaf = draw(LEAVES)
            return leaf, leaf
        if pick == 3:
            return draw(LEAVES), draw(LEAVES)
        if pick == 4:
            symbol = draw(st.sampled_from(("A", "f")))
            a, b = pair(depth + 1)
            return App(symbol, a), App(symbol, b)
        if pick == 5:
            items = [pair(depth + 1) for _ in range(draw(st.integers(2, 3)))]
            return Tup(tuple(a for a, _ in items)), Tup(tuple(b for _, b in items))
        if pick == 6:
            index = draw(st.integers(1, 3))
            a, b = pair(depth + 1)
            return Proj(index, a), Proj(index, b)
        if pick == 7:
            v = draw(BINDERS)
            w = draw(st.builds(Var, NAMES, st.just(v.vtype)) | BINDERS)
            a, b = pair(depth + 1)
            return Compr(v, a), Compr(w, b)
        former = draw(st.sampled_from((Eq, In, AndT)))
        (a, b), (c, d) = pair(depth + 1), pair(depth + 1)
        return former(a, c), former(b, d)

    return (*pair(0), x, y)


SHADOWING = parse_term("{ x : Sigma | { x : R | x = y } in { y : P(R) | x in y } }")
CAPTURING = parse_term("{ y : Sigma | <x, y> = <y, x> & { x : R | x = y } = z }")


@settings(max_examples=300, deadline=None)
@given(TERMS)
@example(SHADOWING)
@example(CAPTURING)
def test_free_vars_alpha_normal_and_desugar_match_the_reference(term):
    assert free_vars(term) == reference_free_vars(term)
    assert alpha_normal(term) == reference_alpha_normal(term)
    assert desugar_connectives(term) == reference_desugar_connectives(term)


def _has_connectives(term) -> bool:
    children = []
    map_children(term, lambda t: children.append(t) or t)
    return isinstance(term, (AndT, TrueLit)) or any(map(_has_connectives, children))


@settings(max_examples=300, deadline=None)
@given(TERMS)
@example(SHADOWING)
def test_walks_that_change_nothing_give_back_their_argument(term):
    assert map_children(term, lambda t: t) is term
    # No term drawn has a free `w`, so substituting for it changes nothing.
    assert substitute(term, "w", STAR) is term
    assert (desugar_connectives(term) is term) == (not _has_connectives(term))


@settings(max_examples=300, deadline=None)
@given(TERMS, NAMES, TERMS)
@example(SHADOWING, "y", Var("x", SIGMA))
@example(CAPTURING, "x", parse_term("<y, z>"))
@example(CAPTURING, "z", parse_term("{ y_1 : R | y = y_1 }"))
def test_substitute_matches_the_reference(term, name, replacement):
    assert substitute(term, name, replacement) == reference_substitute(term, name, replacement)


@settings(max_examples=300, deadline=None)
@given(_rewrites())
def test_replaceable_matches_the_reference(case):
    phi, psi, x, y = case
    assert _replaceable(phi, psi, x, y) == reference_replaceable(phi, psi, x, y)


@settings(max_examples=300, deadline=None)
@given(_rewrites(eta=True))
def test_rewrite_rule_matches_the_reference(case):
    # line 1 is the eta axiom x = <proj_1(x), proj_2(x)>, line 2 the
    # tautology phi : phi, and line 3 rewrites phi along line 1
    phi, psi, x, eta = case
    verdict = check_derivation([
        DerivationLine(Sequent.of(Eq(x, eta)), "axiom"),
        DerivationLine(Sequent.of(phi, phi), "axiom"),
        DerivationLine(Sequent.of(psi, phi), "rewrite", (1, 2)),
    ])
    if reference_replaceable(phi, psi, x, eta) or reference_replaceable(phi, psi, eta, x):
        assert verdict == DerivationVerdict(True)
    else:
        assert verdict == DerivationVerdict(False, 3, "conclusion is not a rewrite of the cited line")

