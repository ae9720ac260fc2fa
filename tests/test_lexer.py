"""The one-call tokenizer (`_lex.Cursor`) and the two parsers on it, against
the match-loop cursor and parsers they replaced (`tests/helpers.py`): on
every input, an equal tree, or an exception of the same class with the
same message."""
import functools
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_parse_formula,
    reference_parse_interval_set,
    reference_parse_term,
    reference_parse_type,
)
from toposlang.intervals import IntervalSet
from toposlang.local.syntax import (
    STAR,
    TRUE,
    AndT,
    App,
    Compr,
    Eq,
    In,
    Proj,
    Tup,
    Var,
    format_term,
    parse_term,
    parse_type,
)
from toposlang.local.types import OMEGA, RQ, SIGMA, GroundType, PowerType, product_type
from toposlang.prop.syntax import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    Prim,
    _Parser,
    format_formula,
    parse_formula,
    parse_interval_set,
)

PARSERS = ((parse_formula, reference_parse_formula),
           (parse_interval_set, reference_parse_interval_set),
           (parse_term, reference_parse_term),
           (parse_type, reference_parse_type))


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def assert_same(text, parsers=PARSERS):
    for parse, reference in parsers:
        assert outcome(parse, text) == outcome(reference, text), (parse.__name__, text)


# -- inputs ---------------------------------------------------------------------------

WHITESPACE = ("", " ", "  ", "\t", "\n", "\xa0", "\x1c", "\u2028")
STRAY = ("$", ".", "#", "^", "'", "@", "\u00e9", "\u0663")
FORMULA_TOKENS = ("->", "-", "+", "~", "&", "|", "(", ")", "[", "]", ",", "in", "u", "empty",
                  "inf", "a", "A", "x@t1", "b'", "_", "0", "1", "2.5", "3/2", "1/0", "07")
TERM_TOKENS = ("<=>", "<", ">", "=", "{", "}", "(", ")", ",", "|", ":", "*", "&", "in",
               "true", "P", "Omega", "Sigma", "R", "x", "f", "S", "proj_", "proj_1", "proj_12",
               "proj_x", "proj", "_", "1", "2", "0")


def token_strings(alphabet):
    """Fragments of the alphabet and stray characters, joined by whitespace
    or by nothing, so that tokens meet at `proj_`/digit/name boundaries."""
    piece = st.sampled_from(alphabet) | st.sampled_from(STRAY)
    return st.lists(st.tuples(piece, st.sampled_from(WHITESPACE)), max_size=12).map(
        lambda pairs: "".join(p + w for p, w in pairs))


NAMES = st.sampled_from(["a", "b", "A", "energy", "x@t1", "b'"])
BOUNDS = st.fractions(min_value=-5, max_value=5, max_denominator=3)
INTERVALS = st.builds(
    lambda lo, lc, hi, hc: IntervalSet.interval(lo, lo is not None and lc, hi, hi is not None and hc),
    st.none() | BOUNDS, st.booleans(), st.none() | BOUNDS, st.booleans())
INTERVAL_SETS = st.lists(INTERVALS, max_size=2).map(
    lambda sets: functools.reduce(IntervalSet.union, sets, IntervalSet.empty()))
FORMULAS = st.recursive(
    st.builds(Atom, NAMES) | st.builds(Prim, NAMES, INTERVAL_SETS),
    lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner)
    | st.builds(Or, inner, inner) | st.builds(Implies, inner, inner),
    max_leaves=10)

TYPES = st.recursive(
    st.sampled_from((SIGMA, RQ, OMEGA, GroundType("S"))),
    lambda inner: st.builds(PowerType, inner)
    | st.lists(inner, min_size=2, max_size=3).map(product_type),
    max_leaves=4)
TERM_NAMES = st.sampled_from(("x", "y", "f", "proj_x"))
TERMS = st.recursive(
    st.builds(Var, TERM_NAMES) | st.just(STAR) | st.just(TRUE),
    lambda inner: st.builds(App, st.sampled_from(("f", "A")), inner)
    | st.builds(Tup, st.lists(inner, min_size=2, max_size=3).map(tuple))
    | st.builds(Proj, st.integers(1, 12), inner)
    | st.builds(Compr, st.builds(Var, TERM_NAMES, TYPES), inner)
    | st.builds(Eq, inner, inner) | st.builds(In, inner, inner)
    | st.builds(AndT, inner, inner),
    max_leaves=10)


def respaced(text, spaces):
    """The text with each single space replaced by a drawn whitespace run."""
    parts = text.split(" ")
    return parts[0] + "".join(w + p for w, p in zip(spaces, parts[1:]))


# -- differential tests ---------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(FORMULAS, st.lists(st.sampled_from(WHITESPACE[1:]), max_size=40))
def test_printed_formulas_parse_as_with_the_match_loop(formula, spaces):
    text = format_formula(formula)
    assert_same(text, PARSERS[:1])
    assert_same(respaced(text, spaces))
    if isinstance(formula, Prim):
        assert_same(str(formula.delta), PARSERS[1:2])


@settings(max_examples=200, deadline=None)
@given(TERMS, TYPES, st.lists(st.sampled_from(WHITESPACE[1:]), max_size=40))
def test_printed_terms_and_types_parse_as_with_the_match_loop(term, vtype, spaces):
    text = format_term(term)
    assert_same(text, PARSERS[2:3])
    assert_same(respaced(text, spaces))
    assert_same(str(vtype), PARSERS[3:])


@settings(max_examples=400, deadline=None)
@given(token_strings(FORMULA_TOKENS))
@example("A $ B")
@example("a in [0,1] u (2,+inf) .")
@example("a in (1, -inf)")
@example("a in [1/0, 2]")
@example("a in [1.5/2, 2]")
@example("a\xa0&\x1cb\u2028->\tc")
@example("  ")
@example("")
@example("a in [\u0663,4]")
def test_formula_alphabet_strings_parse_as_with_the_match_loop(text):
    assert_same(text)


@settings(max_examples=400, deadline=None)
@given(token_strings(TERM_TOKENS))
@example("proj_2x(y)")
@example("proj_x(y)")
@example("proj_(y)")
@example("proj_2(x) proj_3")
@example("proj_\u0663(x)")
@example("{ in : Sigma | true }")
@example("{ proj_1 : Sigma | true }")
@example("x # y")
@example("Sigma ^ R")
@example("< x >")
@example("P(Sigma * 1) * 01")
def test_term_alphabet_strings_parse_as_with_the_match_loop(text):
    assert_same(text)


# -- the tokenizer itself -------------------------------------------------------------

def test_regex_and_str_whitespace_agree_on_every_code_point():
    everything = "".join(map(chr, range(0x110000)))
    assert re.sub(r"\s", "", everything) == "".join(everything.split())


def test_tokens_are_strings_with_an_empty_sentinel():
    assert _Parser("a->b in (1/2,+inf)").toks == [
        "a", "->", "b", "in", "(", "1/2", ",", "+", "inf", ")", ""]
    assert _Parser(" \xa0 ").toks == [""]
