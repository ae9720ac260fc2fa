from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposlang.cli import _formula_ast
from toposlang.heyting import powerset_algebra
from toposlang.intervals import IntervalSet
from toposlang.prop.decide import _Table, _translate
from toposlang.prop.proofs import instantiate
from toposlang.prop.semantics import (
    ClassicalSystem,
    SemanticsError,
    classical_rep,
    pl_represent,
    truth_value,
)
from toposlang.prop.syntax import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    ParseError,
    Prim,
    fold_formula,
    format_formula,
    leaf_key,
    leaves,
    parse_formula,
    parse_interval_set,
)


def iv(lo, lc, hi, hc):
    return IntervalSet.interval(lo, lc, hi, hc)


def test_parse_conjunction_of_primitives():
    got = parse_formula("A in [2,5] & B in (0,1)")
    assert got == And(Prim("A", iv(2, True, 5, True)), Prim("B", iv(0, False, 1, False)))


def test_precedence_tightest_negation_right_assoc_arrow():
    got = parse_formula("~A in [0,1] -> B in [1,2] -> C in [2,3]")
    assert got == Implies(Not(Prim("A", iv(0, True, 1, True))),
                          Implies(Prim("B", iv(1, True, 2, True)),
                                  Prim("C", iv(2, True, 3, True))))


def test_parse_two_interval_union():
    got = parse_formula("A in [1,2) u (3,+inf)")
    want = iv(1, True, 2, False).union(IntervalSet.interval(3, False, None, False))
    assert got == Prim("A", want)


def test_parse_abstract_atoms_and_grouping():
    assert parse_formula("((a->b)->a)->a") == Implies(
        Implies(Implies(Atom("a"), Atom("b")), Atom("a")), Atom("a"))
    assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a & (b | c)") == And(Atom("a"), Or(Atom("b"), Atom("c")))


def test_parse_rational_and_negative_bounds():
    got = parse_formula("A in (-3/2, 2.5]")
    assert got == Prim("A", iv(Fraction(-3, 2), False, Fraction(5, 2), True))
    assert parse_formula("A in (-inf, 0]") == Prim("A", iv(None, False, 0, True))


# Number tokens as the lexer cuts them, digits of any script included, and
# with the shapes `Fraction` refuses: zero denominators and decimals over
# an integer.
NUMBER_TOKENS = st.one_of(
    st.from_regex(r"\d{1,6}(\.\d{1,3})?(/\d{1,3})?", fullmatch=True),
    st.tuples(st.integers(0, 10 ** 6), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(0, 10 ** 30).map(str))


@settings(max_examples=300, deadline=None)
@given(NUMBER_TOKENS, st.sampled_from(["", "-", "+"]))
def test_bounds_read_as_fraction_reads_their_text(tok, sign):
    text = f"[{sign}{tok},{sign}{tok}]"
    try:
        want = -Fraction(tok) if sign == "-" else Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as err:
            parse_interval_set(text)
        assert str(err.value) == f"malformed interval bound at column {1 + len(sign)}: {exc}"
        return
    part = parse_interval_set(text).parts[0]
    assert (part.lo, part.hi) == (want, want)
    assert type(part.lo) is Fraction and repr(part.lo) == repr(want)


def test_a_zero_denominator_is_reported_as_fraction_reports_it():
    for text, column in (("[3/0,4]", 1), ("[-3/0,4]", 2), ("[1,+7/00]", 4)):
        with pytest.raises(ParseError) as err:
            parse_interval_set(text)
        numerator = text[column:].split("/")[0]
        assert str(err.value) == \
            f"malformed interval bound at column {column}: Fraction({int(numerator)}, 0)"


def test_non_normalized_intervals_are_normalized():
    got = parse_formula("A in [1,2] u [2,5]")
    assert got == Prim("A", iv(1, True, 5, True))
    assert parse_formula("A in (3,3)") == Prim("A", IntervalSet.empty())
    assert parse_formula("A in empty") == Prim("A", IntervalSet.empty())


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("A in [1,2")
    with pytest.raises(ParseError):
        parse_formula("A in [2,#]")
    with pytest.raises(ParseError):
        parse_formula("& a")
    with pytest.raises(ParseError):
        parse_formula("a b")
    with pytest.raises(ParseError):
        parse_formula("A in [1/0, 2]")
    with pytest.raises(ParseError):
        parse_formula("A in [-inf, 2]")  # closed at -inf
    with pytest.raises(ParseError):
        parse_interval_set("[1,2] [3,4]")


def test_printer_is_canonical_and_minimal():
    cases = [
        "a & b | c",
        "a & (b | c)",
        "(a -> b) -> a",
        "a -> b -> c",
        "~(a & b)",
        "~~a",
        "A in [1,2) u (3,+inf)",
        "A in empty -> B in (-inf,+inf)",
    ]
    for text in cases:
        assert format_formula(parse_formula(text)) == text


def test_leaves_and_keys():
    f = parse_formula("a -> A in [0,1] -> a")
    assert leaves(f) == [Atom("a"), Prim("A", iv(0, True, 1, True))]
    assert leaf_key(Atom("a")) == "a"
    assert leaf_key(Prim("A", iv(0, True, 1, True))) == "A in [0,1]"


# -- random round trips --------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "A", "B", "energy", "x@t1"])
bounds = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def interval_set_st(draw):
    n = draw(st.integers(0, 2))
    out = IntervalSet.empty()
    for _ in range(n):
        lo = draw(st.one_of(st.none(), bounds))
        hi = draw(st.one_of(st.none(), bounds))
        out = out.union(IntervalSet.interval(
            lo, lo is not None and draw(st.booleans()),
            hi, hi is not None and draw(st.booleans())))
    return out


def formulas_over(leaf):
    """Formulas of at most 12 leaves drawn from `leaf`."""
    return st.recursive(leaf, lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
    ), max_leaves=12)


formula_st = formulas_over(
    st.one_of(st.builds(Atom, names), st.builds(Prim, names, interval_set_st())))


@settings(max_examples=300, deadline=None)
@given(formula_st)
def test_parse_inverts_printer(formula):
    assert parse_formula(format_formula(formula)) == formula


# -- the fold and the functions built on it ------------------------------------

def test_fold_visits_children_before_parent_and_left_before_right():
    trace = []

    def leaf(n):
        trace.append(leaf_key(n))
        return leaf_key(n)

    def negate(v):
        trace.append("~")
        return f"~{v}"

    def binary(former, v, w):
        trace.append(former.__name__)
        return f"({v} {former.__name__} {w})"

    got = fold_formula(parse_formula("~a & (b -> A in [0,1]) | c"), leaf, negate, binary)
    assert got == "((~a And (b Implies A in [0,1])) Or c)"
    assert trace == ["a", "~", "b", "A in [0,1]", "Implies", "And", "c", "Or"]


def test_a_subclass_of_a_formula_class_folds_as_its_class():
    class Both(And):
        pass

    class Reading(Prim):
        pass

    formula = Not(Both(Reading("A", IntervalSet.full()), Atom("a")))
    got = fold_formula(formula, lambda n: type(n).__name__, lambda v: ("~", v),
                       lambda former, v, w: (former.__name__, v, w))
    assert got == ("~", ("Both", "Reading", "Atom"))


PRIM = Prim("A", IntervalSet.full())
ONE_STATE = ClassicalSystem(("s",), {"A": {"s": Fraction(1)}})
FOLDS = {
    "pl_represent": lambda f: pl_represent(f, {PRIM: frozenset({"s"})},
                                           powerset_algebra(["s"])),
    "truth_value": lambda f: truth_value(f, "s", ONE_STATE),
    "decide._translate": lambda f: _translate(f, _Table()),
    "cli._formula_ast": _formula_ast,
    "leaves": leaves,
    "instantiate": lambda f: instantiate(f, {}),
}


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_folds_refuse_a_node_that_is_not_a_formula(name):
    fold = FOLDS[name]
    fold(And(PRIM, Not(PRIM)))
    # Unparsed text where a formula belongs, under a connective.
    with pytest.raises(TypeError, match=r"not a formula node: 'A in \[0,1\]'"):
        fold(And(PRIM, "A in [0,1]"))


def test_the_first_unassigned_leaf_reported_is_the_leftmost():
    with pytest.raises(SemanticsError, match="name='a'"):
        pl_represent(parse_formula("a -> ~b"), {}, powerset_algebra(["s"]))
    with pytest.raises(SemanticsError, match="'a'"):
        truth_value(parse_formula("a -> ~b"), "s", ONE_STATE)


@settings(max_examples=100, deadline=None)
@given(formula_st)
def test_decide_numbers_atoms_in_leaf_order_and_each_node_after_its_parts(formula):
    t = _Table()
    root = _translate(formula, t)
    assert list(t.atoms) == list(dict.fromkeys(leaf_key(leaf) for leaf in leaves(formula)))
    assert root == len(t.op) - 1
    for i in range(1, len(t.op)):
        assert t.op[i] == 0 or (t.left[i] < i and t.right[i] < i)


# Few values, so that interval ends often meet the values states take.
small_values = st.sampled_from([-1, 0, Fraction(1, 2), 1, 2])


@st.composite
def small_interval_sets(draw):
    lo, hi = draw(st.one_of(st.none(), small_values)), draw(st.one_of(st.none(), small_values))
    return IntervalSet.interval(lo, lo is not None and draw(st.booleans()),
                                hi, hi is not None and draw(st.booleans()))


@st.composite
def systems_and_formulas(draw):
    """A system of at most 4 states and 3 quantities with small rational
    values, and a formula of primitives over its quantities."""
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 4))))
    quantities = draw(st.lists(st.sampled_from(["A", "B", "C"]),
                               min_size=1, max_size=3, unique=True))
    system = ClassicalSystem(states, {q: {s: draw(small_values) for s in states}
                                      for q in quantities})
    formula = draw(formulas_over(st.builds(Prim, st.sampled_from(quantities),
                                           small_interval_sets())))
    return system, formula


@settings(max_examples=100, deadline=None)
@given(systems_and_formulas())
def test_truth_at_a_state_is_membership_in_the_classical_representation(drawn):
    system, formula = drawn
    subset = classical_rep(system).represent(formula)
    for state in system.states:
        assert truth_value(formula, state, system) == (state in subset)
