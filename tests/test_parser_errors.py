"""The error class and exact message of each parser's three shared failures:
a character no token starts with, a token other than the one the grammar
expects, and input left after a complete parse; and of an interval bound
whose signed infinity lies on the wrong side."""
import pytest

from toposlang.cli import main
from toposlang.intervals import Interval, IntervalSet
from toposlang.local.syntax import LsParseError, parse_term, parse_type
from toposlang.prop.syntax import ParseError, Prim, parse_formula, parse_interval_set


@pytest.mark.parametrize("parse, text, error, message", [
    (parse_formula, "A $ B", ParseError, "lexical error at column 2: '$ B'"),
    (parse_formula, "(A & B", ParseError, "expected ')' at column 6, got ''"),
    (parse_formula, "A B", ParseError, "trailing input at column 2: 'B'"),
    (parse_interval_set, "[0,1] ? ", ParseError, "lexical error at column 6: '? '"),
    (parse_interval_set, "[0 1]", ParseError, "expected ',' at column 3, got '1'"),
    (parse_interval_set, "[0,1] [2,3]", ParseError, "trailing input at column 6: '['"),
    (parse_term, "x # y", LsParseError, "lexical error at column 2: '# y'"),
    (parse_term, "{ x : Sigma y }", LsParseError, "expected '|' at column 12, got 'y'"),
    (parse_term, "x y", LsParseError, "trailing input at column 2: 'y'"),
    (parse_term, "proj_2(x) proj_3", LsParseError, "trailing input at column 10: '3'"),
    (parse_type, "Sigma ^ R", LsParseError, "lexical error at column 6: '^ R'"),
    (parse_type, "P(Sigma", LsParseError, "expected ')' at column 7, got ''"),
    (parse_type, "Sigma R", LsParseError, "trailing input at column 6: 'R'"),
    (parse_type, "proj_2", LsParseError, "expected a type at column 0, got '2'"),
    (parse_formula, "a in (1, -inf)", ParseError, "-inf cannot be the upper bound at column 9"),
    (parse_formula, "a in (+inf, 3)", ParseError, "+inf cannot be the lower bound at column 6"),
    (parse_formula, "a in (-inf, -inf)", ParseError,
     "-inf cannot be the upper bound at column 12"),
    (parse_interval_set, "[0,1] u (+inf,+inf)", ParseError,
     "+inf cannot be the lower bound at column 9"),
])
def test_parser_error_class_and_message(parse, text, error, message):
    with pytest.raises(error) as caught:
        parse(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("text, lo, hi", [
    ("(-inf, 3)", None, 3), ("(inf, 3)", None, 3), ("(1, +inf)", 1, None), ("(1, inf)", 1, None),
    ("(-inf, +inf)", None, None), ("(inf, inf)", None, None),
])
def test_bare_and_rightly_signed_infinities_parse(text, lo, hi):
    want = IntervalSet.from_parts([Interval(lo, False, hi, False)])
    assert parse_interval_set(text) == want
    assert parse_formula(f"a in {text}") == Prim("a", want)


def test_wrongly_signed_infinity_is_bad_input_on_the_command_line(capsys):
    assert main(["pl", "parse", "a in (1, -inf)"]) == 2
    assert "-inf cannot be the upper bound at column 9" in capsys.readouterr().out
