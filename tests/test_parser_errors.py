"""The error class and exact message of each parser's three shared failures:
a character no token starts with, a token other than the one the grammar
expects, and input left after a complete parse."""
import pytest

from toposlang.local.syntax import LsParseError, parse_term, parse_type
from toposlang.prop.syntax import ParseError, parse_formula, parse_interval_set


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
])
def test_parser_error_class_and_message(parse, text, error, message):
    with pytest.raises(error) as caught:
        parse(text)
    assert type(caught.value) is error
    assert str(caught.value) == message
