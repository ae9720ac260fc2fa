"""Grammar, parser and canonical printer for the propositional language.

Primitive propositions assert that a named quantity takes a value inside an
interval set ("A in [2,5]"); bare identifiers are abstract propositional
atoms used when reasoning about validity rather than a concrete system.

Tokens are strings (see `_lex`): identifiers, `in`, `~`, `&`, `|`, `->`,
parentheses, and interval literals built from `[ ] ( ) ,`, rational
numbers, `-inf`, `+inf`, the union separator `u` and the literal `empty`;
the parser tells them apart by their text.  Precedence is ~ over & over |
over ->, with -> right-associative.  The printer emits the minimal-paren
canonical form and is the inverse of the parser on normal forms.

`fold_formula` is the one structural recursion of formulas: a semantics is
fixed by its values at the leaves and one operation per connective.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .._lex import NAME_START, Cursor
from .._record import record
from ..errors import InputError
from ..intervals import Interval, IntervalSet


class ParseError(InputError):
    pass


@record(frozen=True)
class Prim:
    quantity: str
    delta: IntervalSet


@record(frozen=True)
class Atom:
    name: str


@record(frozen=True)
class Not:
    operand: "Formula"


@record(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@record(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@record(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Prim, Atom, Not, And, Or, Implies]


# The case of each formula class in `fold_formula`: 1 a leaf, 2 a negation,
# 3 a binary connective.  In the order of the isinstance tests it falls
# back on for a subclass.
_FOLD_CASE = {Prim: 1, Atom: 1, Not: 2, And: 3, Or: 3, Implies: 3}


def _inherited_case(n) -> int:
    """The fold case of a node whose class is not itself a formula class:
    that of the first formula class in `_FOLD_CASE` it is an instance of."""
    for former, case in _FOLD_CASE.items():
        if isinstance(n, former):
            return case
    raise TypeError(f"not a formula node: {n!r}")


def fold_formula(node: Formula, leaf, negate, binary):
    """`leaf(n)` at a Prim or Atom, `negate(v)` at a Not, `binary(former, v,
    w)` at an And, Or or Implies, `former` being the node's class; children
    before parent, left before right.  Each node is dispatched on its exact
    class with one dict lookup; an instance of a subclass folds as its
    formula class does.  TypeError on a node that is not a formula.  Three
    walkers keep their own recursion: `format_formula` needs its parent's
    precedence, the countermodel check `KripkeModel.forces` stays
    independent of the code it confirms, and `proofs._match` walks two
    formulas in lockstep."""
    case_of = _FOLD_CASE.get

    def walk(n):
        case = case_of(type(n)) or _inherited_case(n)
        if case == 1:
            return leaf(n)
        if case == 2:
            return negate(walk(n.operand))
        return binary(type(n), walk(n.left), walk(n.right))

    return walk(node)


# One alternative per kind of token, in the order that decides each split:
# the arrow, numbers, names (reserved words among them) and symbols.
_TOKEN = re.compile(r"""
    ->
  | \d+(?:\.\d+)?(?:/\d+)?
  | [A-Za-z_][A-Za-z0-9_@']*
  | [~&|()\[\],+\-]
""", re.VERBOSE)

_RESERVED = frozenset({"in", "u", "empty", "inf"})

# The binary connectives, loosest first: token text -> (former, precedence,
# right-associative).  The parser and the printer both read this table.
_BINARY = {"->": (Implies, 1, True), "|": (Or, 2, False), "&": (And, 3, False)}
_SYMBOL = {former: (token, prec, right) for token, (former, prec, right) in _BINARY.items()}
# `~` binds tighter than every binary connective; atoms tighter still.
_NOT = 4


class _Parser(Cursor):
    token, error = _TOKEN, ParseError

    def formula(self, floor: int) -> Formula:
        """A formula whose binary connectives, outside parentheses, bind at
        precedence `floor` or tighter: precedence climbing over _BINARY."""
        node = self.unary()
        toks = self.toks
        while True:
            entry = _BINARY.get(toks[self.i])
            if entry is None or entry[1] < floor:
                return node
            self.i += 1
            former, prec, right = entry
            node = former(node, self.formula(prec + (not right)))

    def unary(self) -> Formula:
        toks = self.toks
        tok = toks[self.i]
        self.i += 1
        if tok == "~":
            return Not(self.unary())
        if tok == "(":
            node = self.formula(0)
            self.expect(")")
            return node
        if tok[:1] in NAME_START and tok not in _RESERVED:
            if toks[self.i] == "in":
                self.i += 1
                return Prim(tok, self.interval_set())
            return Atom(tok)
        raise self.expected("a formula", self.i - 1)

    # interval set := "empty" | interval ("u" interval)*
    def interval_set(self) -> IntervalSet:
        toks = self.toks
        if toks[self.i] == "empty":
            self.i += 1
            return IntervalSet.empty()
        parts = [self.interval()]
        while toks[self.i] == "u":
            self.i += 1
            parts.append(self.interval())
        return IntervalSet.from_parts(parts)

    def interval(self) -> Interval:
        toks, i = self.toks, self.i
        lo_closed = toks[i] == "["
        if not lo_closed and toks[i] != "(":
            raise self.expected("an interval", i)
        self.i = i + 1
        lo = self.bound("lower")
        self.expect(",")
        hi = self.bound("upper")
        i = self.i
        hi_closed = toks[i] == "]"
        if not hi_closed and toks[i] != ")":
            raise ParseError(f"unterminated interval at column {self.column(i)}, "
                             f"got {toks[i]!r}")
        self.i = i + 1
        if lo is None and lo_closed:
            raise ParseError("interval cannot be closed at -inf")
        if hi is None and hi_closed:
            raise ParseError("interval cannot be closed at +inf")
        return Interval(lo, lo_closed, hi, hi_closed)

    def bound(self, side: str) -> Fraction | None:
        """A rational, or None for inf; an inf signed for the other side of
        the interval is refused.  An integer or p/q token is read with `int`,
        a decimal one with `Fraction`'s string parser: both give the value
        and the error text `Fraction(tok)` gives."""
        toks = self.toks
        start = i = self.i
        sign = toks[i]
        if sign == "-" or sign == "+":
            i += 1
        else:
            sign = ""
        tok = toks[i]
        self.i = i + 1
        if tok == "inf":
            if sign == ("+" if side == "lower" else "-"):
                raise ParseError(f"{sign}inf cannot be the {side} bound at column "
                                 f"{self.column(start)}")
            return None
        if tok[:1].isdecimal():
            p, _, q = tok.partition("/")
            try:
                if "." in p:
                    value = Fraction(tok)
                elif q:
                    value = Fraction(int(p), int(q))
                else:
                    value = Fraction(int(p))
                return -value if sign == "-" else value
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed interval bound at column {self.column(i)}: "
                                 f"{exc}") from None
        raise self.expected("a rational or inf", i)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    node = p.formula(0)
    p.finish()
    return node


def parse_interval_set(text: str) -> IntervalSet:
    p = _Parser(text)
    got = p.interval_set()
    p.finish()
    return got


def format_formula(node: Formula) -> str:
    """Minimal-paren canonical form; parse(format(x)) == x."""
    def walk(n, required: int) -> str:
        if isinstance(n, Prim):
            return f"{n.quantity} in {n.delta}"
        if isinstance(n, Atom):
            return n.name
        if isinstance(n, Not):
            prec, body = _NOT, "~" + walk(n.operand, _NOT)
        else:
            symbol, prec, right = _SYMBOL[type(n)]
            body = f"{walk(n.left, prec + right)} {symbol} {walk(n.right, prec + (not right))}"
        return "(" + body + ")" if prec < required else body

    return walk(node, 0)


def leaves(node: Formula) -> list:
    """Distinct primitive leaves (Prim or Atom), in first-occurrence order."""
    seen: dict = {}
    fold_formula(node, seen.setdefault, lambda v: v, lambda former, v, w: w)
    return list(seen)


def leaf_key(leaf) -> str:
    """Stable string key for a primitive leaf (used by countermodels)."""
    if isinstance(leaf, Atom):
        return leaf.name
    return format_formula(leaf)
