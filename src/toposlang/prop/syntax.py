"""Grammar, parser and canonical printer for the propositional language.

Primitive propositions assert that a named quantity takes a value inside an
interval set ("A in [2,5]"); bare identifiers are abstract propositional
atoms used when reasoning about validity rather than a concrete system.

Tokens: identifiers, `in`, `~`, `&`, `|`, `->`, parentheses, and interval
literals built from `[ ] ( ) ,`, rational numbers, `-inf`, `+inf`, the
union separator `u` and the literal `empty`.  Precedence is ~ over & over |
over ->, with -> right-associative.  The printer emits the minimal-paren
canonical form and is the inverse of the parser on normal forms.

`fold_formula` is the one structural recursion of formulas: a semantics is
fixed by its values at the leaves and one operation per connective.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .._lex import Cursor
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


def fold_formula(node: Formula, leaf, negate, binary):
    """`leaf(n)` at a Prim or Atom, `negate(v)` at a Not, `binary(former, v,
    w)` at an And, Or or Implies; children before parent, left before right.
    TypeError on a node that is not a formula.  Three walkers keep their own
    recursion: `format_formula` needs its parent's precedence, the countermodel
    check `KripkeModel.forces` stays independent of the code it confirms, and
    `proofs._match` walks two formulas in lockstep."""
    def walk(n):
        if isinstance(n, (Prim, Atom)):
            return leaf(n)
        if isinstance(n, Not):
            return negate(walk(n.operand))
        if isinstance(n, (And, Or, Implies)):
            return binary(type(n), walk(n.left), walk(n.right))
        raise TypeError(f"not a formula node: {n!r}")

    return walk(node)


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<num>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_@']*)
  | (?P<sym>[~&|()\[\],+\-])
""", re.VERBOSE)

_RESERVED = frozenset({"in", "u", "empty", "inf"})

# The binary connectives, loosest first: token -> (former, precedence,
# right-associative).  The parser and the printer both read this table.
_BINARY = {"->": (Implies, 1, True), "|": (Or, 2, False), "&": (And, 3, False)}
_SYMBOL = {former: (token, prec, right) for token, (former, prec, right) in _BINARY.items()}
# `~` binds tighter than every binary connective; atoms tighter still.
_NOT = 4


class _Parser(Cursor):
    token, reserved, error = _TOKEN, _RESERVED, ParseError

    def fail(self, what: str):
        _, v, pos = self.peek()
        raise ParseError(f"expected {what} at column {pos}, got {v!r}")

    def formula(self, floor: int) -> Formula:
        """A formula whose binary connectives, outside parentheses, bind at
        precedence `floor` or tighter: precedence climbing over _BINARY."""
        node = self.unary()
        while True:
            entry = _BINARY.get(self.peek()[1])
            if entry is None or entry[1] < floor:
                return node
            self.next()
            former, prec, right = entry
            node = former(node, self.formula(prec + (not right)))

    def unary(self) -> Formula:
        if self.at_sym("~"):
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, _ = self.peek()
        if (kind, value) == ("sym", "("):
            self.next()
            node = self.formula(0)
            self.expect("sym", ")")
            return node
        if kind == "name":
            self.next()
            if self.peek()[0] == "in":
                self.next()
                return Prim(value, self.interval_set())
            return Atom(value)
        self.fail("a formula")

    # interval set := "empty" | interval ("u" interval)*
    def interval_set(self) -> IntervalSet:
        if self.peek()[0] == "empty":
            self.next()
            return IntervalSet.empty()
        parts = [self.interval()]
        while self.peek()[0] == "u":
            self.next()
            parts.append(self.interval())
        return IntervalSet.from_parts(parts)

    def interval(self) -> Interval:
        kind, value, pos = self.next()
        if (kind, value) not in (("sym", "["), ("sym", "(")):
            raise ParseError(f"expected an interval at column {pos}, got {value!r}")
        lo_closed = value == "["
        lo = self.bound("lower")
        self.expect("sym", ",")
        hi = self.bound("upper")
        kind, value, pos = self.next()
        if (kind, value) not in (("sym", "]"), ("sym", ")")):
            raise ParseError(f"unterminated interval at column {pos}, got {value!r}")
        hi_closed = value == "]"
        if lo is None and lo_closed:
            raise ParseError("interval cannot be closed at -inf")
        if hi is None and hi_closed:
            raise ParseError("interval cannot be closed at +inf")
        return Interval(lo, lo_closed, hi, hi_closed)

    def bound(self, side: str) -> Fraction | None:
        """A rational, or None for inf; an inf signed for the other side of
        the interval is refused."""
        kind, value, start = self.next()
        sign, pos = "", start
        if (kind, value) in (("sym", "-"), ("sym", "+")):
            sign = value
            kind, value, pos = self.next()
        if kind == "inf":
            if sign == ("+" if side == "lower" else "-"):
                raise ParseError(f"{sign}inf cannot be the {side} bound at column {start}")
            return None
        if kind == "num":
            try:
                return -Fraction(value) if sign == "-" else Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed interval bound at column {pos}: {exc}") from None
        raise ParseError(f"expected a rational or inf at column {pos}, got {value!r}")


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
