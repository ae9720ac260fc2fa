"""Terms of the typed local language: AST, parser and canonical printer.

Core term formers: variables, the unit point `*`, application of a declared
function symbol, tuples `<t1,...,tn>`, projections `proj_i(t)`, set
comprehension `{ x : T | phi }`, equality `t1 = t2` and membership
`t1 in t2`.  Conjunction `&`, the constant `true` and bi-implication `<=>`
are surface sugar: `desugar` rewrites them into the core (equality of truth
values does the work, see `check.desugar_connectives`).

Every term former carries enough typing data that inference needs only a
variable context and the signature's function symbols.
"""
from __future__ import annotations

import re
from typing import Mapping, Optional, Union

from .._lex import Cursor
from .._record import record
from ..errors import InputError
from .types import (
    OMEGA,
    RQ,
    SIGMA,
    UNIT,
    GroundType,
    PowerType,
    TypeExpr,
    product_type,
)


class LsParseError(InputError):
    pass


@record(frozen=True)
class Var:
    name: str
    vtype: Optional[TypeExpr] = None


@record(frozen=True)
class Star:
    pass


@record(frozen=True)
class App:
    symbol: str
    arg: "Term"


@record(frozen=True)
class Tup:
    items: tuple["Term", ...]


@record(frozen=True)
class Proj:
    index: int  # 1-based
    item: "Term"


@record(frozen=True)
class Compr:
    var: Var          # binder, vtype always set
    body: "Term"      # type Omega


@record(frozen=True)
class Eq:
    left: "Term"
    right: "Term"


@record(frozen=True)
class In:
    element: "Term"
    container: "Term"


@record(frozen=True)
class TrueLit:
    pass


@record(frozen=True)
class AndT:
    left: "Term"
    right: "Term"


Term = Union[Var, Star, App, Tup, Proj, Compr, Eq, In, TrueLit, AndT]

STAR = Star()
TRUE = TrueLit()


@record(frozen=True)
class Signature:
    """Function symbols with their signatures, plus user ground types.

    The state and quantity-value grounds are always present; at least one
    symbol from state to quantity-value is required.
    """
    symbols: Mapping[str, tuple[TypeExpr, TypeExpr]]
    grounds: tuple[str, ...] = ()

    def __post_init__(self):
        if not any(dom == SIGMA and cod == RQ for dom, cod in self.symbols.values()):
            raise InputError("signature needs at least one symbol Sigma -> R")
        for name in self.grounds:
            if name in ("1", "Omega", "Sigma", "R", "P"):
                raise InputError(f"ground type name {name!r} is reserved")

    def quantity_symbols(self) -> list[str]:
        return [name for name, (dom, cod) in sorted(self.symbols.items())
                if dom == SIGMA and cod == RQ]


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<iff><=>)
  | proj_(?P<proj>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>\d+)
  | (?P<sym>[{}()<>,|:*&=])
""", re.VERBOSE)

_KEYWORDS = frozenset({"in", "true", "P", "Omega", "Sigma", "R"})


class _Parser(Cursor):
    token, reserved, error = _TOKEN, _KEYWORDS, LsParseError

    def __init__(self, text: str, signature: Optional[Signature]):
        super().__init__(text)
        self.signature = signature

    # ---- types ---------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        factors = [self.type_atom()]
        while self.at_sym("*"):
            self.next()
            factors.append(self.type_atom())
        return product_type(factors)

    def type_atom(self) -> TypeExpr:
        kind, value, pos = self.next()
        if kind == "num" and value == "1":
            return UNIT
        if kind == "Omega":
            return OMEGA
        if kind == "Sigma":
            return SIGMA
        if kind == "R":
            return RQ
        if kind == "P":
            self.expect("sym", "(")
            inner = self.type_expr()
            self.expect("sym", ")")
            return PowerType(inner)
        if (kind, value) == ("sym", "("):
            inner = self.type_expr()
            self.expect("sym", ")")
            return inner
        if kind == "name":
            return GroundType(value)
        raise LsParseError(f"expected a type at column {pos}, got {value!r}")

    # ---- terms ---------------------------------------------------------
    # term := conj ("<=>" conj)?          bi-implication is Omega equality
    # conj := rel ("&" rel)*
    # rel  := app (("=" | "in") app)?
    # app  := "*" | "true" | name "(" term ")" | name | "<" term {"," term} ">"
    #       | proj_i "(" term ")" | "{" name ":" type "|" term "}" | "(" term ")"

    def term(self) -> Term:
        left = self.conj()
        if self.peek()[0] == "iff":
            self.next()
            return Eq(left, self.conj())
        return left

    def conj(self) -> Term:
        node = self.rel()
        while self.at_sym("&"):
            self.next()
            node = AndT(node, self.rel())
        return node

    def rel(self) -> Term:
        left = self.app()
        kind, value, _ = self.peek()
        if (kind, value) == ("sym", "="):
            self.next()
            return Eq(left, self.app())
        if kind == "in":
            self.next()
            return In(left, self.app())
        return left

    def app(self) -> Term:
        kind, value, pos = self.peek()
        if (kind, value) == ("sym", "*"):
            self.next()
            return STAR
        if kind == "true":
            self.next()
            return TRUE
        if kind == "proj":
            self.next()
            self.expect("sym", "(")
            inner = self.term()
            self.expect("sym", ")")
            return Proj(int(value), inner)
        if (kind, value) == ("sym", "<"):
            self.next()
            items = [self.term()]
            while self.at_sym(","):
                self.next()
                items.append(self.term())
            self.expect("sym", ">")
            if len(items) < 2:
                raise LsParseError(f"tuples need at least two components (column {pos})")
            return Tup(tuple(items))
        if (kind, value) == ("sym", "{"):
            self.next()
            name = self.expect("name")
            self.expect("sym", ":")
            vtype = self.type_expr()
            self.expect("sym", "|")
            body = self.term()
            self.expect("sym", "}")
            return Compr(Var(name, vtype), body)
        if (kind, value) == ("sym", "("):
            self.next()
            inner = self.term()
            self.expect("sym", ")")
            return inner
        if kind == "name":
            self.next()
            if self.at_sym("("):
                if self.signature is not None and value not in self.signature.symbols:
                    raise LsParseError(f"unknown function symbol {value!r} at column {pos}")
                self.next()
                arg = self.term()
                self.expect("sym", ")")
                return App(value, arg)
            return Var(value)
        raise LsParseError(f"expected a term at column {pos}, got {value!r}")


def parse_term(text: str, signature: Optional[Signature] = None) -> Term:
    p = _Parser(text, signature)
    node = p.term()
    p.finish()
    return node


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text, None)
    node = p.type_expr()
    p.finish()
    return node


def format_term(node: Term) -> str:
    """Canonical printing; inverse of the parser on binder-annotated terms."""
    def rel_operand(n) -> str:
        s = format_term(n)
        return f"({s})" if isinstance(n, (Eq, In, AndT)) else s

    def conj_operand(n) -> str:
        s = format_term(n)
        return f"({s})" if isinstance(n, AndT) else s

    if isinstance(node, Var):
        return node.name
    if isinstance(node, Star):
        return "*"
    if isinstance(node, TrueLit):
        return "true"
    if isinstance(node, App):
        return f"{node.symbol}({format_term(node.arg)})"
    if isinstance(node, Tup):
        return "<" + ", ".join(format_term(t) for t in node.items) + ">"
    if isinstance(node, Proj):
        return f"proj_{node.index}({format_term(node.item)})"
    if isinstance(node, Compr):
        return f"{{ {node.var.name} : {node.var.vtype} | {format_term(node.body)} }}"
    if isinstance(node, Eq):
        return f"{rel_operand(node.left)} = {rel_operand(node.right)}"
    if isinstance(node, In):
        return f"{rel_operand(node.element)} in {rel_operand(node.container)}"
    if isinstance(node, AndT):
        return f"{conj_operand(node.left)} & {conj_operand(node.right)}"
    raise TypeError(f"not a term node: {node!r}")
