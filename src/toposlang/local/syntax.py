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

from .._lex import NAME_START, Cursor
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


# One alternative per kind of token, in the order that decides each split:
# `proj_2x` is `proj_2` then `x`, and `proj_x` a name.
_TOKEN = re.compile(r"""
    <=>
  | proj_\d+
  | [A-Za-z_][A-Za-z0-9_']*
  | \d+
  | [{}()<>,|:*&=]
""", re.VERBOSE)

_KEYWORDS = frozenset({"in", "true", "P", "Omega", "Sigma", "R"})


def _is_proj(tok: str) -> bool:
    return tok[:5] == "proj_" and tok[5:].isdecimal()


def _is_name(tok: str) -> bool:
    return tok[:1] in NAME_START and tok not in _KEYWORDS and not _is_proj(tok)


class _Parser(Cursor):
    token, error = _TOKEN, LsParseError

    def __init__(self, text: str, signature: Optional[Signature]):
        super().__init__(text)
        self.signature = signature

    def shown(self, i: int) -> str:
        """A projection is quoted by its index."""
        tok = self.toks[i]
        return tok[5:] if _is_proj(tok) else tok

    def take(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    # ---- types ---------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        factors = [self.type_atom()]
        while self.toks[self.i] == "*":
            self.i += 1
            factors.append(self.type_atom())
        return product_type(factors)

    def type_atom(self) -> TypeExpr:
        tok = self.take()
        if tok == "1":
            return UNIT
        if tok == "Omega":
            return OMEGA
        if tok == "Sigma":
            return SIGMA
        if tok == "R":
            return RQ
        if tok == "P":
            self.expect("(")
            inner = self.type_expr()
            self.expect(")")
            return PowerType(inner)
        if tok == "(":
            inner = self.type_expr()
            self.expect(")")
            return inner
        if _is_name(tok):
            return GroundType(tok)
        raise self.expected("a type", self.i - 1)

    # ---- terms ---------------------------------------------------------
    # term := conj ("<=>" conj)?          bi-implication is Omega equality
    # conj := rel ("&" rel)*
    # rel  := app (("=" | "in") app)?
    # app  := "*" | "true" | name "(" term ")" | name | "<" term {"," term} ">"
    #       | proj_i "(" term ")" | "{" name ":" type "|" term "}" | "(" term ")"

    def term(self) -> Term:
        left = self.conj()
        if self.toks[self.i] == "<=>":
            self.i += 1
            return Eq(left, self.conj())
        return left

    def conj(self) -> Term:
        node = self.rel()
        while self.toks[self.i] == "&":
            self.i += 1
            node = AndT(node, self.rel())
        return node

    def rel(self) -> Term:
        left = self.app()
        tok = self.toks[self.i]
        if tok == "=":
            self.i += 1
            return Eq(left, self.app())
        if tok == "in":
            self.i += 1
            return In(left, self.app())
        return left

    def app(self) -> Term:
        start = self.i
        tok = self.take()
        if tok == "*":
            return STAR
        if tok == "true":
            return TRUE
        if _is_proj(tok):
            self.expect("(")
            inner = self.term()
            self.expect(")")
            return Proj(int(tok[5:]), inner)
        if tok == "<":
            items = [self.term()]
            while self.toks[self.i] == ",":
                self.i += 1
                items.append(self.term())
            self.expect(">")
            if len(items) < 2:
                raise LsParseError(f"tuples need at least two components "
                                   f"(column {self.column(start)})")
            return Tup(tuple(items))
        if tok == "{":
            if not _is_name(self.toks[self.i]):
                raise self.expected(repr("name"), self.i)
            name = self.take()
            self.expect(":")
            vtype = self.type_expr()
            self.expect("|")
            body = self.term()
            self.expect("}")
            return Compr(Var(name, vtype), body)
        if tok == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if _is_name(tok):
            if self.toks[self.i] == "(":
                if self.signature is not None and tok not in self.signature.symbols:
                    raise LsParseError(f"unknown function symbol {tok!r} at column "
                                       f"{self.column(start)}")
                self.i += 1
                arg = self.term()
                self.expect(")")
                return App(tok, arg)
            return Var(tok)
        raise self.expected("a term", start)


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
