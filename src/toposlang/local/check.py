"""Type inference, substitution and connective desugaring for the local language.

`infer_type` is deterministic and total on well-formed ASTs; failures raise
`LsTypeError` carrying the offending subterm.  `substitute` is
capture-avoiding: comprehension binders are renamed when the replacement
would capture.  `desugar_connectives` eliminates the surface constant
`true` into `* = *` and conjunction into equality of pairs of truth values,
after which terms consist of core formers only.

`map_children` is the one structural traversal: `free_vars`, `substitute`,
`alpha_normal`, `desugar_connectives` and the rewrite matcher of
`axioms.py` handle variables and binders themselves and leave every other
former to it.  It gives back a term whose children all come back as they
were, so a pass copies no subtree it leaves unchanged.
"""
from __future__ import annotations

from operator import is_
from typing import Callable, Mapping, Optional

from .._record import record
from ..errors import ToposlangError
from .syntax import (
    STAR,
    AndT,
    App,
    Compr,
    Eq,
    In,
    Proj,
    Signature,
    Star,
    Term,
    TrueLit,
    Tup,
    Var,
    format_term,
)
from .types import OMEGA, UNIT, PowerType, ProductType, TypeExpr


@record
class LsTypeError(ToposlangError):
    subterm: Term
    message: str

    def __str__(self):
        return f"{self.message} (in {format_term(self.subterm)})"


def infer_type(term: Term, context: Mapping[str, TypeExpr] | None = None,
               signature: Optional[Signature] = None) -> TypeExpr:
    """Unique type of a term under a free-variable context."""
    return _infer_type(term, context, signature, None)


def _infer_type(term: Term, context: Mapping[str, TypeExpr] | None,
                signature: Optional[Signature], free: dict | None) -> TypeExpr:
    """`infer_type`, which with a dict `free` also collects the term's
    context in the same walk: each annotated variable that neither `context`
    nor a binder binds is recorded in `free` under its annotation.  A
    variable already recorded there under another type raises LsTypeError,
    as a bare one outside `context` does in `infer_type`."""
    ctx = dict(context or {})

    def walk(n: Term, env: dict) -> TypeExpr:
        if isinstance(n, Var):
            from_env = env.get(n.name)
            if n.vtype is not None:
                if from_env is None:
                    seen = n.vtype if free is None else free.setdefault(n.name, n.vtype)
                    if seen is not n.vtype and seen != n.vtype:
                        raise LsTypeError(n, f"free variable {n.name!r} annotated {n.vtype} "
                                             f"and {seen}")
                elif from_env != n.vtype:
                    raise LsTypeError(n, f"variable {n.name!r} annotated {n.vtype} "
                                         f"but bound at {from_env}")
                return n.vtype
            if from_env is None:
                raise LsTypeError(n, f"unbound variable {n.name!r}")
            return from_env
        if isinstance(n, App):
            shape = None if signature is None else signature.symbols.get(n.symbol)
            if shape is None:
                raise LsTypeError(n, f"unknown function symbol {n.symbol!r}")
            dom, cod = shape
            got = walk(n.arg, env)
            if got is not dom and got != dom:
                raise LsTypeError(n, f"symbol {n.symbol!r} expects {dom}, got {got}")
            return cod
        if isinstance(n, Tup):
            if len(n.items) < 2:
                raise LsTypeError(n, "tuples need at least two components")
            return ProductType(tuple([walk(t, env) for t in n.items]))
        if isinstance(n, Star):
            return UNIT
        if isinstance(n, TrueLit):
            return OMEGA
        if isinstance(n, Proj):
            inner = walk(n.item, env)
            if not isinstance(inner, ProductType):
                raise LsTypeError(n, f"projection from non-product type {inner}")
            if not 1 <= n.index <= len(inner.factors):
                raise LsTypeError(n, f"projection index {n.index} out of range "
                                     f"for {inner}")
            return inner.factors[n.index - 1]
        if isinstance(n, Compr):
            if n.var.vtype is None:
                raise LsTypeError(n, "comprehension binder needs a type annotation")
            body_env = dict(env)
            body_env[n.var.name] = n.var.vtype
            body_t = walk(n.body, body_env)
            if body_t != OMEGA:
                raise LsTypeError(n, f"comprehension body must be a formula, got {body_t}")
            return PowerType(n.var.vtype)
        if isinstance(n, Eq):
            lt, rt = walk(n.left, env), walk(n.right, env)
            if lt is not rt and lt != rt:
                raise LsTypeError(n, f"equality between different types {lt} and {rt}")
            return OMEGA
        if isinstance(n, In):
            et, ct = walk(n.element, env), walk(n.container, env)
            if ct != PowerType(et):
                raise LsTypeError(n, f"membership needs container of type P({et}), got {ct}")
            return OMEGA
        if isinstance(n, AndT):
            for side in (n.left, n.right):
                got = walk(side, env)
                if got != OMEGA:
                    raise LsTypeError(n, f"conjunction operand has type {got}, not Omega")
            return OMEGA
        raise LsTypeError(n, f"unknown term former {type(n).__name__}")

    return walk(term, ctx)


def map_children(term: Term, f: Callable[[Term], Term]) -> Term:
    """The term with f applied to each immediate subterm, left to right; the
    term itself when f gives back every subterm as it was, so a walk copies
    no subtree it leaves unchanged.

    Apart from the parser, `format_term`, `infer_type` and the interpreter
    in `rep`, the one place that knows the fields of each term former.  A
    comprehension's binder is not a subterm; variables, `*` and `true` have
    none and come back as they are.
    """
    if isinstance(term, (Var, Star, TrueLit)):
        return term
    if isinstance(term, App):
        arg = f(term.arg)
        return term if arg is term.arg else App(term.symbol, arg)
    if isinstance(term, Tup):
        items = tuple(f(t) for t in term.items)
        return term if all(map(is_, items, term.items)) else Tup(items)
    if isinstance(term, Proj):
        item = f(term.item)
        return term if item is term.item else Proj(term.index, item)
    if isinstance(term, Compr):
        body = f(term.body)
        return term if body is term.body else Compr(term.var, body)
    if isinstance(term, Eq):
        left, right = f(term.left), f(term.right)
        return term if left is term.left and right is term.right else Eq(left, right)
    if isinstance(term, In):
        element, container = f(term.element), f(term.container)
        return term if element is term.element and container is term.container \
            else In(element, container)
    if isinstance(term, AndT):
        left, right = f(term.left), f(term.right)
        return term if left is term.left and right is term.right else AndT(left, right)
    raise TypeError(f"not a term node: {term!r}")


def free_vars(term: Term) -> dict[str, set]:
    """Free variable names with the annotation types seen on them."""
    out: dict[str, set] = {}

    def walk(n: Term, bound: frozenset) -> Term:
        if isinstance(n, Var):
            if n.name not in bound:
                out.setdefault(n.name, set()).add(n.vtype)
            return n
        if isinstance(n, Compr):
            bound = bound | {n.var.name}
        return map_children(n, lambda c: walk(c, bound))

    walk(term, frozenset())
    return out


def _fresh(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def rename_binder(node: Compr, new_name: str) -> Compr:
    new_var = Var(new_name, node.var.vtype)
    return Compr(new_var, substitute(node.body, node.var.name, new_var))


def substitute(term: Term, var_name: str, replacement: Term) -> Term:
    """Replace free occurrences of a variable, renaming binders that would
    capture free variables of the replacement."""
    repl_free = set(free_vars(replacement))

    def walk(n: Term) -> Term:
        if isinstance(n, Var):
            return replacement if n.name == var_name else n
        if isinstance(n, Compr):
            if n.var.name == var_name:
                return n  # occurrences below are bound, not free
            if n.var.name in repl_free:
                taken = repl_free | set(free_vars(n.body)) | {var_name}
                n = rename_binder(n, _fresh(n.var.name, taken))
        return map_children(n, walk)

    return walk(term)


def annotate(term: Term, var_types: Mapping[str, TypeExpr]) -> Term:
    """Substitute each free variable named in var_types by its typed twin."""
    for name, vtype in var_types.items():
        term = substitute(term, name, Var(name, vtype))
    return term


def alpha_normal(term: Term) -> Term:
    """Rename binders to a canonical scheme; alpha-equal terms coincide."""
    counter = [0]

    def walk(n: Term, env: Mapping[str, str]) -> Term:
        if isinstance(n, Var):
            return Var(env.get(n.name, n.name), n.vtype)
        if isinstance(n, Compr):
            counter[0] += 1
            fresh = f"%{counter[0]}"
            inner = dict(env)
            inner[n.var.name] = fresh
            return Compr(Var(fresh, n.var.vtype), walk(n.body, inner))
        return map_children(n, lambda c: walk(c, env))

    return walk(term, {})


def alpha_equal(a: Term, b: Term) -> bool:
    return alpha_normal(a) == alpha_normal(b)


CORE_TRUE = Eq(STAR, STAR)


def desugar_connectives(term: Term) -> Term:
    """Eliminate surface connectives: true becomes * = *, and conjunction
    becomes equality of the pair with the pair of truths.  Idempotent.

    These are the paper's definitions of the connectives, kept as such and
    as the tests' oracle: `rep.interpret_term` interprets `true` and `&` as
    they stand, without this rewrite."""
    def walk(n: Term) -> Term:
        if isinstance(n, TrueLit):
            return CORE_TRUE
        if isinstance(n, AndT):
            return Eq(Tup((walk(n.left), walk(n.right))), Tup((CORE_TRUE, CORE_TRUE)))
        return map_children(n, walk)

    return walk(term)
