"""Sequents, axiom schemas and the derivation checker for the local language.

A sequent is a finite set of formulas implying one formula.  The base
schemas are Tautology, Unity, Equality (substitution of equals), the
product beta/eta laws, and Comprehension; matching is up to alpha
equivalence.  The derivation checker accepts axiom instances, thinning,
cut, substitution of closed terms, and rewriting along a proved
bi-implication.  Proof search is out of scope: derivations are certificates
to be checked, not found.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .._record import record
from ..errors import InputError
from .check import alpha_equal, annotate, free_vars, map_children, substitute
from .syntax import (
    STAR,
    AndT,
    Compr,
    Eq,
    In,
    Proj,
    Signature,
    Star,
    Term,
    Tup,
    Var,
    format_term,
    parse_term,
)
from .types import RQ, SIGMA, UNIT, ProductType, TypeExpr


@record(frozen=True)
class Sequent:
    context: frozenset[Term]
    conclusion: Term

    @staticmethod
    def of(conclusion: Term, *context: Term) -> "Sequent":
        return Sequent(frozenset(context), conclusion)

    def __str__(self):
        ctx = ", ".join(sorted(format_term(t) for t in self.context))
        return f"{ctx} : {format_term(self.conclusion)}"


# -- schema recognition ----------------------------------------------------------

def _is_tautology(seq: Sequent) -> bool:
    return len(seq.context) == 1 and \
        alpha_equal(next(iter(seq.context)), seq.conclusion)


def _is_unity(seq: Sequent) -> bool:
    c = seq.conclusion
    return not seq.context and isinstance(c, Eq) and isinstance(c.right, Star) \
        and isinstance(c.left, Var) and c.left.vtype == UNIT


def _replaceable(phi: Term, psi: Term, x: Term, y: Term) -> bool:
    """Can psi be reached from phi by replacing some free occurrences of the
    term x with y?

    The two terms are walked in lockstep with binders renamed to a shared
    reserved name, so an occurrence that sits under a binder capturing a
    free variable of x or y no longer compares alpha-equal to x or y and is
    therefore never treated as a replacement site; capture safety falls out
    of the renaming.
    """
    counter = [0]

    def walk(a: Term, b: Term) -> bool:
        if alpha_equal(a, x) and alpha_equal(b, y):
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Compr):
            if a.var.vtype != b.var.vtype:
                return False
            counter[0] += 1
            fresh = Var(f"%r{counter[0]}", a.var.vtype)
            return walk(substitute(a.body, a.var.name, fresh),
                        substitute(b.body, b.var.name, fresh))
        a_kids, b_kids = [], []
        # the same former with the same symbol, index or arity, or equal leaves
        if map_children(a, lambda t: a_kids.append(t) or STAR) != \
                map_children(b, lambda t: b_kids.append(t) or STAR):
            return False
        return all(walk(s, t) for s, t in zip(a_kids, b_kids))

    return walk(phi, psi)


def _is_equality(seq: Sequent) -> bool:
    if len(seq.context) != 2:
        return False
    members = list(seq.context)
    for eq in members:
        if not isinstance(eq, Eq):
            continue
        other = members[1] if eq is members[0] else members[0]
        if _replaceable(other, seq.conclusion, eq.left, eq.right):
            return True
        if _replaceable(other, seq.conclusion, eq.right, eq.left):
            return True
    return False


def _is_products(seq: Sequent) -> bool:
    if seq.context:
        return False
    c = seq.conclusion
    if not isinstance(c, Eq):
        return False
    # beta: proj_i(<x1,...,xn>) = xi
    if isinstance(c.left, Proj) and isinstance(c.left.item, Tup):
        items = c.left.item.items
        if 1 <= c.left.index <= len(items) and \
                alpha_equal(items[c.left.index - 1], c.right):
            return True
    # eta: x = <proj_1(x),...,proj_n(x)>
    if isinstance(c.right, Tup):
        items = c.right.items
        if all(isinstance(t, Proj) and t.index == i + 1 and alpha_equal(t.item, c.left)
               for i, t in enumerate(items)):
            return True
    return False


def _is_comprehension(seq: Sequent) -> bool:
    if seq.context:
        return False
    c = seq.conclusion
    if not isinstance(c, Eq):  # bi-implication is Omega equality
        return False
    for membership, body in ((c.left, c.right), (c.right, c.left)):
        if isinstance(membership, In) and isinstance(membership.container, Compr):
            compr = membership.container
            expanded = substitute(compr.body, compr.var.name, membership.element)
            if alpha_equal(expanded, body):
                return True
    return False


_SCHEMA_CHECKS = (
    ("Tautology", _is_tautology),
    ("Unity", _is_unity),
    ("Equality", _is_equality),
    ("Products", _is_products),
    ("Comprehension", _is_comprehension),
)


def is_axiom_instance(seq: Sequent) -> Optional[str]:
    """Name of the matching base schema, or None."""
    for name, check in _SCHEMA_CHECKS:
        if check(seq):
            return name
    return None


# -- derivations -----------------------------------------------------------------

@record(frozen=True)
class DerivationLine:
    sequent: Sequent
    rule: str                      # axiom | thinning | cut | substitute | rewrite
    refs: tuple[int, ...] = ()     # 1-based earlier lines
    var: Optional[Var] = None      # for substitute
    term: Optional[Term] = None    # for substitute


@record
class DerivationVerdict:
    accepted: bool
    bad_line: Optional[int] = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"accepted": self.accepted}
        if not self.accepted:
            out["bad_line"] = self.bad_line
            out["reason"] = self.reason
        return out


def _seq_substitute(seq: Sequent, var: Var, value: Term) -> Sequent:
    return Sequent(frozenset(substitute(f, var.name, value) for f in seq.context),
                   substitute(seq.conclusion, var.name, value))


def check_derivation(proof: Sequence[DerivationLine]) -> DerivationVerdict:
    """Verify a derivation certificate line by line; rejection pinpoints the
    first bad line.  Diagnostics, never exceptions."""
    if not proof:
        return DerivationVerdict(False, 0, "empty derivation")
    for number, line in enumerate(proof, start=1):
        if any(r < 1 or r >= number for r in line.refs):
            return DerivationVerdict(False, number, "citation must point backward")
        earlier = [proof[r - 1].sequent for r in line.refs]
        seq = line.sequent
        if line.rule == "axiom":
            if is_axiom_instance(seq) is None:
                return DerivationVerdict(False, number, "matches no axiom schema")
        elif line.rule == "thinning":
            if len(earlier) != 1:
                return DerivationVerdict(False, number, "thinning cites one line")
            src = earlier[0]
            if not (_subset_alpha(src.context, seq.context)
                    and alpha_equal(src.conclusion, seq.conclusion)):
                return DerivationVerdict(False, number, "not a thinning of the cited line")
        elif line.rule == "cut":
            if len(earlier) != 2:
                return DerivationVerdict(False, number, "cut cites two lines")
            left, right = earlier
            if not any(alpha_equal(left.conclusion, g) for g in right.context):
                return DerivationVerdict(
                    False, number, "cut formula does not appear in the second context")
            expected = frozenset(g for g in right.context
                                 if not alpha_equal(g, left.conclusion)) | left.context
            if not (_set_alpha_equal(seq.context, expected)
                    and alpha_equal(seq.conclusion, right.conclusion)):
                return DerivationVerdict(False, number, "cut result sequent is wrong")
        elif line.rule == "substitute":
            if len(earlier) != 1 or line.var is None or line.term is None:
                return DerivationVerdict(False, number,
                                         "substitute cites one line, a variable and a term")
            if free_vars(line.term):
                return DerivationVerdict(False, number,
                                         "only closed terms may be substituted")
            got = _seq_substitute(earlier[0], line.var, line.term)
            if not (_set_alpha_equal(seq.context, got.context)
                    and alpha_equal(seq.conclusion, got.conclusion)):
                return DerivationVerdict(False, number, "substitution result is wrong")
        elif line.rule == "rewrite":
            if len(earlier) != 2:
                return DerivationVerdict(False, number, "rewrite cites two lines")
            eq_line, src = earlier
            if eq_line.context or not isinstance(eq_line.conclusion, Eq):
                return DerivationVerdict(
                    False, number, "first citation must conclude a plain bi-implication")
            eq = eq_line.conclusion
            ok = (_set_alpha_equal(seq.context, src.context)
                  and (_replaceable(src.conclusion, seq.conclusion, eq.left, eq.right)
                       or _replaceable(src.conclusion, seq.conclusion, eq.right, eq.left)))
            if not ok:
                return DerivationVerdict(False, number,
                                         "conclusion is not a rewrite of the cited line")
        else:
            return DerivationVerdict(False, number, f"unknown rule {line.rule!r}")
    return DerivationVerdict(True)


def _subset_alpha(small: frozenset, big: frozenset) -> bool:
    return all(any(alpha_equal(s, b) for b in big) for s in small)


def _set_alpha_equal(a: frozenset, b: frozenset) -> bool:
    return _subset_alpha(a, b) and _subset_alpha(b, a)


# -- axiom packs and set operations ------------------------------------------------

@record(frozen=True)
class AxiomPack:
    name: str
    symbols: tuple[tuple[str, TypeExpr, TypeExpr], ...]  # (name, dom, cod)
    sequents: tuple[tuple[str, Sequent], ...]


def abelian_axiom_pack() -> AxiomPack:
    """Commutative-group laws for the quantity-value type, with an outer free
    variable per law standing for its universal closure."""
    symbols = (("zero", UNIT, RQ), ("add", ProductType((RQ, RQ)), RQ), ("neg", RQ, RQ))

    def seqt(text: str) -> Sequent:
        term = parse_term(text)  # every free variable ranges over R
        return Sequent(frozenset(), annotate(term, dict.fromkeys(free_vars(term), RQ)))

    sequents = (
        ("unit", seqt("add(<r, zero(*)>) = r")),
        ("commutativity", seqt("add(<r, s>) = add(<s, r>)")),
        ("associativity", seqt("add(<add(<r, s>), t>) = add(<r, add(<s, t>)>)")),
        ("inverse", seqt("add(<r, neg(r)>) = zero(*)")),
    )
    return AxiomPack("abelian-quantity-values", symbols, sequents)


def pack_signature(base: Signature, pack: AxiomPack) -> Signature:
    symbols = dict(base.symbols)
    for name, dom, cod in pack.symbols:
        if name in symbols and symbols[name] != (dom, cod):
            raise InputError(f"axiom pack symbol {name!r} clashes with the signature")
        symbols[name] = (dom, cod)
    return Signature(symbols, base.grounds)


def lset_intersection(x: Term, y: Term, element_type: TypeExpr,
                      var_name: str = "w") -> Term:
    """{ w : T | w in X & w in Y } for closed set-valued terms X and Y."""
    for side, label in ((x, "left"), (y, "right")):
        if free_vars(side):
            raise InputError(f"{label} operand of the intersection must be closed")
    taken = set(free_vars(x)) | set(free_vars(y))
    name = var_name
    while name in taken:
        name += "'"
    v = Var(name, element_type)
    return Compr(v, AndT(In(v, x), In(v, y)))
