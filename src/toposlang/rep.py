"""Representations of the typed language in a presheaf-topos backend.

A representation assigns presheaves to the ground types and natural
transformations to the function symbols; types are interpreted structurally
(products as products, power types as power objects, the truth type as the
classifier, the unit type as the terminal object) and terms compositionally
as arrows out of the product of their free-variable context.  Each subterm
is interpreted once, as the component tables of such an arrow, and its
parent reads those tables; no (stage, environment) is evaluated twice.

Equality lands on the classifier through the sieve of arrows equalizing the
two sides; membership applies the evaluation cell of the power object; and
comprehension builds the power transpose directly from its body's arrow out
of the context extended by the binder.  Every registered axiom
sequent must hold, which for an empty context means its interpretation is
the constant arrow at the principal sieve.

This module builds no presheaf structure of its own: the context object is
`presheaf.product_presheaf`, and power-object elements are built and read
only through `presheaf.exp_element` and `presheaf.exp_lookup`, which own
their format.

The one-object backend gives classical set semantics.  A finite-state
system with rational value tables becomes such a representation through
`EffectiveClassicalRep`, which keeps interval arguments intensional: the
quantity-value stage holds the attained values only, and an interval set
denotes the power-object element deciding membership against them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from ._canon import canon_sorted
from .category import FiniteCategory, one_object_category, principal_sieve
from .errors import ToposlangError
from .intervals import IntervalSet
from .local.axioms import Sequent
from .local.check import desugar_connectives, free_vars, infer_type
from .local.syntax import (
    App,
    Compr,
    Eq,
    In,
    Proj,
    Signature,
    Star,
    Term,
    Tup,
    Var,
)
from .local.types import (
    RQ,
    SIGMA,
    GroundType,
    PowerType,
    ProductType,
    QuantityType,
    StateType,
    TruthType,
    TypeExpr,
    UnitType,
)
from .presheaf import (
    NatTransform,
    Presheaf,
    classifier_kit,
    exp_element,
    exp_lookup,
    power_object,
    power_transpose,
    product_presheaf,
    validate_nat,
    validate_presheaf,
)
from .prop.semantics import ClassicalSystem


class RepresentationError(ToposlangError):
    pass


class FaithfulnessError(RepresentationError):
    pass


@dataclass
class AxiomWitness:
    axiom: str
    stage: str
    environment: tuple
    got: frozenset
    expected: frozenset


@dataclass
class AxiomReport:
    checked: int = 0
    failures: list[AxiomWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class ToposRep:
    """Validated representation: backend category, ground and symbol arrows,
    and the axiom sequents it is required to satisfy."""

    def __init__(self, signature: Signature, base: FiniteCategory,
                 grounds: Mapping[str, Presheaf],
                 symbols: Mapping[str, NatTransform],
                 axioms: Sequence[tuple[str, Sequent]] = ()):
        self.signature = signature
        self.base = base
        self.kit = classifier_kit(base)
        self.grounds = dict(grounds)
        self.symbols = dict(symbols)
        self.axioms = tuple(axioms)
        self._type_cache: dict[TypeExpr, Presheaf] = {}
        self._family_cache: dict[str, NatTransform] = {}

    def ground(self, name: str) -> Presheaf:
        if name not in self.grounds:
            raise RepresentationError(f"ground type {name!r} has no assigned object")
        return self.grounds[name]


def interpret_type(t: TypeExpr, rep: ToposRep) -> Presheaf:
    """Structural interpretation of a type expression as a presheaf."""
    cached = rep._type_cache.get(t)
    if cached is not None:
        return cached
    if isinstance(t, UnitType):
        out = rep.kit.terminal
    elif isinstance(t, TruthType):
        out = rep.kit.omega
    elif isinstance(t, StateType):
        out = rep.ground("Sigma")
    elif isinstance(t, QuantityType):
        out = rep.ground("R")
    elif isinstance(t, GroundType):
        out = rep.ground(t.name)
    elif isinstance(t, ProductType):
        out = product_presheaf([interpret_type(f, rep) for f in t.factors])
    elif isinstance(t, PowerType):
        out = power_object(interpret_type(t.inner, rep))
    else:
        raise RepresentationError(f"unknown type expression {t!r}")
    rep._type_cache[t] = out
    return out


def interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                   rep: ToposRep) -> NatTransform:
    """Compositional semantics: an arrow from the context product to the
    interpretation of the term's type.  Closed truth-valued terms come out
    as global elements of the classifier (arrows from the terminal object).

    Each subterm is interpreted once, as the components {stage: {env: value}}
    of an arrow out of its own context's product, and its parent reads those
    tables: equality at the restricted environments, a comprehension its
    body's table over the context extended by the binder.
    """
    term = desugar_connectives(term)
    target_type = infer_type(term, dict(context), rep.signature)
    cat = rep.base

    def arrow(n: Term, names: dict, types: tuple, envs: Mapping[str, Sequence]) -> dict:
        # names: a variable's slot in an environment; types: the slots'
        # presheaves; envs: each stage's environments, the product's elements.
        def each(value) -> dict:
            return {obj: {env: value(obj, env) for env in envs[obj]} for obj in cat.objects}

        def restrict(f: str, env: tuple) -> tuple:
            return tuple(x.apply(f, v) for x, v in zip(types, env))

        def sub(child: Term) -> dict:
            return arrow(child, names, types, envs)

        if isinstance(n, Var):
            if n.name not in names:
                raise RepresentationError(f"unbound variable {n.name!r}")
            slot = names[n.name]
            return each(lambda obj, env: env[slot])
        if isinstance(n, Star):
            return each(lambda obj, env: ())
        if isinstance(n, App):
            if n.symbol not in rep.symbols:
                raise RepresentationError(f"unassigned function symbol {n.symbol!r}")
            symbol, arg = rep.symbols[n.symbol], sub(n.arg)
            return each(lambda obj, env: symbol.apply(obj, arg[obj][env]))
        if isinstance(n, Tup):
            items = [sub(t) for t in n.items]
            return each(lambda obj, env: tuple(t[obj][env] for t in items))
        if isinstance(n, Proj):
            item, k = sub(n.item), n.index - 1
            return each(lambda obj, env: item[obj][env][k])
        if isinstance(n, Eq):
            left, right = sub(n.left), sub(n.right)

            def agree(f: str, env: tuple) -> bool:
                dom, env_f = cat.morphism(f).dom, restrict(f, env)
                return left[dom][env_f] == right[dom][env_f]
            return each(lambda obj, env: frozenset(f for f in cat.into(obj) if agree(f, env)))
        if isinstance(n, In):
            container, element = sub(n.container), sub(n.element)
            return each(lambda obj, env: exp_lookup(
                container[obj][env], obj, cat.id_of(obj), element[obj][env]))
        if isinstance(n, Compr):
            x = interpret_type(n.var.vtype, rep)
            body = arrow(n.body, {**names, n.var.name: len(types)}, types + (x,),
                         {b: [env + (xv,) for env in envs[b] for xv in x.stage(b)]
                          for b in cat.objects})
            return each(lambda obj, env: exp_element(
                cat, obj, x, lambda b, g, xv: body[b][restrict(g, env) + (xv,)]))
        raise RepresentationError(f"cannot interpret term former {type(n).__name__}")

    types = tuple(interpret_type(t, rep) for _, t in context)
    source = product_presheaf(types) if context else rep.kit.terminal
    components = arrow(term, {name: i for i, (name, _) in enumerate(context)}, types, source.at)
    result = NatTransform(source, interpret_type(target_type, rep), components)
    bad = validate_nat(result)
    if bad.items:
        raise RepresentationError(f"interpretation is not natural: {bad.items[0]}")
    return result


def validate_axioms(rep: ToposRep,
                    axioms: Sequence[tuple[str, Sequent]] | None = None) -> AxiomReport:
    """Each sequent must hold at every stage and environment: the meet of the
    context's truth values lies below the conclusion's, and with an empty
    context the conclusion is the principal sieve outright."""
    report = AxiomReport()
    for name, seq in (rep.axioms if axioms is None else tuple(axioms)):
        var_types: dict[str, TypeExpr] = {}
        for formula in list(seq.context) + [seq.conclusion]:
            for vname, annots in free_vars(formula).items():
                types = {t for t in annots if t is not None}
                if not types:
                    raise RepresentationError(
                        f"axiom {name!r} has untyped free variable {vname!r}")
                if len(types) > 1 or (vname in var_types and var_types[vname] not in types):
                    raise RepresentationError(
                        f"axiom {name!r} types variable {vname!r} inconsistently")
                var_types[vname] = types.pop()
        context = tuple(sorted(var_types.items()))
        concl = interpret_term(seq.conclusion, context, rep)
        premises = [interpret_term(g, context, rep) for g in seq.context]
        source = concl.source
        for obj in rep.base.objects:
            top = principal_sieve(rep.base, obj).members
            for env in source.stage(obj):
                got = concl.apply(obj, env)
                bound = top
                for p in premises:
                    bound = bound & p.apply(obj, env)
                report.checked += 1
                if not bound <= got or (not premises and got != top):
                    report.failures.append(AxiomWitness(
                        name, obj, env, got, bound if premises else top))
    return report


def build_rep(signature: Signature, base: FiniteCategory,
              grounds: Mapping[str, Presheaf],
              symbols: Mapping[str, NatTransform],
              axioms: Sequence[tuple[str, Sequent]] = ()) -> ToposRep:
    """Construct and fully validate a representation: ground presheaves are
    functorial, symbol arrows are natural with the right shapes, quantity
    symbols are assigned faithfully, and every axiom holds."""
    rep = ToposRep(signature, base, grounds, symbols, axioms)
    for name, presheaf in rep.grounds.items():
        if presheaf.base != base:
            raise RepresentationError(f"ground {name!r} lives on a different base")
        bad = validate_presheaf(presheaf)
        if bad.items:
            raise RepresentationError(f"ground {name!r} is not functorial: {bad.items[0]}")
    for name, (dom, cod) in signature.symbols.items():
        if name not in rep.symbols:
            raise RepresentationError(f"function symbol {name!r} has no assigned arrow")
        arrow = rep.symbols[name]
        if arrow.source != interpret_type(dom, rep) or \
                arrow.target != interpret_type(cod, rep):
            raise RepresentationError(f"arrow for {name!r} has the wrong shape")
        bad = validate_nat(arrow)
        if bad.items:
            raise RepresentationError(f"arrow for {name!r} is not natural: {bad.items[0]}")
    extra = set(rep.symbols) - set(signature.symbols)
    if extra:
        raise RepresentationError(f"arrows assigned to undeclared symbols {sorted(extra)}")
    quantity = signature.quantity_symbols()
    for i, a in enumerate(quantity):
        for b in quantity[i + 1:]:
            if rep.symbols[a] == rep.symbols[b]:
                raise FaithfulnessError(
                    f"quantity symbols {a!r} and {b!r} share one arrow; "
                    "the representation is not faithful")
    report = validate_axioms(rep)
    if not report.ok:
        w = report.failures[0]
        raise RepresentationError(
            f"axiom {w.axiom!r} fails at stage {w.stage!r}, environment {w.environment!r}: "
            f"got {sorted(w.got)}, needed at least {sorted(w.expected)}")
    return rep


# -- proposition families ---------------------------------------------------------

def prop_family(symbol: str, rep: ToposRep) -> NatTransform:
    """Power transpose of the arrow P(R) x Sigma -> Omega interpreting
    ``symbol(s) in D``, as a family of state subsets indexed by value sets.
    Cached per representation and symbol."""
    cached = rep._family_cache.get(symbol)
    if cached is not None:
        return cached
    flipped = interpret_term(
        In(App(symbol, Var("s")), Var("D")),
        (("D", PowerType(RQ)), ("s", SIGMA)), rep)
    z = interpret_type(PowerType(RQ), rep)
    x = interpret_type(SIGMA, rep)
    out = power_transpose(flipped, z, x)
    rep._family_cache[symbol] = out
    return out


# -- classical backend --------------------------------------------------------------

def _set_arrow(base: FiniteCategory, source: Presheaf, target: Presheaf,
               table: Mapping) -> NatTransform:
    obj = base.objects[0]
    return NatTransform(source, target, {obj: dict(table)})


@dataclass(frozen=True)
class EffectiveClassicalRep:
    """A finite-state system lifted to the one-object backend.

    The value stage holds exactly the attained quantity values, so the real
    line is never enumerated: an interval set stays intensional until
    `delta_element` decides it on those values.  A preimage still goes
    through `prop_family`, which enumerates the power object of the value
    stage, all 2^values subsets of it, and transposes membership over every
    one, once per quantity.
    """
    system: ClassicalSystem
    rep: ToposRep

    @property
    def point(self) -> str:
        return self.rep.base.objects[0]

    @staticmethod
    def build(system: ClassicalSystem) -> "EffectiveClassicalRep":
        base = one_object_category()
        pt = base.objects[0]
        signature = Signature({name: (SIGMA, RQ) for name in system.quantities})
        states = Presheaf(base, {pt: system.states}, {})
        values = tuple(canon_sorted({Fraction(v)
                                     for table in system.quantities.values()
                                     for v in table.values()}))
        value_obj = Presheaf(base, {pt: values}, {})
        arrows = {name: _set_arrow(base, states, value_obj,
                                   {s: Fraction(system.quantities[name][s])
                                    for s in system.states})
                  for name in system.quantities}
        built = build_rep(signature, base, {"Sigma": states, "R": value_obj}, arrows)
        return EffectiveClassicalRep(system, built)

    def delta_element(self, delta: IntervalSet):
        """The power-object element of the value stage deciding membership in
        the interval set."""
        top = principal_sieve(self.rep.base, self.point).members
        return exp_element(self.rep.base, self.point, self.rep.ground("R"),
                           lambda b, g, v: top if delta.member(v) else frozenset())

    def preimage(self, symbol: str, delta: IntervalSet) -> frozenset:
        """States whose value lands in the interval set, through the power
        transpose of the proposition arrow."""
        family = prop_family(symbol, self.rep)
        subset_element = family.apply(self.point, self.delta_element(delta))
        pt, base = self.point, self.rep.base
        top = principal_sieve(base, pt).members
        return frozenset(s for s in self.rep.ground("Sigma").stage(pt)
                         if exp_lookup(subset_element, pt, base.id_of(pt), s) == top)
