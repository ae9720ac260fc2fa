"""Representations of the typed language in a presheaf-topos backend.

A representation assigns presheaves to the ground types and natural
transformations to the function symbols; types are interpreted structurally
(products as products, power types as power objects, the truth type as the
classifier, the unit type as the terminal object) and terms compositionally
as arrows out of the product of their free-variable context.  Each subterm
is interpreted once, as one column per stage: its values listed in the
order of that stage's environments, the elements of the context product.
Variables, application, tuples and projections map over a column;
restricting the environments along an arrow is an index list into the
environments at its domain, built once per context and arrow.

Equality lands on the classifier through the sieve of arrows equalizing the
two sides, read through those index lists; membership reads the evaluation
cells of the power object; and comprehension builds the power transpose
from blocks of its body's column over the context extended by the binder.
Every registered axiom sequent must hold, which for an empty context means
its interpretation is the constant arrow at the principal sieve.

A representation assigns objects and arrows of the topos, so a `ToposRep`
is valid by construction: its constructor checks that each ground lives on
the base, which is functorial as every `Presheaf` is, and that each
assigned symbol arrow is declared, has its declared shape and is natural, unless certified natural
by construction like the classical backend's.  Every
interpreted type is then a presheaf and every interpretation natural by
construction, so `interpret_term` certifies its result and checks nothing.
`build_rep` adds what a representation need not have: an arrow for every
declared symbol, faithfulness, and the axioms.

A proposition family, the power transpose P(R) -> P(Sigma) of ``A(s) in
D``, is read one value set zv at a time (Mac Lane & Moerdijk, "Sheaves in
Geometry and Logic", I.6): the term is interpreted over <zv> x Sigma only,
<zv> the sub-presheaf of P(R) that zv generates, and transposed over <zv>.
The whole family is listed only when its components are read.

This module builds no presheaf structure of its own: the context object is
`presheaf.product_presheaf`, <zv> is `presheaf`'s too, and power-object
elements are built and read only through `presheaf.exp_from_blocks` and
`exp_column`, which own their format.

The one-object backend gives classical set semantics.  A finite-state
system with rational value tables becomes such a representation through
`EffectiveClassicalRep`, which keeps interval arguments intensional: the
quantity-value stage holds the attained values only, and an interval set
denotes the power-object element deciding membership against them.
"""
from __future__ import annotations

import itertools
from operator import eq, itemgetter
from typing import Mapping, Sequence

from ._record import field, record
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
    PresheafError,
    classifier_kit,
    exp_column,
    exp_from_blocks,
    exponential,
    power_object,
    power_transpose,
    product_presheaf,
    validate_nat,
)
from .prop.semantics import ClassicalSystem


class RepresentationError(ToposlangError):
    pass


class FaithfulnessError(RepresentationError):
    pass


@record
class AxiomWitness:
    axiom: str
    stage: str
    environment: tuple
    got: frozenset
    expected: frozenset


@record
class AxiomReport:
    checked: int = 0
    failures: list[AxiomWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class ToposRep:
    """A representation: backend category, ground and symbol arrows, and the
    axiom sequents it is required to satisfy.

    RepresentationError unless each ground lives on the base (a presheaf is
    functorial by construction), and each assigned symbol arrow is declared,
    has the shape `interpret_type` gives its declared type, and is natural
    (checked with `validate_nat` unless certified).  Symbols may be left unassigned and
    the axioms are not checked: `build_rep` does both."""

    def __init__(self, signature: Signature, base: FiniteCategory,
                 grounds: Mapping[str, Presheaf],
                 symbols: Mapping[str, NatTransform],
                 axioms: Sequence[tuple[str, Sequent]] = ()):
        self.signature = signature
        self.base = base
        self.kit = classifier_kit(base)
        self.grounds = dict(grounds)
        self.symbols: dict[str, NatTransform] = {}
        self.axioms = tuple(axioms)
        self._type_cache: dict[TypeExpr, Presheaf] = {}
        for name, presheaf in self.grounds.items():
            if presheaf.base != base:
                raise RepresentationError(f"ground {name!r} lives on a different base")
        self._assign(symbols)

    def _assign(self, symbols: Mapping[str, NatTransform]) -> None:
        """Check the symbol arrows as the constructor does, then assign them.
        A caller that needs the interpreted types to build its arrows builds
        the representation with none and assigns them here, so the types
        are interpreted once, into this representation's cache."""
        for name, (dom, cod) in self.signature.symbols.items():
            arrow = symbols.get(name)
            if arrow is None:
                continue
            if arrow.source != interpret_type(dom, self) or \
                    arrow.target != interpret_type(cod, self):
                raise RepresentationError(f"arrow for {name!r} has the wrong shape")
            if not arrow._natural:
                bad = validate_nat(arrow)
                if bad.items:
                    raise RepresentationError(f"arrow for {name!r} is not natural: {bad.items[0]}")
        extra = set(symbols) - set(self.signature.symbols)
        if extra:
            raise RepresentationError(f"arrows assigned to undeclared symbols {sorted(extra)}")
        self.symbols.update(symbols)

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


class _Context:
    """A typing context as `interpret_term` walks it: each variable's slot in
    an environment, the slots' types, and each stage's environments in
    order.  The term's own context reads them off its product presheaf
    `source`.  A comprehension's body is walked in the `outer` context
    extended by the binder, of presheaf `binder`: its environments at B list
    each outer environment with every xv of X(B) in turn."""

    def __init__(self, cat: FiniteCategory, names: dict, types: tuple,
                 envs: Mapping[str, Sequence], source: Presheaf | None = None,
                 outer: "_Context | None" = None, binder: Presheaf | None = None):
        self.cat, self.names, self.types, self.envs = cat, names, types, envs
        self.source, self.outer, self.binder = source, outer, binder
        self._reads: dict[str, list[int]] = {}

    def extend(self, name: str, vtype: TypeExpr, x: Presheaf) -> "_Context":
        envs = {b: [env + (xv,) for env in self.envs[b] for xv in x.stage(b)]
                for b in self.cat.objects}
        return _Context(self.cat, {**self.names, name: len(self.types)}, self.types + (vtype,),
                        envs, outer=self, binder=x)

    def typing(self) -> dict[str, TypeExpr]:
        return {name: self.types[slot] for name, slot in self.names.items()}

    def reads(self, f: str) -> Sequence[int]:
        """For each environment at cod(f), the position of its restriction
        along f among the environments at dom(f).  Every slot's type is a
        presheaf, so an identity keeps each environment in place."""
        dom = self.cat.morphism(f).dom
        if f == self.cat.id_of(dom):
            return range(len(self.envs[dom]))
        out = self._reads.get(f)
        if out is None:
            out = self._reads[f] = self._restrict(f)
        return out

    def _restrict(self, f: str) -> list[int]:
        m = self.cat.morphism(f)
        if self.outer is None:
            index = {env: i for i, env in enumerate(self.envs[m.dom])}
            return [index[self.source.apply(f, env)] for env in self.envs[m.cod]]
        # Outer position j and binder position t sit at j * |X(dom)| + t.
        x = self.binder
        position = {xv: t for t, xv in enumerate(x.stage(m.dom))}
        width = len(x.stage(m.dom))
        col = [position[x.apply(f, xv)] for xv in x.stage(m.cod)]
        return [j * width + t for j in self.outer.reads(f) for t in col]


def interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                   rep: ToposRep) -> NatTransform:
    """Compositional semantics: an arrow from the context product to the
    interpretation of the term's type.  Closed truth-valued terms come out
    as global elements of the classifier (arrows from the terminal object).

    Each subterm is interpreted once, as the columns {stage: [value, ...]}
    of an arrow out of its context's product, aligned with the context's
    environments at that stage.  Its parent reads those columns: equality
    through the index lists restricting environments along each arrow, a
    comprehension its body's column over the context extended by the binder,
    one block of |X(B)| values per environment.  The root's columns are the
    components, natural by construction on the grounds and symbol arrows
    `ToposRep` checked, so the result is certified and checked no further.
    """
    return _interpret_term(term, context, rep, None)


def _interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                    rep: ToposRep, source: Presheaf | None) -> NatTransform:
    """`interpret_term` out of `source`, a sub-presheaf of the context
    product whose stages are the environments to interpret over, or out of
    the whole product when None.  A term's value at an environment reads
    only that environment and its restrictions, which stay in `source`, so
    the result is the whole interpretation restricted to `source`."""
    term = desugar_connectives(term)
    target_type = infer_type(term, dict(context), rep.signature)
    cat = rep.base
    if source is None:
        presheaves = tuple(interpret_type(t, rep) for _, t in context)
        source = product_presheaf(presheaves) if context else rep.kit.terminal
    top = _Context(cat, {name: i for i, (name, _) in enumerate(context)},
                   tuple(t for _, t in context), source.at, source=source)
    columns = _columns(term, top, rep)
    return NatTransform._certified(
        source, interpret_type(target_type, rep),
        {obj: dict(zip(source.at[obj], columns[obj])) for obj in cat.objects})


def _columns(n: Term, ctx: _Context, rep: ToposRep) -> dict[str, list]:
    """The columns {stage: [value, ...]} of term n, aligned with the
    environments of ctx at each stage (see `interpret_term`)."""
    cat, envs = rep.base, ctx.envs
    if isinstance(n, Var):
        if n.name not in ctx.names:
            raise RepresentationError(f"unbound variable {n.name!r}")
        get = itemgetter(ctx.names[n.name])
        return {obj: list(map(get, envs[obj])) for obj in cat.objects}
    if isinstance(n, Star):
        return {obj: [()] * len(envs[obj]) for obj in cat.objects}
    if isinstance(n, App):
        if n.symbol not in rep.symbols:
            raise RepresentationError(f"unassigned function symbol {n.symbol!r}")
        components, arg = rep.symbols[n.symbol].components, _columns(n.arg, ctx, rep)
        return {obj: list(map(components[obj].__getitem__, arg[obj])) for obj in cat.objects}
    if isinstance(n, Tup):
        items = [_columns(t, ctx, rep) for t in n.items]
        return {obj: list(zip(*(t[obj] for t in items))) for obj in cat.objects}
    if isinstance(n, Proj):
        item, get = _columns(n.item, ctx, rep), itemgetter(n.index - 1)
        return {obj: list(map(get, item[obj])) for obj in cat.objects}
    if isinstance(n, Eq):
        left, right = _columns(n.left, ctx, rep), _columns(n.right, ctx, rep)
        same = {obj: list(map(eq, left[obj], right[obj])) for obj in cat.objects}
        out = {}
        for obj in cat.objects:
            into = cat.into(obj)
            patterns = list(zip(*(map(same[cat.morphism(f).dom].__getitem__, ctx.reads(f))
                                  for f in into)))
            # One sieve per distinct pattern, members in `into` order.
            sieves = {p: frozenset(itertools.compress(into, p)) for p in set(patterns)}
            out[obj] = list(map(sieves.__getitem__, patterns))
        return out
    if isinstance(n, In):
        container, element = _columns(n.container, ctx, rep), _columns(n.element, ctx, rep)
        x = interpret_type(infer_type(n.element, ctx.typing(), rep.signature), rep)
        return {obj: exp_column(cat, obj, x, container[obj], element[obj])
                for obj in cat.objects}
    if isinstance(n, Compr):
        x = interpret_type(n.var.vtype, rep)
        body = _columns(n.body, ctx.extend(n.var.name, n.var.vtype, x), rep)
        # The block of outer environment j at B: its |X(B)| body values.
        blocks = {}
        for b in cat.objects:
            width, col = len(x.stage(b)), body[b]
            blocks[b] = [col[j * width:(j + 1) * width] for j in range(len(envs[b]))]
        return {obj: exp_from_blocks(cat, obj, x, zip(*(
            map(blocks[b].__getitem__, ctx.reads(g)) for b, g in cat.into_by_key(obj))))
            for obj in cat.objects}
    raise RepresentationError(f"cannot interpret term former {type(n).__name__}")


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
    """Construct a representation, which checks its grounds and symbol
    arrows (see `ToposRep`), then check the rest: every declared symbol has
    an arrow, quantity symbols are assigned faithfully, and every axiom
    holds."""
    return _completed(ToposRep(signature, base, grounds, symbols, axioms))


def _completed(rep: ToposRep) -> ToposRep:
    """`rep` once `build_rep`'s own checks pass on it."""
    signature = rep.signature
    for name in signature.symbols:
        if name not in rep.symbols:
            raise RepresentationError(f"function symbol {name!r} has no assigned arrow")
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

# The context of the proposition ``A(s) in D`` that a family transposes.
_FAMILY_CONTEXT = (("D", PowerType(RQ)), ("s", SIGMA))


class _PropFamily(NatTransform):
    """The power transpose P(R) -> P(Sigma) of the arrow P(R) x Sigma ->
    Omega interpreting ``symbol(s) in D``, read one argument at a time.

    By the Yoneda lemma its value at zv in P(R)(A) needs only <zv>, the
    sub-presheaf of P(R) that zv generates (`_Exponential._generated`):
    `apply` interprets the term over <zv> x Sigma, transposes that over
    <zv> and reads the value at zv, so it lists neither P(R) nor P(Sigma),
    and no hom-search cap applies to it.  An argument outside P(R)(A),
    decided by `_Exponential._holds`, raises what `NatTransform.apply`
    raises.  The first read of `components`, through equality or the hash
    too, lists P(R), with the CapExceeded of its hom search where that
    passes a cap, and applies the family to each element; `apply` then
    reads the listed components.  Certified natural, as every power
    transpose is."""

    def __init__(self, symbol: str, rep: ToposRep):
        self._term = In(App(symbol, Var("s")), Var("D"))
        infer_type(self._term, dict(_FAMILY_CONTEXT), rep.signature)
        self.source = interpret_type(PowerType(RQ), rep)
        self._sigma = interpret_type(SIGMA, rep)
        if symbol not in rep.symbols:
            raise RepresentationError(f"unassigned function symbol {symbol!r}")
        # P(Sigma) as the transposes make it, from the kit already held:
        # `interpret_type` would read `classifier_kit` again.
        self.target = exponential(self._sigma, rep.kit.omega)
        self._rep, self._hash, self._natural = rep, None, True

    def __getattr__(self, name):
        # Called only for an attribute not yet set: `components` until the
        # first read lists it.
        if name != "components":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.components = {obj: {zv: self._value(obj, zv) for zv in self.source.stage(obj)}
                           for obj in self.source.base.objects}
        return self.components

    def apply(self, obj: str, zv):
        if "components" in self.__dict__:
            return super().apply(obj, zv)
        if not self.source._holds(obj, zv):
            raise PresheafError(f"component at {obj!r} undefined at {zv!r}")
        return self._value(obj, zv)

    def _value(self, obj: str, zv):
        generated = self.source._generated(obj, zv)
        flipped = _interpret_term(self._term, _FAMILY_CONTEXT, self._rep,
                                  product_presheaf([generated, self._sigma]))
        return power_transpose(flipped, generated, self._sigma).components[obj][zv]


def prop_family(symbol: str, rep: ToposRep) -> NatTransform:
    """Power transpose of the arrow P(R) x Sigma -> Omega interpreting
    ``symbol(s) in D``, as a family of state subsets indexed by value sets:
    each value read at one argument and the whole family listed only when
    read (see `_PropFamily`).  Built anew on each call, which costs little:
    the interpreted types and both power objects are kept where they were
    already, and nothing on the representation refers back to a family, so
    both are freed by reference counting."""
    return _PropFamily(symbol, rep)


# -- classical backend --------------------------------------------------------------

@record(frozen=True)
class EffectiveClassicalRep:
    """A finite-state system lifted to the one-object backend.

    The value stage holds exactly the attained quantity values, so the real
    line is never enumerated: an interval set stays intensional until
    `delta_element` decides it on those values.  The stage and the symbol
    arrows hold the system's own value objects, one hash-keeping
    `intervals.Rational` per distinct value (see `ClassicalSystem`), so the
    power object's cells and every lookup of a value find it by identity
    and hash it once.  A preimage goes through a `prop_family` built for it
    and dropped after it, read at the interval set's element alone: on the
    one object that element generates only itself, so membership is
    interpreted over one environment per state and transposed into one
    subset of states.  Neither the power
    object of the values, 2^values subsets, nor that of the states,
    2^states, is listed, so a preimage costs time linear in the states and
    does not grow with 2^values, which is not capped.  Only listing the
    family's components, through its equality or hash too, lists the power
    object of the values, and that is refused from 18 values on, past the
    hom search's cell cap.  Nothing the representation holds refers back to
    it, so reference counting frees it once its last user drops it.
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
        value_obj = Presheaf(base, {pt: {v for table in system.quantities.values()
                                         for v in table.values()}}, {})
        # Total functions on the one object's stage: natural, so certified.
        arrows = {name: NatTransform._certified(states, value_obj, {pt: {
                      s: table[s] for s in system.states}})
                  for name, table in system.quantities.items()}
        built = build_rep(signature, base, {"Sigma": states, "R": value_obj}, arrows)
        return EffectiveClassicalRep(system, built)

    def delta_element(self, delta: IntervalSet):
        """The power-object element of the value stage deciding membership in
        the interval set."""
        base, pt, values = self.rep.base, self.point, self.rep.ground("R")
        top = principal_sieve(base, pt).members
        row = [[top if delta.member(v) else frozenset() for v in values.stage(b)]
               for b, _ in base.into_by_key(pt)]
        return exp_from_blocks(base, pt, values, [row])[0]

    def preimage(self, symbol: str, delta: IntervalSet) -> frozenset:
        """States whose value lands in the interval set, through the power
        transpose of the proposition arrow."""
        family = prop_family(symbol, self.rep)
        subset_element = family.apply(self.point, self.delta_element(delta))
        pt, base, sigma = self.point, self.rep.base, self.rep.ground("Sigma")
        top = principal_sieve(base, pt).members
        states = sigma.stage(pt)
        truth = exp_column(base, pt, sigma, itertools.repeat(subset_element), states)
        return frozenset(s for s, value in zip(states, truth) if value == top)
